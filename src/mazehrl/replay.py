"""Hierarchical experience storage and high-return trajectory weighting.

The low-level buffer keeps whole episodes in a ring of preallocated
columns, one per name in ``FIELDS`` (``capacity`` rows each), and an
episode table, ``TrajectoryBuffer.records``, with one
``TrajectoryRecord`` per stored episode, oldest first. An episode occupies
``length`` consecutive ring rows from ``record.offset``, wrapping past the
last row. Storing an episode evicts whole oldest episodes (FIFO) until it
fits; an episode longer than ``capacity`` is rejected.

``sample_pool`` draws landmark candidates under one of ``SAMPLER_CHOICES``:

- ``"hr"``: high-return sampling. At every call the episodic returns are
  max-min normalized per task (start and goal cells of side
  ``TASK_CELL_SIZE``), debiased by their in-sample expected-return fit
  (``expected_returns``) and Boltzmann-weighted at temperature ``alpha``;
  ``compute_weights`` writes each episode's transition weight to
  ``record.weight``, the only field it writes.
- ``"uniform"``: every stored transition equally likely.
- ``"topk"``: uniform over the transitions of the ``TOPK_FRACTION``
  highest-return episodes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SAMPLER_CHOICES = ("hr", "uniform", "topk")
# Per-step columns of the buffer, in Transition and export order.
FIELDS = ("s", "sg", "a", "r", "s_next", "sg_next", "done")
# Side of the grid cells that quantize start and goal positions into tasks.
TASK_CELL_SIZE = 0.75
# Share of the episodes, by episodic return, that the topk sampler keeps.
TOPK_FRACTION = 0.1
# Expected-return fit: at most this many features, the mean below this many
# episodes, and the ridge that regularizes a rank-deficient design.
FIT_MAX_FEATURES = 6
FIT_MIN_SAMPLES = 20
FIT_RIDGE = 1e-8


@dataclass
class Transition:
    """One low-level environment step with hierarchical annotations."""

    s: np.ndarray
    sg: np.ndarray
    a: np.ndarray
    r: float
    s_next: np.ndarray
    sg_next: np.ndarray
    done: bool
    t: int = -1


@dataclass
class TrajectoryRecord:
    """Per-episode bookkeeping feeding the weighting pipeline.

    ``offset`` is the ring row of the episode's first step; step ``i`` sits
    at row ``(offset + i) % capacity``.
    """

    traj_id: int
    length: int
    ret: float
    start: np.ndarray
    goal: np.ndarray
    offset: int
    weight: float = 0.0


class TrajectoryBuffer:
    """FIFO low-level replay with whole-trajectory eviction.

    Steps live in a ring of float64 columns, one per name in ``FIELDS``,
    each with ``capacity`` rows. The columns are allocated at the first
    ``store_episode``, with row shapes taken from that episode, and left
    unfilled (``np.empty``), so memory pages are touched only as rows are
    written; no read reaches a row that no stored episode holds.
    Flat index ``i`` (0 is the oldest stored step) is ring row
    ``(head + i) % capacity``. ``records`` is the episode table, oldest
    first; ``compute_weights`` writes its weights into it in place.

    ``store_episode`` raises ``ValueError``, leaving the buffer unchanged,
    for an empty episode, non-consecutive step indices, ``done`` before the
    last step, more steps than ``capacity``, or row shapes that differ from
    the columns.
    """

    def __init__(self, capacity=200_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.records: list[TrajectoryRecord] = []
        self._cols = None  # field -> (capacity, ...) array, made at the first store
        self._head = 0  # ring row of the oldest stored step
        self._size = 0
        self._next_id = 0

    def __len__(self):
        return self._size

    @property
    def n_trajectories(self):
        return len(self.records)

    def _rows(self, flat):
        """Ring rows of flat indices (0 is the oldest stored step)."""
        return (self._head + flat) % self.capacity

    def store_episode(self, transitions, goal) -> int:
        """Append one completed episode, evicting the oldest episodes until it fits."""
        length = len(transitions)
        if not length:
            raise ValueError("empty episode")
        if length > self.capacity:
            raise ValueError(f"episode of {length} steps exceeds capacity {self.capacity}")
        for i, tr in enumerate(transitions):
            if tr.t != i:
                raise ValueError(f"non-consecutive step index {tr.t} at position {i}")
            if tr.done and i != length - 1:
                raise ValueError("done before the final transition")
        episode = {f: np.array([getattr(tr, f) for tr in transitions], dtype=np.float64) for f in FIELDS}
        goal = np.array(goal, dtype=np.float64)
        if self._cols is not None:
            for f, col in self._cols.items():
                shape = episode[f].shape[1:]
                if shape != col.shape[1:]:
                    raise ValueError(f"{f} rows of shape {shape}, buffer has {col.shape[1:]}")
        else:
            self._cols = {f: np.empty((self.capacity,) + v.shape[1:]) for f, v in episode.items()}
        while self._size + length > self.capacity:
            gone = self.records.pop(0)
            self._head = (self._head + gone.length) % self.capacity
            self._size -= gone.length
        rows = self._rows(np.arange(self._size, self._size + length))
        for f, values in episode.items():
            self._cols[f][rows] = values
        self._size += length
        traj_id = self._next_id
        self._next_id += 1
        self.records.append(
            TrajectoryRecord(
                traj_id=traj_id,
                length=length,
                ret=float(np.sum(episode["r"])),  # undiscounted
                start=episode["s"][0].copy(),
                goal=goal,
                offset=int(rows[0]),
            )
        )
        return traj_id

    def sample_batch(self, n, rng):
        """Uniform transition minibatch as column arrays (for TD learning)."""
        if self._size == 0:
            raise ValueError("empty buffer")
        rows = self._rows(rng.integers(0, self._size, size=n))
        return {f: col[rows] for f, col in self._cols.items()}

    def recent_states(self, window):
        """Last ``window`` stored states, newest last."""
        if self._size == 0:
            return np.zeros((0, 0))
        take = max(0, min(window, self._size))
        return self._cols["s"][self._rows(np.arange(self._size - take, self._size))]

    # ---- line-delimited export/import ----

    def export_lines(self, path):
        with open(path, "w") as fh:
            for rec in self.records:
                rows = (rec.offset + np.arange(rec.length)) % self.capacity
                cols = {f: self._cols[f][rows].tolist() for f in FIELDS}
                cols["done"] = [bool(d) for d in cols["done"]]
                goal = rec.goal.tolist()
                for i in range(rec.length):
                    row = {"traj": rec.traj_id, "t": i, **{f: cols[f][i] for f in FIELDS}, "goal": goal}
                    fh.write(json.dumps(row) + "\n")

    @classmethod
    def import_lines(cls, path, capacity=200_000):
        buf = cls(capacity)
        groups = {}
        with open(path) as fh:
            for line in fh:
                row = json.loads(line)
                groups.setdefault(row["traj"], []).append(row)
        for rows in groups.values():
            goal = rows[0]["goal"]
            rows.sort(key=lambda r: r["t"])
            buf.store_episode([Transition(**{f: r[f] for f in FIELDS}, t=r["t"]) for r in rows], goal)
        return buf


# ---- task normalization and expected-return regression ----


def normalize_returns(records):
    """Per-task max-min normalization of episodic returns, as an array.

    A task is a pair of grid cells, floor(coordinate / TASK_CELL_SIZE), of
    the start position and the goal; the start position is the first
    ``len(goal)`` coordinates of the start state. A degenerate task
    (max == min) maps to 0.5. The records are left untouched.
    """
    if not records:
        return np.empty(0)
    goals = np.array([rec.goal for rec in records], dtype=np.float64)
    starts = np.array([rec.start[: goals.shape[1]] for rec in records], dtype=np.float64)
    cells = np.floor(np.concatenate([starts, goals], axis=1) / TASK_CELL_SIZE)
    tasks, task = np.unique(cells, axis=0, return_inverse=True)
    task = task.reshape(-1)
    rets = np.array([rec.ret for rec in records], dtype=np.float64)
    lo = np.full(len(tasks), np.inf)
    hi = np.full(len(tasks), -np.inf)
    np.minimum.at(lo, task, rets)
    np.maximum.at(hi, task, rets)
    span = (hi - lo)[task]
    flat = span <= 0
    return np.where(flat, 0.5, (rets - lo[task]) / np.where(flat, 1.0, span))


def expected_returns(X, y):
    """In-sample expected-return fit of ``y`` over the feature rows ``X``.

    Linear least squares on the ``FIT_MAX_FEATURES`` features with the
    largest absolute correlation with ``y``; the mean of ``y`` below
    ``FIT_MIN_SAMPLES`` rows or when the design is uninformative (fewer
    than two distinct rows, constant ``y`` or no varying feature).
    Rank-deficient solves are ridge-regularized by ``FIT_RIDGE``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise ValueError("need at least one sample")
    mean = np.full(len(y), float(y.mean()))
    if len(y) < FIT_MIN_SAMPLES or np.unique(X, axis=0).shape[0] < 2 or y.std() == 0:
        return mean
    std = X.std(axis=0)
    informative = np.nonzero(std > 0)[0]
    if informative.size == 0:
        return mean
    xc = X[:, informative] - X[:, informative].mean(axis=0)
    yc = y - y.mean()
    corr = np.abs(xc.T @ yc) / (std[informative] * y.std() * len(y))
    idx = informative[np.argsort(-corr, kind="stable")[:FIT_MAX_FEATURES]]
    A = np.column_stack([X[:, idx], np.ones(len(y))])
    if np.linalg.matrix_rank(A) < A.shape[1]:
        sol = np.linalg.solve(A.T @ A + FIT_RIDGE * np.eye(A.shape[1]), A.T @ y)
    else:
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return X[:, idx] @ sol[:-1] + float(sol[-1])


# ---- Boltzmann transition weights ----


def hr_weights(corrected_returns, lengths, alpha):
    """Per-trajectory transition weights from debias-corrected returns.

    w_i = exp(A_i / alpha) / sum_j T_j exp(A_j / alpha), computed with a
    max-shift for numerical stability (the weights are invariant under
    constant shifts of A). Every transition of trajectory i carries
    weight w_i, so sum_i T_i w_i = 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    A = np.asarray(corrected_returns, dtype=np.float64)
    T = np.asarray(lengths, dtype=np.float64)
    if A.shape != T.shape or A.ndim != 1 or A.size == 0:
        raise ValueError("corrected_returns and lengths must be equal-length 1-D")
    e = np.exp((A - A.max()) / alpha)
    return e / float(np.dot(T, e))


def compute_weights(buffer, alpha):
    """Full weighting pipeline over the buffer's trajectory records.

    Normalizes returns per task, subtracts their expected-return fit, and
    Boltzmann-weights the residuals. Writes each ``record.weight`` and
    returns the per-trajectory weights.
    """
    records = buffer.records
    if not records:
        raise ValueError("empty buffer")
    norm = normalize_returns(records)
    feats = np.stack([np.concatenate([rec.start, rec.goal]) for rec in records])
    lengths = np.array([rec.length for rec in records], dtype=np.float64)
    weights = hr_weights(norm - expected_returns(feats, norm), lengths, alpha)
    for rec, w in zip(records, weights):
        rec.weight = float(w)
    return weights


def weight_entropy(weights, lengths):
    """Entropy of the per-transition distribution (each transition has prob w_i)."""
    w = np.asarray(weights, dtype=np.float64)
    T = np.asarray(lengths, dtype=np.float64)
    mask = w > 0
    return float(-np.sum(T[mask] * w[mask] * np.log(w[mask])))


# ---- samplers ----


def weighted_sample(buffer, traj_weights, n, rng):
    """n states drawn i.i.d. from the transition distribution.

    traj_weights are per-trajectory transition weights (from hr_weights);
    a trajectory is chosen with probability proportional to T_i * w_i, then
    a step within it uniformly. All-zero weights raise ``ValueError``.
    """
    lengths = np.array([rec.length for rec in buffer.records])
    offsets = np.array([rec.offset for rec in buffer.records])
    mass = lengths * np.asarray(traj_weights, dtype=np.float64)
    total = mass.sum()
    if total <= 0:
        raise ValueError("all-zero weights")
    ti = rng.choice(mass.size, size=n, p=mass / total)
    steps = rng.integers(0, lengths[ti])
    return buffer._cols["s"][(offsets[ti] + steps) % buffer.capacity]


def topk_mask(records):
    """Mask of the ceil(TOPK_FRACTION * N) highest-return records; ties favor newer."""
    rets = np.array([rec.ret for rec in records], dtype=np.float64)
    ids = np.array([rec.traj_id for rec in records])
    mask = np.zeros(len(records), dtype=bool)
    mask[np.lexsort((-ids, -rets))[: math.ceil(TOPK_FRACTION * len(records))]] = True
    return mask


def sample_pool(buffer, sampler, pool_size, rng, alpha=0.1):
    """Draw the landmark candidate pool of states under the chosen sampler."""
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    if sampler == "hr":
        return weighted_sample(buffer, compute_weights(buffer, alpha), pool_size, rng)
    if sampler == "uniform":
        return buffer._cols["s"][buffer._rows(rng.integers(0, len(buffer), size=pool_size))]
    if sampler == "topk":
        # Zero weight leaves an episode no share of the draw, so this draws
        # from the kept episodes alone, by length.
        return weighted_sample(buffer, topk_mask(buffer.records), pool_size, rng)
    raise ValueError(f"unknown sampler {sampler!r}; choices: {SAMPLER_CHOICES}")
