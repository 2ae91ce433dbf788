"""Hierarchical experience storage and high-return trajectory weighting.

The low-level buffer keeps whole episodes in a ring of preallocated
columns, one per name in ``FIELDS`` (``capacity`` rows each), and an
episode table, ``TrajectoryBuffer.records``, with one
``TrajectoryRecord`` per stored episode, oldest first. An episode occupies
``length`` consecutive ring rows from ``record.offset``, wrapping past the
last row. Storing an episode evicts whole oldest episodes (FIFO) until it
fits; an episode longer than ``capacity`` is rejected. Episodic returns,
task normalization, expected-return regression and Boltzmann transition
weights are recomputed over the episode table, in place, at every
landmark-sampling event. Uniform and top-k baseline samplers read the same
columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

SAMPLER_CHOICES = ("hr", "uniform", "topk", "hr+uniform", "hr+topk")
# Per-step columns of the buffer, in Transition and export order.
FIELDS = ("s", "sg", "a", "r", "s_next", "sg_next", "done")


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
    traj_id: int = -1
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
    norm_ret: float = 0.0
    expected_ret: float = 0.0
    weight: float = 0.0


def episodic_return(rewards) -> float:
    """Undiscounted sum of rewards over one trajectory."""
    return float(np.sum(rewards))


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
                ret=episodic_return(episode["r"]),
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


def normalize_returns(records, cell_size):
    """Per-task max-min normalization of episodic returns.

    Returns the normalized array and writes record.norm_ret. A task is a
    pair of grid cells, floor(coordinate / cell_size), of the start
    position and the goal; the start position is the first ``len(goal)``
    coordinates of the start state. A degenerate task (max == min) maps
    to 0.5.
    """
    if not records:
        return np.empty(0)
    goals = np.array([rec.goal for rec in records], dtype=np.float64)
    starts = np.array([rec.start[: goals.shape[1]] for rec in records], dtype=np.float64)
    cells = np.floor(np.concatenate([starts, goals], axis=1) / cell_size)
    tasks, task = np.unique(cells, axis=0, return_inverse=True)
    task = task.reshape(-1)
    rets = np.array([rec.ret for rec in records], dtype=np.float64)
    lo = np.full(len(tasks), np.inf)
    hi = np.full(len(tasks), -np.inf)
    np.minimum.at(lo, task, rets)
    np.maximum.at(hi, task, rets)
    span = (hi - lo)[task]
    flat = span <= 0
    out = np.where(flat, 0.5, (rets - lo[task]) / np.where(flat, 1.0, span))
    for rec, v in zip(records, out):
        rec.norm_ret = float(v)
    return out


class ReturnRegressor:
    """Expected-return model over start-goal features.

    Linear least squares on the top-6 features ranked by absolute
    correlation with the target; falls back to the global mean below
    ``min_samples`` or when the design is uninformative. Rank-deficient
    solves are ridge-regularized.
    """

    def __init__(self, max_features=6, min_samples=20, ridge=1e-8):
        self.max_features = max_features
        self.min_samples = min_samples
        self.ridge = ridge
        self.mean_ = 0.0
        self.feature_idx_ = None
        self.coef_ = None
        self.intercept_ = 0.0

    @property
    def is_fallback(self):
        return self.coef_ is None

    def fit(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        if len(y) < 1:
            raise ValueError("need at least one sample")
        self.mean_ = float(y.mean())
        self.feature_idx_ = None
        self.coef_ = None
        distinct = np.unique(X, axis=0).shape[0]
        if len(y) < self.min_samples or distinct < 2 or y.std() == 0:
            return self
        std = X.std(axis=0)
        informative = np.nonzero(std > 0)[0]
        if informative.size == 0:
            return self
        xc = X[:, informative] - X[:, informative].mean(axis=0)
        yc = y - y.mean()
        corr = np.abs(xc.T @ yc) / (std[informative] * y.std() * len(y))
        order = np.argsort(-corr, kind="stable")[: self.max_features]
        idx = informative[order]
        A = np.column_stack([X[:, idx], np.ones(len(y))])
        rank = np.linalg.matrix_rank(A)
        if rank < A.shape[1]:
            gram = A.T @ A + self.ridge * np.eye(A.shape[1])
            sol = np.linalg.solve(gram, A.T @ y)
        else:
            sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        self.feature_idx_ = idx
        self.coef_ = sol[:-1]
        self.intercept_ = float(sol[-1])
        return self

    def predict(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.coef_ is None:
            return np.full(X.shape[0], self.mean_)
        return X[:, self.feature_idx_] @ self.coef_ + self.intercept_


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


def compute_weights(buffer, alpha, cell_size, normalize=True):
    """Full weighting pipeline over the buffer's trajectory records.

    Normalizes returns per task, fits the expected-return regressor,
    subtracts the prediction, and Boltzmann-weights the residuals.
    Updates each record in place and returns the per-trajectory weights.
    """
    records = buffer.records
    if not records:
        raise ValueError("empty buffer")
    if normalize:
        base = normalize_returns(records, cell_size)
    else:
        base = np.array([rec.ret for rec in records])
        for rec, v in zip(records, base):
            rec.norm_ret = float(v)
    feats = np.stack([np.concatenate([rec.start, rec.goal]) for rec in records])
    reg = ReturnRegressor().fit(feats, base)
    expected = reg.predict(feats)
    lengths = np.array([rec.length for rec in records], dtype=np.float64)
    weights = hr_weights(base - expected, lengths, alpha)
    for rec, e, w in zip(records, expected, weights):
        rec.expected_ret = float(e)
        rec.weight = float(w)
    return weights


def weight_entropy(weights, lengths):
    """Entropy of the per-transition distribution (each transition has prob w_i)."""
    w = np.asarray(weights, dtype=np.float64)
    T = np.asarray(lengths, dtype=np.float64)
    mask = w > 0
    return float(-np.sum(T[mask] * w[mask] * np.log(w[mask])))


# ---- samplers ----


def weighted_indices(probs, n, rng):
    """n i.i.d. draws from a normalized probability vector."""
    p = np.asarray(probs, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise ValueError("all-zero weights")
    return rng.choice(p.size, size=n, p=p / total)


def weighted_sample(buffer, traj_weights, n, rng):
    """n states drawn i.i.d. from the transition distribution.

    traj_weights are per-trajectory transition weights (from hr_weights);
    a trajectory is chosen with probability T_i * w_i, then a step within
    it uniformly.
    """
    lengths = np.array([rec.length for rec in buffer.records])
    offsets = np.array([rec.offset for rec in buffer.records])
    ti = weighted_indices(lengths * np.asarray(traj_weights), n, rng)
    steps = rng.integers(0, lengths[ti])
    return buffer._cols["s"][(offsets[ti] + steps) % buffer.capacity]


def topk_filter(records, fraction):
    """Records with the ceil(k*N) highest episodic returns; ties favor newer."""
    if not records:
        raise ValueError("empty buffer")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    m = math.ceil(fraction * len(records))
    ranked = sorted(records, key=lambda rec: (-rec.ret, -rec.traj_id))
    return ranked[:m]


def sample_pool(buffer, sampler, pool_size, rng, alpha=0.1, cell_size=0.75,
                topk_fraction=0.1, normalize=True):
    """Draw the landmark candidate pool of states under the chosen sampler."""
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    if sampler not in SAMPLER_CHOICES:
        raise ValueError(f"unknown sampler {sampler!r}; choices: {SAMPLER_CHOICES}")

    def uniform_states(n):
        return buffer._cols["s"][buffer._rows(rng.integers(0, len(buffer), size=n))]

    def hr_states(n):
        w = compute_weights(buffer, alpha, cell_size, normalize=normalize)
        return weighted_sample(buffer, w, n, rng)

    def topk_states(n):
        # Zero weight leaves an episode no share of the draw's cdf, so this
        # draws from the kept episodes alone, by length.
        kept = {rec.traj_id for rec in topk_filter(buffer.records, topk_fraction)}
        return weighted_sample(buffer, [float(rec.traj_id in kept) for rec in buffer.records], n, rng)

    if sampler == "uniform":
        return uniform_states(pool_size)
    if sampler == "hr":
        return hr_states(pool_size)
    if sampler == "topk":
        return topk_states(pool_size)
    n_hr = int(rng.binomial(pool_size, 0.5))
    other = uniform_states if sampler == "hr+uniform" else topk_states
    parts = []
    if n_hr:
        parts.append(hr_states(n_hr))
    if pool_size - n_hr:
        parts.append(other(pool_size - n_hr))
    return np.concatenate(parts, axis=0)
