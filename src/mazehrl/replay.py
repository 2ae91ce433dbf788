"""Hierarchical experience storage and high-return trajectory weighting.

The low-level buffer keeps whole episodes in a ring of preallocated
columns, one per name in ``FIELDS`` (``capacity`` rows each), and an
episode table, ``TrajectoryBuffer.records``: an ``np.recarray`` with one
row per stored episode, oldest first, and the fields ``traj_id``,
``length``, ``ret`` (undiscounted return), ``weight``, ``start`` (the
first state) and ``goal``. An episode's rows are found from the
``length`` column alone (``TrajectoryBuffer``). A goal, and every ``sg``
and ``sg_next`` row, has one shape ``(k,)``, k at most the width of the
1-D states: a position is a state's first k coordinates. Storing an
episode evicts whole oldest episodes (FIFO) until it fits; an episode
longer than ``capacity`` is rejected. ``store_episode`` replaces the
table with a new array, so a reference to ``records`` held across a store
is a stale snapshot. Only ``store_episode`` (a new table) and
``compute_weights`` (its ``weight`` column) may write the table;
``sample_pool`` relies on that when it reuses the weights.

``TrajectoryBuffer.sample_batch`` draws uniform TD minibatches, and
``TrajectoryBuffer.sample_relabelled`` draws them with HER "future" goals;
both hold the ``FIELDS`` columns. The ring stores no step's ``r`` or
``done``, which depend on the goal: a TD target derives both from
``sg_next`` and the success radius, so a relabelled goal gets its own.
``store_episode`` still checks them and sums ``r`` into ``ret``.

``sample_pool`` draws landmark candidates under one of ``SAMPLER_CHOICES``:

- ``"hr"``: high-return sampling. Once per stored table and ``alpha``
  the episodic returns are max-min normalized per task (start and goal
  cells of side ``TASK_CELL_SIZE``), debiased by their in-sample linear
  fit on every varying start-state and goal coordinate
  (``expected_returns``) and Boltzmann-weighted at temperature
  ``alpha``; ``compute_weights`` writes each episode's
  transition weight to the ``weight`` column, the only column it writes.
  Later draws at the same ``alpha`` reuse that column until the next
  ``store_episode``.
- ``"uniform"``: every stored transition equally likely.
- ``"topk"``: uniform over the transitions of the ``TOPK_FRACTION``
  highest-return episodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import POSITIVE, check_count, check_real

SAMPLER_CHOICES = ("hr", "uniform", "topk")
HER_P = 0.8  # share of relabelled goals: HER's "future" strategy with k = 4, k / (k + 1)
# Per-step columns of the buffer, in Transition order.
FIELDS = ("s", "sg", "a", "s_next", "sg_next")
# Side of the grid cells that quantize start and goal positions into tasks.
TASK_CELL_SIZE = 0.75
# Share of the episodes, by episodic return, that the topk sampler keeps.
TOPK_FRACTION = 0.1
# Expected-return fit: the mean below this many episodes.
FIT_MIN_SAMPLES = 20


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
    t: int


def _table_dtype(state_shape, goal_shape):
    """Row type of the episode table for the given start-state and goal shapes."""
    return [
        ("traj_id", np.int64),
        ("length", np.int64),
        ("ret", np.float64),
        ("weight", np.float64),
        ("start", np.float64, state_shape),
        ("goal", np.float64, goal_shape),
    ]


class TrajectoryBuffer:
    """FIFO low-level replay with whole-trajectory eviction.

    ``capacity``, an integer >= 1 with no default, is the row count of
    each float64 step column and of the ring. The columns and the episode
    table ``records`` (module docstring) are made at the first
    ``store_episode``, with that episode's row, start and goal shapes; the
    columns are left unfilled (``np.empty``), so memory pages are touched
    only as rows are written, and no read reaches a row that no stored
    episode holds.

    One rule locates every row. The stored episodes lie end to end in
    flat order, oldest first, so episode j holds the ``length[j]`` flat
    indices from the sum of the earlier ``length``s; flat index ``i`` (0 is
    the oldest stored step) is ring row ``_rows(i) = (head + i) % capacity``.

    ``store_episode`` raises ``ValueError``, leaving the buffer unchanged,
    for an empty episode, non-consecutive step indices, ``done`` before the
    last step, more steps than ``capacity``, a non-finite step value,
    reward or goal, a goal or ``sg``/``sg_next`` row that is not one shape
    ``(k,)`` with k at most the width of the 1-D ``s`` and ``s_next`` rows,
    or row or goal shapes that differ from the columns and the table.
    """

    def __init__(self, capacity):
        self.capacity = check_count(capacity, "capacity", 1)
        self.records = np.recarray(0, dtype=_table_dtype((0,), (0,)))
        self._cols = None  # field -> (capacity, ...) array, made at the first store
        self._head = 0  # ring row of the oldest stored step
        self._size = 0
        self._next_id = 0
        self._weighted = None  # alpha the weight column holds; None until weighted

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
        rewards = np.array([tr.r for tr in transitions], dtype=np.float64)
        goal = np.array(goal, dtype=np.float64)
        for f, values in [*episode.items(), ("r", rewards), ("goal", goal)]:
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite {f} in episode")
        shapes = {**{f: v.shape[1:] for f, v in episode.items()}, "goal": goal.shape}
        state, pos = shapes["s"], shapes["goal"]
        if len(state) != 1 or len(pos) != 1 or not 1 <= pos[0] <= state[0]:
            raise ValueError(f"goal of shape {pos} is not the first k coordinates, shape (k,), "
                             f"of states of shape {state}")
        want = {"s_next": state, "sg": pos, "sg_next": pos}
        if self._cols is not None:  # the stored shapes keep the rule above
            want = {f: col.shape[1:] for f, col in self._cols.items()}
            want["goal"] = self.records.goal.shape[1:]
        for f, have in want.items():
            if shapes[f] != have:
                raise ValueError(f"{f} rows of shape {shapes[f]}, want {have}")
        if self._cols is None:
            self._cols = {f: np.empty((self.capacity,) + v.shape[1:]) for f, v in episode.items()}
            self.records = np.recarray(0, dtype=_table_dtype(state, pos))
        gone = freed = 0
        while self._size - freed + length > self.capacity:
            freed += int(self.records.length[gone])
            gone += 1
        self._head, self._size = self._rows(freed), self._size - freed
        rows = self._rows(np.arange(self._size, self._size + length))
        for f, values in episode.items():
            self._cols[f][rows] = values
        self._size += length
        traj_id = self._next_id
        self._next_id += 1
        ret = np.sum(rewards)  # undiscounted
        row = np.array([(traj_id, length, ret, 0.0, episode["s"][0], goal)], self.records.dtype)
        self.records = np.concatenate([self.records[gone:], row]).view(np.recarray)
        self._weighted = None
        return traj_id

    def _draw(self, n, rng):
        """Flat indices of ``n`` >= 1 uniform draws over the stored transitions, and their columns."""
        if self._size == 0:
            raise ValueError("empty buffer")
        flat = rng.integers(0, self._size, size=check_count(n, "n", 1))
        rows = self._rows(flat)
        return flat, {f: col[rows] for f, col in self._cols.items()}

    def sample_batch(self, n, rng):
        """Uniform minibatch of ``n`` >= 1 transitions as column arrays (for TD learning)."""
        return self._draw(n, rng)[1]

    def sample_relabelled(self, n, rng):
        """A ``sample_batch`` minibatch of ``n`` >= 1 transitions with HER "future" goals.

        HER (arXiv 1707.01495): with probability ``HER_P`` a drawn
        transition, step t of its episode, takes as its goal the position of
        ``s_next`` at a uniform step k >= t of the same episode. Its ``sg``
        and ``sg_next`` become that goal minus the positions of ``s`` and
        ``s_next`` (module docstring).
        """
        flat, batch = self._draw(n, rng)
        ends = np.cumsum(self.records.length)  # episodes lie end to end in flat order
        future = rng.integers(flat, ends[np.searchsorted(ends, flat, side="right")])
        relabel = rng.random(len(flat)) < HER_P
        width = batch["sg"].shape[1]
        goal = self._cols["s_next"][self._rows(future[relabel]), :width]
        batch["sg"][relabel] = goal - batch["s"][relabel, :width]
        batch["sg_next"][relabel] = goal - batch["s_next"][relabel, :width]
        return batch

    def recent_states(self, window):
        """Last ``window`` (an integer >= 0) stored states, newest last."""
        take = min(check_count(window, "window", 0), self._size)
        if self._size == 0:
            return np.zeros((0, 0))
        return self._cols["s"][self._rows(np.arange(self._size - take, self._size))]


# ---- task normalization and expected-return regression ----


def normalize_returns(records):
    """Per-task max-min normalization of episodic returns, as an array.

    A task is a pair of grid cells, floor(coordinate / TASK_CELL_SIZE), of
    the start position and the goal (module docstring: a position is a
    state's first ``len(goal)`` coordinates). A degenerate task
    (max == min) maps to 0.5. ``records`` is an episode table; it is left
    untouched.
    """
    if len(records) == 0:
        return np.empty(0)
    goals = records.goal
    starts = records.start[:, : goals.shape[1]]
    cells = np.floor(np.concatenate([starts, goals], axis=1) / TASK_CELL_SIZE)
    # One stable row sort brings each task's rows together; a task starts
    # where a row differs from its predecessor (NaN cells never match).
    order = np.lexsort(cells[:, ::-1].T)
    rows = cells[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    task = np.empty(len(rows), dtype=np.intp)
    task[order] = np.cumsum(new) - 1
    rets = records.ret
    lo = np.full(np.count_nonzero(new), np.inf)
    hi = np.full(len(lo), -np.inf)
    np.minimum.at(lo, task, rets)
    np.maximum.at(hi, task, rets)
    span = (hi - lo)[task]
    flat = span <= 0
    return np.where(flat, 0.5, (rets - lo[task]) / np.where(flat, 1.0, span))


def expected_returns(X, y):
    """In-sample expected-return fit of ``y`` over the feature rows ``X``.

    Linear least squares with an intercept on every varying feature
    (nonzero standard deviation), in the given column order; the mean of
    ``y`` below ``FIT_MIN_SAMPLES`` rows or when the design is
    uninformative (fewer than two distinct rows, constant ``y`` or no
    varying feature). A rank-deficient design takes the minimum-norm
    solution, whose fitted values are the same projection of ``y``, so
    they do not depend on the column order beyond rounding.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise ValueError("need at least one sample")
    mean = np.full(len(y), float(y.mean()))
    # A constant column can have a nonzero std (its mean rounds), so equal
    # rows are caught exactly here.
    if len(y) < FIT_MIN_SAMPLES or (X == X[0]).all() or y.std() == 0:
        return mean
    varying = np.nonzero(X.std(axis=0) > 0)[0]
    if varying.size == 0:
        return mean
    A = np.column_stack([X[:, varying], np.ones(len(y))])
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return X[:, varying] @ sol[:-1] + float(sol[-1])


# ---- Boltzmann transition weights ----


def hr_weights(corrected_returns, lengths, alpha):
    """Per-trajectory transition weights from debias-corrected returns.

    w_i = exp(A_i / alpha) / sum_j T_j exp(A_j / alpha), computed with a
    max-shift for numerical stability (the weights are invariant under
    constant shifts of A). Every transition of trajectory i carries
    weight w_i, so sum_i T_i w_i = 1. A length that is not positive and
    finite, or a non-finite A_i, raises ``ValueError``.
    """
    alpha = check_real(alpha, "alpha", POSITIVE)
    A = np.asarray(corrected_returns, dtype=np.float64)
    T = np.asarray(lengths, dtype=np.float64)
    if A.shape != T.shape or A.ndim != 1 or A.size == 0:
        raise ValueError("corrected_returns and lengths must be equal-length 1-D")
    if not ((T > 0) & (T < np.inf)).all() or not np.isfinite(A).all():
        raise ValueError("lengths must be positive and finite, and corrected_returns finite")
    e = np.exp((A - A.max()) / alpha)
    return e / float(np.dot(T, e))


def compute_weights(buffer, alpha):
    """Full weighting pipeline over the buffer's episode table.

    Normalizes returns per task, subtracts their expected-return fit, and
    Boltzmann-weights the residuals. Writes the table's ``weight`` column,
    records the ``alpha`` it weighted, and returns the per-trajectory
    weights.
    """
    records = buffer.records
    if len(records) == 0:
        raise ValueError("empty buffer")
    norm = normalize_returns(records)
    feats = np.concatenate([records.start, records.goal], axis=1)
    weights = hr_weights(norm - expected_returns(feats, norm), records.length, alpha)
    records.weight = weights
    buffer._weighted = alpha
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
    lengths = buffer.records.length
    mass = lengths * np.asarray(traj_weights, dtype=np.float64)
    total = mass.sum()
    if total <= 0:
        raise ValueError("all-zero weights")
    ti = rng.choice(mass.size, size=n, p=mass / total)
    firsts = np.cumsum(lengths) - lengths  # flat index of each episode's first step
    steps = rng.integers(0, lengths[ti])
    return buffer._cols["s"][buffer._rows(firsts[ti] + steps)]


def topk_mask(records):
    """Mask of the ceil(TOPK_FRACTION * N) highest-return table rows; ties favor newer."""
    mask = np.zeros(len(records), dtype=bool)
    order = np.lexsort((-records.traj_id, -records.ret))
    mask[order[: math.ceil(TOPK_FRACTION * len(records))]] = True
    return mask


def sample_pool(buffer, sampler, pool_size, rng, alpha=0.1):
    """Draw the landmark candidate pool of states under the chosen sampler.

    ``"hr"`` runs ``compute_weights`` only when the table or ``alpha``
    differs from its last run, and otherwise draws with the ``weight``
    column that run wrote.
    """
    pool_size = check_count(pool_size, "pool_size", 1)
    if len(buffer) == 0:
        raise ValueError("empty buffer")
    if sampler == "hr":
        alpha = check_real(alpha, "alpha", POSITIVE)  # before the cache test: True == 1.0
        if buffer._weighted != alpha:
            compute_weights(buffer, alpha)
        return weighted_sample(buffer, buffer.records.weight, pool_size, rng)
    if sampler == "uniform":
        return buffer._cols["s"][buffer._rows(rng.integers(0, len(buffer), size=pool_size))]
    if sampler == "topk":
        # Zero weight leaves an episode no share of the draw, so this draws
        # from the kept episodes alone, by length.
        return weighted_sample(buffer, topk_mask(buffer.records), pool_size, rng)
    raise ValueError(f"unknown sampler {sampler!r}; choices: {SAMPLER_CHOICES}")
