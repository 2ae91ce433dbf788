"""Tests for hierarchical replay and high-return weighting."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl import replay
from mazehrl.replay import (
    FIELDS,
    SAMPLER_CHOICES,
    TASK_CELL_SIZE,
    TOPK_FRACTION,
    TrajectoryBuffer,
    Transition,
    compute_weights,
    expected_returns,
    hr_weights,
    normalize_returns,
    sample_pool,
    topk_mask,
    weight_entropy,
    weighted_sample,
)


def make_episode(rewards, start=(0.0, 0.0), drift=(0.1, 0.0)):
    """Synthetic episode whose positions walk from start by drift each step."""
    transitions = []
    pos = np.array(start, dtype=float)
    for t, r in enumerate(rewards):
        s = np.concatenate([pos, [0.0, 0.0]])
        pos = pos + np.asarray(drift)
        transitions.append(
            Transition(
                s=s,
                sg=np.zeros(2),
                a=np.zeros(2),
                r=float(r),
                s_next=np.concatenate([pos, [0.0, 0.0]]),
                sg_next=np.zeros(2),
                done=t == len(rewards) - 1,
                t=t,
            )
        )
    return transitions


def add_episode(buf, rewards, start=(0.0, 0.0), goal=(1.0, 1.0), drift=(0.1, 0.0)):
    return buf.store_episode(make_episode(rewards, start, drift), goal)


def naive_transition_weights(returns, expected, lengths, alpha):
    """Direct closed-form evaluation, no numerical stabilization."""
    e = np.exp((np.asarray(returns) - np.asarray(expected)) / alpha)
    return e / np.sum(np.asarray(lengths) * e)


class TestBuffer:
    def test_store_single_episode(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1, -1, -1])
        assert len(buf) == 3
        assert buf.records[0].length == 3

    def test_fifo_whole_trajectory_eviction(self):
        buf = TrajectoryBuffer(capacity=5)
        a = add_episode(buf, [-1, -1, -1])
        b = add_episode(buf, [-1, -1])
        c = add_episode(buf, [-1])
        assert [r.traj_id for r in buf.records] == [b, c]
        assert len(buf) == 3

    def test_failed_sparse_return(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1] * 5)
        assert buf.records[0].ret == -5.0

    def test_malformed_steps_rejected(self):
        buf = TrajectoryBuffer(200_000)
        eps = make_episode([-1, -1])
        eps[1].t = 5
        with pytest.raises(ValueError):
            buf.store_episode(eps, (0, 0))

    def test_step_index_is_required(self):
        step = make_episode([-1])[0]
        fields = {f: getattr(step, f) for f in ("s", "sg", "a", "r", "s_next", "sg_next", "done")}
        with pytest.raises(TypeError, match="'t'"):
            Transition(**fields)

    def test_early_done_rejected(self):
        buf = TrajectoryBuffer(200_000)
        eps = make_episode([-1, -1, -1])
        eps[0].done = True
        with pytest.raises(ValueError):
            buf.store_episode(eps, (0, 0))

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryBuffer(200_000).store_episode([], (0, 0))

    def test_sample_batch_shapes(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1] * 10)
        batch = buf.sample_batch(4, np.random.default_rng(0))
        assert tuple(batch) == FIELDS
        assert batch["s"].shape == (4, 4) and batch["a"].shape == (4, 2)

    def test_recent_states_window(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1] * 3, start=(0, 0))
        add_episode(buf, [-1] * 3, start=(9, 9))
        recent = buf.recent_states(4)
        assert recent.shape == (4, 4)
        np.testing.assert_allclose(recent[-1][:2], [9.2, 9.0])


def filled_buffer():
    buf = TrajectoryBuffer(200_000)
    add_episode(buf, [-1] * 5)
    add_episode(buf, [-1, 0], start=(3, 3))
    return buf


COUNT_CALLS = {
    "window": lambda buf, v: buf.recent_states(v),
    "n": lambda buf, v: buf.sample_batch(v, np.random.default_rng(0)),
    **{
        f"pool_size-{sampler}": lambda buf, v, s=sampler: sample_pool(buf, s, v, np.random.default_rng(0))
        for sampler in SAMPLER_CHOICES
    },
}


class TestCountArguments:
    """Replay counts follow the one integer-count rule: an integer, not a bool, at
    or above its least value (a window may be 0), else ``ValueError`` naming it."""

    @pytest.mark.parametrize("bad", [-3, 2.5, True, None, np.float64(2.0)])
    @pytest.mark.parametrize("call", COUNT_CALLS)
    def test_bad_count_rejected(self, call, bad):
        name = call.partition("-")[0]
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {int(name != 'window')}"):
            COUNT_CALLS[call](filled_buffer(), bad)

    @pytest.mark.parametrize("call", ["n", "pool_size-uniform"])
    def test_zero_draws_rejected(self, call):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            COUNT_CALLS[call](filled_buffer(), 0)

    def test_window_checked_on_an_empty_buffer_too(self):
        with pytest.raises(ValueError, match="^window must be"):
            TrajectoryBuffer(200_000).recent_states(-3)

    def test_numpy_integer_counts_accepted(self):
        buf = filled_buffer()
        assert buf.recent_states(np.int64(3)).shape == (3, 4)
        assert buf.recent_states(0).shape == (0, 4)
        assert buf.sample_batch(np.int32(3), np.random.default_rng(0))["s"].shape == (3, 4)
        assert sample_pool(buf, "hr", np.int64(4), np.random.default_rng(0)).shape == (4, 4)


def distinct_step(t, k, done):
    """Step t of episode k, with a different value in every field."""
    b = 10.0 * k + t
    return Transition(
        s=np.array([b, b + 0.5, 0.25, -0.25]),
        sg=np.array([b + 1, -1.5]),
        a=np.array([0.75, -0.125]),
        r=-1.0 - t,
        s_next=np.array([b + 1, b + 1.5, 0.5, 0.0]),
        sg_next=np.array([b, -2.5]),
        done=done,
        t=t,
    )


class TestRingStore:
    def test_rejected_episode_leaves_buffer_unchanged(self):
        buf = TrajectoryBuffer(capacity=5)
        for k, n in enumerate((3, 2, 2)):  # the third store wraps the ring end
            buf.store_episode([distinct_step(t, k, t == n - 1) for t in range(n)], (k, k))
        # the live ring rows of every column, and the whole episode table
        snapshot = lambda: (
            {f: buf._cols[f][buf._rows(np.arange(len(buf)))].tobytes() for f in FIELDS},
            buf.records.tobytes(),
        )
        before = snapshot()

        too_long = [distinct_step(t, 9, t == 5) for t in range(6)]
        gap = [distinct_step(0, 9, False), distinct_step(2, 9, True)]
        early_done = [distinct_step(0, 9, True), distinct_step(1, 9, True)]
        wide = [distinct_step(0, 9, True)]
        wide[0].s = np.zeros(5)
        ragged = [distinct_step(0, 9, False), distinct_step(1, 9, True)]
        ragged[1].a = np.zeros(3)
        for bad in ([], too_long, gap, early_done, wide, ragged):
            with pytest.raises(ValueError):
                buf.store_episode(bad, (0.0, 0.0))
            assert snapshot() == before
        assert add_episode(buf, [-1]) == 3

    @pytest.mark.parametrize("capacity", [2.5, float("nan"), True, "5", 0])
    def test_capacity_must_be_an_integer_count(self, capacity):
        """2.5, NaN and True were accepted, and the first store_episode then
        raised TypeError."""
        with pytest.raises(ValueError, match="capacity must be an integer >= 1"):
            TrajectoryBuffer(capacity)

    def test_episode_longer_than_capacity_rejected_when_empty(self):
        buf = TrajectoryBuffer(capacity=2)
        with pytest.raises(ValueError):
            add_episode(buf, [-1, -1, -1])
        assert len(buf) == 0 and len(buf.records) == 0
        add_episode(buf, [-1, -1])
        assert len(buf) == 2


def relabel_step(t, k, done):
    """Step t of episode k: integer positions 100 k + t (x) and k (y), and a stored
    ``sg`` and ``sg_next`` that no relabelling writes."""
    return Transition(
        s=np.array([100.0 * k + t, k, 0.25, -0.25]),
        sg=np.array([0.5, 0.25]),
        a=np.zeros(2),
        r=-7.0,
        s_next=np.array([100.0 * k + t + 1, k, 0.5, 0.0]),
        sg_next=np.array([0.75, 0.125]),
        done=done,
        t=t,
    )


def relabelled_buffer(lengths, capacity):
    buf = TrajectoryBuffer(capacity)
    for k, n in enumerate(lengths):
        buf.store_episode([relabel_step(t, k, t == n - 1) for t in range(n)], (0.0, 0.0))
    return buf


def relabelled_rows(batch, lengths):
    """(episode, step, goal step) of each relabelled row, after checking every row
    against the oracle: a row is as stored, or its goal is the ``s_next`` position of
    a step k >= t of its own episode, with ``sg_next`` rewritten from it."""
    assert tuple(batch) == FIELDS
    out = []
    for s, sg, a, s_next, sg_next in zip(*(batch[f] for f in ("s", "sg", "a", "s_next", "sg_next"))):
        k, t = int(s[1]), int(s[0]) - 100 * int(s[1])
        stored = relabel_step(t, k, False)
        assert np.array_equal(s, stored.s) and np.array_equal(a, stored.a)
        assert np.array_equal(s_next, stored.s_next)
        if np.array_equal(sg, stored.sg):
            assert np.array_equal(sg_next, stored.sg_next)
            continue
        goal = s[:2] + sg  # integers, so exact
        step = int(goal[0]) - 100 * k - 1
        assert goal[1] == k and t <= step < lengths[k]
        assert np.array_equal(goal, relabel_step(step, k, False).s_next[:2])
        assert np.array_equal(sg_next, goal - s_next[:2])
        out.append((k, t, step))
    return out


class TestSampleRelabelled:
    def test_goals_across_the_ring_end(self):
        """The third episode occupies ring rows 8, 9, 0, 1; every pair t <= k of it is drawn."""
        lengths = [4, 4, 4]
        buf = relabelled_buffer(lengths, 10)
        assert buf.records.length.tolist() == [4, 4]
        assert buf._rows(np.arange(8)).tolist() == [4, 5, 6, 7, 8, 9, 0, 1]
        before = {f: col.copy() for f, col in buf._cols.items()}
        rows = relabelled_rows(buf.sample_relabelled(400, np.random.default_rng(0)), lengths)
        assert 0.75 * 400 < len(rows) < 0.85 * 400  # HER_P = 0.8
        pairs = {(t, step) for k, t, step in rows if k == 2}
        assert pairs == {(t, step) for step in range(4) for t in range(step + 1)}
        assert all(np.array_equal(buf._cols[f], before[f]) for f in FIELDS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.integers(6, 12),
           st.integers(0, 2**32 - 1))
    def test_every_row_is_stored_or_relabelled_within_its_episode(self, lengths, capacity, seed):
        buf = relabelled_buffer(lengths, capacity)
        relabelled_rows(buf.sample_relabelled(64, np.random.default_rng(seed)), lengths)

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError, match="empty buffer"):
            TrajectoryBuffer(4).sample_relabelled(3, np.random.default_rng(0))


class TestEpisodeTable:
    GOALS = [(0.3 * k, -0.2 * k) for k in range(8)]

    def _wrapped_buffer(self):
        """Capacity 7: the stores evict, and later episodes wrap the ring end."""
        buf = TrajectoryBuffer(capacity=7)
        for k, n in enumerate((3, 2, 4, 1, 3, 2, 4, 3)):
            buf.store_episode([distinct_step(t, k, t == n - 1) for t in range(n)], self.GOALS[k])
        assert isinstance(buf.records, np.recarray)
        assert buf.records.traj_id[0] > 0
        firsts = np.cumsum(buf.records.length) - buf.records.length
        assert np.any(buf._rows(firsts) + buf.records.length > buf.capacity)
        return buf

    def test_weights_sum_to_one_row_by_row(self):
        buf = self._wrapped_buffer()
        compute_weights(buf, alpha=0.3)
        assert abs(float(sum(rec.length * rec.weight for rec in buf.records)) - 1.0) < 1e-9

    def test_columns_agree_with_rows(self):
        buf = self._wrapped_buffer()
        compute_weights(buf, alpha=0.3)
        for name in buf.records.dtype.names:
            rows = np.array([getattr(rec, name) for rec in buf.records])
            np.testing.assert_array_equal(rows, getattr(buf.records, name))
        first = 0
        for rec in buf.records:  # episodes lie end to end in flat order
            k, n = int(rec.traj_id), int(rec.length)
            rows = buf._rows(np.arange(first, first + n))
            first += n
            for f in FIELDS:
                want = [getattr(distinct_step(t, k, t == n - 1), f) for t in range(n)]
                np.testing.assert_array_equal(buf._cols[f][rows], want)
            assert rec.ret == -sum(1.0 + t for t in range(rec.length))
            np.testing.assert_array_equal(rec.start, distinct_step(0, k, False).s)
            np.testing.assert_array_equal(rec.goal, self.GOALS[k])

    def test_rejected_store_leaves_table_unchanged(self):
        buf = self._wrapped_buffer()
        compute_weights(buf, alpha=0.3)
        before = (len(buf), buf.recent_states(7).tobytes(), buf.records.tobytes())
        too_long = [distinct_step(t, 9, t == 7) for t in range(8)]
        early_done = [distinct_step(0, 9, True), distinct_step(1, 9, True)]
        for bad, goal in ((too_long, (0.0, 0.0)), (early_done, (0.0, 0.0)),
                          ([distinct_step(0, 9, True)], (0.0, 0.0, 0.0))):
            with pytest.raises(ValueError):
                buf.store_episode(bad, goal)
            assert (len(buf), buf.recent_states(7).tobytes(), buf.records.tobytes()) == before

    def test_nonfinite_episode_rejected(self):
        """A NaN return would make every weight NaN and every hr draw fail."""
        buf = self._wrapped_buffer()
        compute_weights(buf, alpha=0.3)
        before = (len(buf), buf.recent_states(7).tobytes(), buf.records.tobytes())
        nan_reward = [distinct_step(0, 9, False), distinct_step(1, 9, True)]
        nan_reward[1].r = np.nan
        inf_state = [distinct_step(0, 9, True)]
        inf_state[0].s_next = np.array([np.inf, 0.0, 0.0, 0.0])
        for bad, goal in ((nan_reward, (0.0, 0.0)), (inf_state, (0.0, 0.0)),
                          ([distinct_step(0, 9, True)], (0.0, -np.inf))):
            with pytest.raises(ValueError, match="non-finite"):
                buf.store_episode(bad, goal)
            assert (len(buf), buf.recent_states(7).tobytes(), buf.records.tobytes()) == before
        assert np.isfinite(sample_pool(buf, "hr", 5, np.random.default_rng(0), alpha=0.3)).all()
        empty = TrajectoryBuffer(capacity=7)
        with pytest.raises(ValueError, match="non-finite"):
            empty.store_episode(nan_reward, (0.0, 0.0))
        assert len(empty) == 0 and empty._cols is None


def shape_case(case):
    """A two-step episode and goal with the one shape fault ``case`` names."""
    steps, goal = [distinct_step(t, 9, t == 1) for t in range(2)], (0.0, 0.0)
    for step in steps:
        if case == "empty goal":
            step.sg = step.sg_next = np.zeros(0)
        elif case == "wide sg":
            step.sg = np.zeros(6)
        elif case == "wide goal":
            step.sg = step.sg_next = np.zeros(6)
        elif case == "sg_next":
            step.sg_next = np.zeros(3)
        elif case == "s_next":
            step.s_next = np.zeros(3)
        elif case == "matrix state":
            step.s = step.s_next = np.zeros((2, 2))
    goal = {"scalar goal": 1.0, "matrix goal": ((0.0, 0.0), (1.0, 1.0)), "empty goal": (),
            "wide goal": np.zeros(6)}.get(case, goal)
    return steps, goal


SHAPE_CASES = ["scalar goal", "matrix goal", "empty goal", "wide sg", "wide goal", "sg_next", "s_next",
               "matrix state"]


class TestGoalShape:
    """A goal and every ``sg`` and ``sg_next`` row share one shape (k,), 1 <= k <= the
    width of the 1-D ``s`` and ``s_next`` rows. A scalar or (2, 2) goal stored fine, and
    the first hr draw then raised inside ``normalize_returns``; a 6-wide ``sg`` with
    4-wide states stored fine, and ``sample_relabelled`` then raised a broadcast error."""

    @pytest.mark.parametrize("case", SHAPE_CASES)
    def test_rejected_on_an_empty_buffer(self, case):
        buf = TrajectoryBuffer(capacity=7)
        with pytest.raises(ValueError):
            buf.store_episode(*shape_case(case))
        assert buf._cols is None and len(buf) == 0 and len(buf.records) == 0
        buf.store_episode(*shape_case("none"))
        assert len(buf) == 2

    @pytest.mark.parametrize("case", SHAPE_CASES)
    def test_rejected_on_a_stored_buffer(self, case):
        buf = TrajectoryBuffer(capacity=7)
        buf.store_episode(*shape_case("none"))
        before = ({f: col.tobytes() for f, col in buf._cols.items()}, buf.records.tobytes())
        with pytest.raises(ValueError):
            buf.store_episode(*shape_case(case))
        assert ({f: col.tobytes() for f, col in buf._cols.items()}, buf.records.tobytes()) == before

    @pytest.mark.parametrize("k", [1, 4])
    def test_every_width_up_to_the_state_is_a_position(self, k):
        buf = TrajectoryBuffer(capacity=7)
        for j in range(3):
            steps = [distinct_step(t, j, t == 1) for t in range(2)]
            for step in steps:
                step.sg, step.sg_next = np.full(k, 0.5), np.full(k, 0.25)
            buf.store_episode(steps, np.full(k, float(j)))
        assert sample_pool(buf, "hr", 5, np.random.default_rng(0)).shape == (5, 4)
        assert buf.sample_relabelled(5, np.random.default_rng(0))["sg"].shape == (5, k)


def episodic_return(rewards):
    """The return a stored episode's record carries."""
    buf = TrajectoryBuffer(200_000)
    add_episode(buf, rewards)
    return buf.records[0].ret


class TestEpisodicReturn:
    def test_sparse_success_at_step_ten(self):
        assert episodic_return([-1.0] * 9 + [0.0]) == -9.0

    def test_all_zero(self):
        assert episodic_return([0.0, 0.0, 0.0]) == 0.0

    def test_dense_scripted_sum(self):
        rewards = [-3.5, -2.25, -1.0, 199.5]
        assert episodic_return(rewards) == pytest.approx(sum(rewards))


class TestNormalizeReturns:
    def _records(self, buf, returns):
        for r in returns:
            add_episode(buf, [r])  # single-step episodes share the same task cell
        return buf.records

    def test_group_spread(self):
        buf = TrajectoryBuffer(200_000)
        records = self._records(buf, [-10.0, -5.0, 0.0])
        out = normalize_returns(records)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_singleton_group(self):
        buf = TrajectoryBuffer(200_000)
        records = self._records(buf, [-7.0])
        np.testing.assert_allclose(normalize_returns(records), [0.5])

    def test_equal_returns(self):
        buf = TrajectoryBuffer(200_000)
        records = self._records(buf, [-3.0, -3.0])
        np.testing.assert_allclose(normalize_returns(records), [0.5, 0.5])

    def test_groups_are_separate(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-10.0], goal=(1, 1))
        add_episode(buf, [0.0], goal=(1, 1))
        add_episode(buf, [-100.0], goal=(50, 50))
        out = normalize_returns(buf.records)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.5])

    def test_signed_zeros_share_a_cell(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-10.0], start=(-0.0, 0.0), goal=(0.0, -0.0))
        add_episode(buf, [0.0], start=(0.0, -0.0), goal=(-0.0, 0.0))
        np.testing.assert_array_equal(normalize_returns(buf.records), [0.0, 1.0])

    def test_empty(self):
        assert normalize_returns(TrajectoryBuffer(200_000).records).shape == (0,)

    def test_records_left_untouched(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-10.0])
        add_episode(buf, [0.0], start=(0.1, 0.0))
        before = buf.records.tobytes()
        normalize_returns(buf.records)
        assert buf.records.tobytes() == before


def reference_normalize_returns(records, cell_size):
    """Dict of quantized (start cell, goal cell) tuples, one group at a time.

    A non-finite coordinate is its own cell value: an infinity matches
    itself, and a NaN (a new float object each time) matches nothing.
    """
    q = lambda v: tuple(math.floor(y) if math.isfinite(y) else y
                        for y in np.asarray(v, dtype=float) / cell_size)
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault((q(rec.start[: len(rec.goal)]), q(rec.goal)), []).append(i)
    out = np.empty(len(records))
    for idx in groups.values():
        rets = np.array([records[i].ret for i in idx])
        lo, hi = rets.min(), rets.max()
        out[idx] = 0.5 if hi - lo <= 0 else (rets - lo) / (hi - lo)
    return out


# cell boundaries (multiples of 0.75), both sides of them, negatives, signed zeros
# and non-finite values
CELL_COORDS = st.sampled_from(
    [-1.5, -0.75, -0.7499999999999999, -1e-300, -0.0, 0.0, 0.3, 0.75, 0.7500000000000001, 1.5, 2.25, 40.0,
     np.nan, np.inf, -np.inf]
)


@st.composite
def task_records(draw):
    n = draw(st.integers(1, 30))
    starts, goals, rets = [], [], []
    for _ in range(n):
        starts.append(draw(st.tuples(CELL_COORDS, CELL_COORDS, st.floats(-1, 1), st.floats(-1, 1))))
        goals.append(draw(st.tuples(CELL_COORDS, CELL_COORDS)))
        rets.append(draw(st.sampled_from([-50.0, -10.0, -7.25, -3.0, 0.0]) | st.floats(-100, 0)))
    ids = np.arange(n)
    return np.rec.fromarrays(
        [ids, np.ones(n, dtype=int), np.array(rets), np.zeros(n), np.array(starts), np.array(goals)],
        dtype=[("traj_id", int), ("length", int), ("ret", float), ("weight", float),
               ("start", float, 4), ("goal", float, 2)],
    )


class TestNormalizeMatchesDictReference:
    @settings(max_examples=300, deadline=None)
    @given(task_records())
    def test_bit_identical(self, records):
        assert TASK_CELL_SIZE == 0.75  # the cell boundaries CELL_COORDS straddles
        ref = reference_normalize_returns(records, TASK_CELL_SIZE)
        assert normalize_returns(records).tobytes() == ref.tobytes()


class TestReturnRegressor:
    """``expected_returns``: the in-sample expected-return fit."""

    def test_constant_returns(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        np.testing.assert_allclose(expected_returns(X, np.full(30, 2.5)), 2.5)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        y = 3.0 * X[:, 2] - 1.5
        np.testing.assert_allclose(expected_returns(X, y), y, atol=1e-8)

    def test_single_sample_fallback(self):
        np.testing.assert_allclose(expected_returns([[1.0, 2.0]], [4.0]), [4.0])

    def test_below_min_samples_uses_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        y = X[:, 0] * 2
        np.testing.assert_allclose(expected_returns(X, y), y.mean())

    def test_duplicate_rows_fallback(self):
        X = np.ones((25, 3))
        y = np.linspace(0, 1, 25)
        np.testing.assert_allclose(expected_returns(X, y), y.mean())

    def test_top6_feature_selection(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 8))
        y = 5.0 * X[:, 7] + 0.01 * rng.normal(size=60)
        # feature 7 is fitted: the residual is the noise alone
        assert np.max(np.abs(expected_returns(X, y) - y)) < 0.05
        # every one of the eight varying features is fitted: the fit is exact
        y = X @ np.arange(1.0, 9.0) - 2.0
        np.testing.assert_allclose(expected_returns(X, y), y, rtol=0, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(20, 60), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_column_order_invariance(self, n, d, seed):
        """The fit is the projection of ``y`` onto the varying columns and an
        intercept, so permuting the columns moves no fitted value beyond
        rounding. Constant and repeated columns are mixed in; the varying
        columns share one scale, so the design stays well conditioned."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        X[:, rng.random(d) < 0.2] = 0.1  # a constant column (its std may round above 0)
        X = np.hstack([X, X[:, :1]])
        y = rng.normal(size=n)
        perm = rng.permutation(X.shape[1])
        want = expected_returns(X, y)
        # relative to the fit's scale: a fitted value near zero has no relative precision
        tol = 1e-12 * np.abs(want).max()
        np.testing.assert_allclose(expected_returns(X[:, perm], y), want, rtol=1e-12, atol=tol)

    def test_rank_deficient_min_norm_path(self):
        """A collinear design is fitted like its de-duplicated columns: the
        minimum-norm solution spans the same projection of ``y``."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = rng.normal(size=(30, 2))
            X = np.hstack([base, base, base])  # perfectly collinear, six features
            y = base @ rng.normal(size=2) + rng.normal(size=30)
            want = expected_returns(base, y)
            # relative to the fit's scale: a fitted value near zero has no relative precision
            tol = 1e-12 * np.abs(want).max()
            np.testing.assert_allclose(expected_returns(X, y), want, rtol=1e-12, atol=tol)


class TestHrWeights:
    def test_uniform_limit_equal_returns(self):
        w = hr_weights([0.0, 0.0], [3, 7], alpha=1.0)
        np.testing.assert_allclose(w, [0.1, 0.1])

    def test_two_trajectory_direct_value(self):
        w = hr_weights([0.0, -1.0], [1, 1], alpha=1.0)
        denom = 1.0 + np.exp(-1.0)
        np.testing.assert_allclose(w, [1.0 / denom, np.exp(-1.0) / denom], atol=1e-12)

    def test_entropy_grows_with_alpha(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=12)
        T = rng.integers(1, 9, size=12)
        h_small = weight_entropy(hr_weights(A, T, 0.01), T)
        h_big = weight_entropy(hr_weights(A, T, 10.0), T)
        assert h_big > h_small

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            hr_weights([0.0], [1], alpha=alpha)

    @pytest.mark.parametrize(
        "returns, lengths",
        [([0.0, 0.0], [0, 0]), ([0.0, 10.0], [-1, 1]), ([math.nan, 0.0], [1, 1])],
        ids=["zero-lengths", "negative-length", "nan-return"],
    )
    def test_bad_lengths_or_returns_rejected(self, returns, lengths):
        """Zero lengths divide by zero, a negative one gives a weight of 1.00005, and a NaN
        return makes every weight NaN."""
        with pytest.raises(ValueError, match="^lengths must be positive and finite, and corrected"):
            hr_weights(returns, lengths, alpha=1.0)

    def test_normalization_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            A = rng.normal(scale=rng.uniform(0.1, 50), size=n)
            T = rng.integers(1, 30, size=n)
            w = hr_weights(A, T, alpha=float(rng.uniform(0.01, 10)))
            assert abs(np.dot(T, w) - 1.0) < 1e-9

    def test_matches_naive_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 11))
            R = rng.normal(scale=3.0, size=n)
            Abar = rng.normal(scale=3.0, size=n)
            T = rng.integers(1, 20, size=n)
            alpha = float(rng.uniform(0.5, 5.0))
            ours = hr_weights(R - Abar, T, alpha)
            naive = naive_transition_weights(R, Abar, T, alpha)
            np.testing.assert_allclose(ours, naive, rtol=0, atol=1e-12)

    def test_monotone_in_corrected_return(self):
        rng = np.random.default_rng(3)
        for alpha in (0.05, 0.5, 5.0):
            A = rng.normal(size=8)
            w = hr_weights(A, np.ones(8), alpha)
            order = np.argsort(A)
            assert np.all(np.diff(w[order]) > 0)

    def test_kl_to_uniform_decreases_with_alpha(self):
        rng = np.random.default_rng(4)
        A = rng.normal(scale=2.0, size=10)
        T = rng.integers(1, 6, size=10)
        n = float(T.sum())

        def kl(alpha):
            w = hr_weights(A, T, alpha)
            p = np.repeat(w, T.astype(int))
            return float(np.sum(p * np.log(p * n)))

        kls = [kl(a) for a in (0.01, 1.0, 100.0)]
        assert kls[0] > kls[1] > kls[2]

    @settings(max_examples=300, deadline=None)
    @given(
        episodes=st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(1, 1000)), min_size=1, max_size=30),
        shift=st.floats(-1e6, 1e6),
        alpha=st.floats(1e-2, 1e2),
    )
    def test_sum_and_shift_invariance_for_any_returns(self, episodes, shift, alpha):
        A, T = (np.array(c) for c in zip(*episodes))
        w = hr_weights(A, T, alpha)
        assert np.all(w >= 0) and abs(np.dot(T, w) - 1.0) < 1e-9
        # A + shift rounds each return by half an ulp of the larger magnitude, which
        # moves every exponent by up to ~eps * M / alpha; the weights carry that
        # relative error (and underflowing ones an absolute one)
        M = np.max(np.abs(A)) + abs(shift)
        eps = np.finfo(np.float64).eps
        rtol = 8 * eps * (M / alpha + 1000.0)
        np.testing.assert_allclose(hr_weights(A + shift, T, alpha), w, rtol=rtol, atol=1e-300)

    def test_stability_under_huge_returns(self):
        w = hr_weights([1e6, 1e6 - 1.0], [1, 1], alpha=1.0)
        assert np.all(np.isfinite(w))
        denom = 1.0 + np.exp(-1.0)
        np.testing.assert_allclose(w, [1.0 / denom, np.exp(-1.0) / denom], atol=1e-12)


class TestComputeWeights:
    def _mixed_buffer(self, shift=0.0, n_episodes=8):
        buf = TrajectoryBuffer(200_000)
        rng = np.random.default_rng(7)
        for i in range(n_episodes):
            n = int(rng.integers(2, 7))
            rewards = rng.normal(size=n)
            rewards[0] += shift  # constant shift of the episodic return
            add_episode(buf, rewards, start=(i * 0.01, 0.0), goal=(3.0, 3.0))
        return buf

    def test_transition_normalization(self):
        buf = self._mixed_buffer()
        w = compute_weights(buf, alpha=0.3)
        T = np.array([rec.length for rec in buf.records])
        assert abs(np.dot(T, w) - 1.0) < 1e-9

    def test_debias_invariance_constant_shift(self):
        a = compute_weights(self._mixed_buffer(0.0), alpha=0.3)
        b = compute_weights(self._mixed_buffer(100.0), alpha=0.3)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def _raw_debias(self, shift, n_episodes, atol):
        """Raw (unnormalized) returns shifted by a constant: the expected-return
        fit moves by the shift, and the debiased Boltzmann weights stay put."""
        records = self._mixed_buffer(0.0, n_episodes).records
        X = np.stack([np.concatenate([rec.start, rec.goal]) for rec in records])
        y = np.array([rec.ret for rec in records])
        T = [rec.length for rec in records]
        fit, fit_shifted = expected_returns(X, y), expected_returns(X, y + shift)
        np.testing.assert_allclose(fit_shifted, fit + shift, atol=atol)
        np.testing.assert_allclose(
            hr_weights(y + shift - fit_shifted, T, 0.3), hr_weights(y - fit, T, 0.3), atol=atol
        )

    def test_debias_invariance_without_normalization(self):
        # mean fallback absorbs the shift below FIT_MIN_SAMPLES
        self._raw_debias(100.0, 8, atol=1e-10)

    def test_debias_invariance_linear_regressor_path(self):
        # with >= FIT_MIN_SAMPLES episodes the regression intercept absorbs the shift
        self._raw_debias(50.0, 30, atol=1e-9)

    def test_records_updated_in_place(self):
        buf = self._mixed_buffer()
        compute_weights(buf, alpha=0.3)
        for rec in buf.records:
            assert rec.weight > 0

    def test_rejected_alpha_leaves_weights_unchanged(self):
        buf = self._mixed_buffer()
        compute_weights(buf, alpha=0.3)
        weights = buf.records.weight.copy()
        for call in (lambda: compute_weights(buf, math.nan),
                     lambda: sample_pool(buf, "hr", 3, np.random.default_rng(0), alpha=math.nan)):
            with pytest.raises(ValueError, match="alpha must be positive"):
                call()
            assert buf.records.weight.tobytes() == weights.tobytes()
            assert buf._weighted == 0.3


def one_step_buffer(k):
    """k one-step episodes; episode i's only state sits at x = i."""
    buf = TrajectoryBuffer(200_000)
    for i in range(k):
        add_episode(buf, [0.0], start=(float(i), 0.0))
    return buf


def sampled_episodes(buf, weights, n, seed):
    """Episode index of each of n weighted_sample draws from a one_step_buffer."""
    return weighted_sample(buf, weights, n, np.random.default_rng(seed))[:, 0].astype(int)


class TestSamplers:
    def test_weighted_sample_dirac(self):
        idx = sampled_episodes(one_step_buffer(3), [0.0, 1.0, 0.0], 20, 0)
        assert np.all(idx == 1)

    def test_weighted_sample_all_zero_rejected(self):
        with pytest.raises(ValueError):
            weighted_sample(one_step_buffer(2), [0.0, 0.0], 3, np.random.default_rng(0))

    def test_uniform_frequencies_within_3_sigma(self):
        n, k = 100_000, 8
        idx = sampled_episodes(one_step_buffer(k), np.ones(k), n, 1)
        counts = np.bincount(idx, minlength=k)
        p = 1.0 / k
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_nine_to_one_ratio_within_3_sigma(self):
        n = 100_000
        idx = sampled_episodes(one_step_buffer(2), [0.9, 0.1], n, 2)
        ones = np.sum(idx == 1)
        sigma = np.sqrt(n * 0.1 * 0.9)
        assert abs(ones - n * 0.1) <= 3 * sigma

    def test_weighted_sample_respects_trajectory_mass(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1] * 5, start=(0, 0))
        add_episode(buf, [-1] * 5, start=(100, 100))
        # measure zero on trajectory 0
        states = weighted_sample(buf, [0.0, 0.2], 50, np.random.default_rng(0))
        assert np.all(states[:, 0] >= 100.0)

    def test_topk_keeps_ceil_fraction_of_records(self):
        buf = TrajectoryBuffer(200_000)
        for n in range(1, 26):
            add_episode(buf, [-float(n % 7)])
            assert np.count_nonzero(topk_mask(buf.records)) == math.ceil(TOPK_FRACTION * n)

    def test_topk_selects_highest(self):
        buf = TrajectoryBuffer(200_000)
        for r in (3.0, 5.0, 1.0):
            add_episode(buf, [r])
        assert topk_mask(buf.records).tolist() == [False, True, False]

    def test_topk_tie_prefers_newer(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [2.0])
        add_episode(buf, [2.0])
        assert topk_mask(buf.records).tolist() == [False, True]

    def test_pool_single_transition_buffer(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1], start=(4, 2))
        pool = sample_pool(buf, "uniform", 6, np.random.default_rng(0))
        assert pool.shape == (6, 4)
        assert np.all(pool[:, 0] == 4.0)

    # The hr pool tests keep every episode in one task cell (starts and goals
    # within one TASK_CELL_SIZE square), so their returns differ after
    # normalization.

    def test_pool_hr_dirac(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [100.0], start=(0.5, 0.0))
        for i in range(4):
            add_episode(buf, [0.0], start=(0.0, 0.1 * i))
        pool = sample_pool(buf, "hr", 40, np.random.default_rng(0), alpha=1e-3)
        assert np.all(pool[:, 0] == 0.5)

    def test_pool_histogram_matches_weights(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [0.0] * 2, start=(0.0, 0.0))
        add_episode(buf, [2.0] * 2, start=(0.3, 0.0))
        w = compute_weights(buf, alpha=1.0)
        assert w[1] > w[0]
        n = 20_000
        pool = sample_pool(buf, "hr", n, np.random.default_rng(3), alpha=1.0)
        frac_high = np.mean(pool[:, 0] >= 0.25)
        p = 2 * w[1]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(frac_high - p) <= 3 * sigma

    def test_unknown_sampler_rejected(self):
        buf = TrajectoryBuffer(200_000)
        add_episode(buf, [-1])
        with pytest.raises(ValueError):
            sample_pool(buf, "nope", 4, np.random.default_rng(0))

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            sample_pool(TrajectoryBuffer(200_000), "uniform", 4, np.random.default_rng(0))


class TestWeightReuse:
    """``sample_pool("hr")`` reuses the weight column until the table or alpha changes."""

    def test_compute_weights_once_per_table_version(self, monkeypatch):
        calls = []
        real = replay.compute_weights
        monkeypatch.setattr(replay, "compute_weights", lambda buf, alpha: calls.append(alpha) or real(buf, alpha))
        buf = one_step_buffer(4)
        rng = np.random.default_rng(0)
        draw = lambda alpha=0.1: sample_pool(buf, "hr", 3, rng, alpha=alpha)
        for _ in range(5):
            draw()
        sample_pool(buf, "uniform", 3, rng)
        sample_pool(buf, "topk", 3, rng)
        assert calls == [0.1]
        add_episode(buf, [1.0])
        draw()
        draw()
        assert calls == [0.1, 0.1]
        draw(0.5)
        draw(0.5)
        draw(0.1)
        assert calls == [0.1, 0.1, 0.5, 0.1]
        with pytest.raises(ValueError):  # a rejected store leaves the table version alone
            add_episode(buf, [1.0], goal=(1.0, 1.0, 1.0))
        draw()
        assert calls == [0.1, 0.1, 0.5, 0.1]

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.just("store"), st.integers(1, 6))
            | st.tuples(st.sampled_from(["draw", "weigh"]), st.sampled_from([0.1, 0.5, 2.0]))
            | st.tuples(st.just("other"), st.sampled_from(["uniform", "topk"])),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_equal_freshly_weighted_draws(self, ops, seed):
        """Stores (with eviction), hr draws, other draws and direct weightings at
        changing alphas; ``ref`` weights afresh before each of its draws. The
        episodes share two tasks, so their weights differ and depend on alpha."""
        rng = np.random.default_rng(seed)
        buf, ref = TrajectoryBuffer(capacity=30), TrajectoryBuffer(capacity=30)
        for op, arg in ops:
            if op == "store":
                start = (rng.uniform(0.0, 0.7), rng.uniform(0.0, 0.7))
                episode = make_episode(rng.normal(size=arg), start, drift=(0.0, 0.0))
                goal = ((1.0, 1.0), (2.0, 2.0))[int(rng.integers(2))]
                assert buf.store_episode(episode, goal) == ref.store_episode(episode, goal)
            elif len(buf) == 0:
                continue
            elif op == "weigh":
                compute_weights(buf, arg)
            elif op == "other":
                sample_pool(buf, arg, 4, rng)
            else:
                draw_seed = int(rng.integers(2**32))
                ours = sample_pool(buf, "hr", 8, np.random.default_rng(draw_seed), alpha=arg)
                want = weighted_sample(ref, compute_weights(ref, arg), 8, np.random.default_rng(draw_seed))
                assert ours.tobytes() == want.tobytes()
                assert buf.records.tobytes() == ref.records.tobytes()


class ListModel:
    """Reference semantics of the buffer: one array per field per episode,
    its rewards among them, one object per episode record, FIFO whole-episode
    eviction, cumsum/searchsorted row location, weights from list-comprehension
    gathers, and one scalar step draw per sampled state."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.episodes = []
        self.records = []
        self.next_id = 0

    def __len__(self):
        return sum(len(ep["r"]) for ep in self.episodes)

    def store_episode(self, transitions, goal):
        ep = {f: np.stack([np.asarray(getattr(tr, f), dtype=np.float64) for tr in transitions])
              for f in (*FIELDS, "r")}
        traj_id = self.next_id
        self.next_id += 1
        self.episodes.append(ep)
        self.records.append(
            SimpleNamespace(traj_id=traj_id, length=len(ep["r"]), ret=float(np.sum(ep["r"])),
                            start=ep["s"][0].copy(), goal=np.asarray(goal, dtype=np.float64))
        )
        while len(self) > self.capacity and len(self.episodes) > 1:
            self.episodes.pop(0)
            self.records.pop(0)
        return traj_id

    def locate(self, flat):
        cum = np.cumsum([len(ep["r"]) for ep in self.episodes])
        ti = int(np.searchsorted(cum, flat, side="right"))
        return ti, flat - (0 if ti == 0 else int(cum[ti - 1]))

    def rows(self, flat_indices, field):
        return np.array([self.episodes[ti][field][si] for ti, si in map(self.locate, flat_indices)])

    def sample_batch(self, n, rng):
        idx = [int(i) for i in rng.integers(0, len(self), size=n)]
        return {f: self.rows(idx, f) for f in FIELDS}

    def recent_states(self, window):
        states = np.concatenate([ep["s"] for ep in self.episodes])
        return states[len(states) - min(window, len(states)):]

    def _draw(self, episodes, mass, n, rng):
        """One rng.choice of n episodes by mass, then one scalar step draw per state."""
        mass = np.asarray(mass, dtype=np.float64)
        ti = rng.choice(len(mass), size=n, p=mass / mass.sum())
        return np.array([episodes[t]["s"][int(rng.integers(0, len(episodes[t]["r"])))] for t in ti])

    def sample_pool(self, sampler, n, rng):
        if sampler == "uniform":
            return self.rows([int(i) for i in rng.integers(0, len(self), size=n)], "s")
        if sampler == "hr":
            lengths = np.array([rec.length for rec in self.records])
            norm = reference_normalize_returns(self.records, TASK_CELL_SIZE)
            feats = np.stack([np.concatenate([rec.start, rec.goal]) for rec in self.records])
            weights = hr_weights(norm - expected_returns(feats, norm), lengths, 0.1)
            return self._draw(self.episodes, lengths * weights, n, rng)
        assert sampler == "topk"
        ranked = sorted(self.records, key=lambda rec: (-rec.ret, -rec.traj_id))
        ids = {rec.traj_id for rec in ranked[: math.ceil(TOPK_FRACTION * len(ranked))]}
        eps = [ep for ep, rec in zip(self.episodes, self.records) if rec.traj_id in ids]
        return self._draw(eps, [len(ep["r"]) for ep in eps], n, rng)


def random_episode(rng, length):
    pos = rng.uniform(0, 3, size=2)
    return [
        Transition(
            s=np.concatenate([pos + 0.1 * t, rng.normal(size=2)]),
            sg=rng.normal(size=2),
            a=rng.uniform(-1, 1, size=2),
            r=float(rng.choice([-1.0, 0.0, rng.normal()])),
            s_next=rng.normal(size=4),
            sg_next=rng.normal(size=2),
            done=t == length - 1,
            t=t,
        )
        for t in range(length)
    ]


class TestRingMatchesListModel:
    @settings(max_examples=60, deadline=None)
    @given(
        capacity=st.integers(1, 24),
        lengths=st.lists(st.integers(1, 24), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_contents_and_draws(self, capacity, lengths, seed):
        rng = np.random.default_rng(seed)
        buf, model = TrajectoryBuffer(capacity), ListModel(capacity)
        for length in lengths:
            episode, goal = random_episode(rng, min(length, capacity)), rng.uniform(0, 3, size=2)
            assert buf.store_episode(episode, goal) == model.store_episode(episode, goal)
            assert len(buf) == len(model) and buf.n_trajectories == len(model.records)
            assert [(r.traj_id, r.length, r.ret, r.start.tolist()) for r in buf.records] == [
                (r.traj_id, r.length, r.ret, r.start.tolist()) for r in model.records
            ]
            for window in (1, len(buf) // 2, len(buf), len(buf) + 3):
                np.testing.assert_array_equal(buf.recent_states(window), model.recent_states(window))
            batch_seed = int(rng.integers(2**32))
            ours = buf.sample_batch(5, np.random.default_rng(batch_seed))
            ref = model.sample_batch(5, np.random.default_rng(batch_seed))
            assert tuple(ours) == tuple(ref) == FIELDS
            for f in FIELDS:
                np.testing.assert_array_equal(ours[f], ref[f])
        for sampler in SAMPLER_CHOICES:
            pool_seed = int(rng.integers(2**32))
            ours = sample_pool(buf, sampler, 16, np.random.default_rng(pool_seed))
            ref = model.sample_pool(sampler, 16, np.random.default_rng(pool_seed))
            np.testing.assert_array_equal(ours, ref)
