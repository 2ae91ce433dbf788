"""Tests for hierarchical replay and high-return weighting."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl.replay import (
    FIELDS,
    SAMPLER_CHOICES,
    ReturnRegressor,
    TrajectoryBuffer,
    TrajectoryRecord,
    Transition,
    compute_weights,
    episodic_return,
    hr_weights,
    normalize_returns,
    sample_pool,
    topk_filter,
    weight_entropy,
    weighted_indices,
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
        buf = TrajectoryBuffer()
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
        buf = TrajectoryBuffer()
        add_episode(buf, [-1] * 5)
        assert buf.records[0].ret == -5.0

    def test_malformed_steps_rejected(self):
        buf = TrajectoryBuffer()
        eps = make_episode([-1, -1])
        eps[1].t = 5
        with pytest.raises(ValueError):
            buf.store_episode(eps, (0, 0))

    def test_early_done_rejected(self):
        buf = TrajectoryBuffer()
        eps = make_episode([-1, -1, -1])
        eps[0].done = True
        with pytest.raises(ValueError):
            buf.store_episode(eps, (0, 0))

    def test_empty_episode_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryBuffer().store_episode([], (0, 0))

    def test_sample_batch_shapes(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1] * 10)
        batch = buf.sample_batch(4, np.random.default_rng(0))
        assert batch["s"].shape == (4, 4)
        assert batch["r"].shape == (4,)

    def test_recent_states_window(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1] * 3, start=(0, 0))
        add_episode(buf, [-1] * 3, start=(9, 9))
        recent = buf.recent_states(4)
        assert recent.shape == (4, 4)
        np.testing.assert_allclose(recent[-1][:2], [9.2, 9.0])

    def test_export_import_roundtrip(self, tmp_path):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1, 0], start=(1, 2), goal=(3, 4))
        add_episode(buf, [-2, -3, -4], start=(5, 6), goal=(7, 8))
        path = tmp_path / "buffer.jsonl"
        buf.export_lines(path)
        loaded = TrajectoryBuffer.import_lines(path)
        assert len(loaded) == len(buf)
        assert [rec.ret for rec in loaded.records] == [rec.ret for rec in buf.records]
        loaded.export_lines(tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


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


GOLDEN_LINES = [
    '{"traj": 0, "t": 0, "s": [0.0, 0.5, 0.25, -0.25], "sg": [1.0, -1.5], "a": [0.75, -0.125], '
    '"r": -1.0, "s_next": [1.0, 1.5, 0.5, 0.0], "sg_next": [0.0, -2.5], "done": false, "goal": [3.0, 4.0]}',
    '{"traj": 0, "t": 1, "s": [1.0, 1.5, 0.25, -0.25], "sg": [2.0, -1.5], "a": [0.75, -0.125], '
    '"r": -2.0, "s_next": [2.0, 2.5, 0.5, 0.0], "sg_next": [1.0, -2.5], "done": true, "goal": [3.0, 4.0]}',
    '{"traj": 1, "t": 0, "s": [10.0, 10.5, 0.25, -0.25], "sg": [11.0, -1.5], "a": [0.75, -0.125], '
    '"r": -1.0, "s_next": [11.0, 11.5, 0.5, 0.0], "sg_next": [10.0, -2.5], "done": false, "goal": [7.5, -8.0]}',
]


def record_summary(buf):
    return [(r.traj_id, r.length, r.ret, r.offset, r.start.tolist(), r.goal.tolist()) for r in buf.records]


class TestRingStore:
    def test_export_golden_lines(self, tmp_path):
        buf = TrajectoryBuffer()
        buf.store_episode([distinct_step(0, 0, False), distinct_step(1, 0, True)], (3.0, 4.0))
        buf.store_episode([distinct_step(0, 1, False)], (7.5, -8.0))
        path = tmp_path / "buffer.jsonl"
        buf.export_lines(path)
        assert path.read_text() == "".join(line + "\n" for line in GOLDEN_LINES)

    def test_roundtrip_across_ring_end(self, tmp_path):
        buf = TrajectoryBuffer(capacity=7)
        for k, n in enumerate((3, 3, 3)):
            buf.store_episode([distinct_step(t, k, t == n - 1) for t in range(n)], (k, -k))
        assert any(r.offset + r.length > buf.capacity for r in buf.records)
        path = tmp_path / "buffer.jsonl"
        buf.export_lines(path)
        loaded = TrajectoryBuffer.import_lines(path, capacity=7)
        loaded.export_lines(tmp_path / "again.jsonl")
        # import numbers episodes afresh; every other key must survive as is
        strip = lambda p: [
            {k: v for k, v in json.loads(l).items() if k != "traj"} for l in p.read_text().splitlines()
        ]
        assert strip(tmp_path / "again.jsonl") == strip(path)
        np.testing.assert_array_equal(loaded.recent_states(6), buf.recent_states(6))

    def test_rejected_episode_leaves_buffer_unchanged(self, tmp_path):
        buf = TrajectoryBuffer(capacity=5)
        for k, n in enumerate((3, 2, 2)):  # the third store wraps the ring end
            buf.store_episode([distinct_step(t, k, t == n - 1) for t in range(n)], (k, k))
        before_path = tmp_path / "before.jsonl"
        buf.export_lines(before_path)
        before = (len(buf), record_summary(buf), before_path.read_text())

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
            after_path = tmp_path / "after.jsonl"
            buf.export_lines(after_path)
            assert (len(buf), record_summary(buf), after_path.read_text()) == before
        assert add_episode(buf, [-1]) == 3

    def test_episode_longer_than_capacity_rejected_when_empty(self):
        buf = TrajectoryBuffer(capacity=2)
        with pytest.raises(ValueError):
            add_episode(buf, [-1, -1, -1])
        assert len(buf) == 0 and buf.records == []
        add_episode(buf, [-1, -1])
        assert len(buf) == 2


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
        buf = TrajectoryBuffer()
        records = self._records(buf, [-10.0, -5.0, 0.0])
        out = normalize_returns(records, cell_size=0.75)
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0])

    def test_singleton_group(self):
        buf = TrajectoryBuffer()
        records = self._records(buf, [-7.0])
        np.testing.assert_allclose(normalize_returns(records, 0.75), [0.5])

    def test_equal_returns(self):
        buf = TrajectoryBuffer()
        records = self._records(buf, [-3.0, -3.0])
        np.testing.assert_allclose(normalize_returns(records, 0.75), [0.5, 0.5])

    def test_groups_are_separate(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-10.0], goal=(1, 1))
        add_episode(buf, [0.0], goal=(1, 1))
        add_episode(buf, [-100.0], goal=(50, 50))
        out = normalize_returns(buf.records, cell_size=0.75)
        np.testing.assert_allclose(out, [0.0, 1.0, 0.5])

    def test_signed_zeros_share_a_cell(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-10.0], start=(-0.0, 0.0), goal=(0.0, -0.0))
        add_episode(buf, [0.0], start=(0.0, -0.0), goal=(-0.0, 0.0))
        np.testing.assert_array_equal(normalize_returns(buf.records, 0.75), [0.0, 1.0])

    def test_empty(self):
        assert normalize_returns([], 0.75).shape == (0,)


def reference_normalize_returns(records, cell_size):
    """Dict of quantized (start cell, goal cell) tuples, one group at a time."""
    q = lambda v: tuple(int(math.floor(x / cell_size)) for x in np.asarray(v, dtype=float))
    groups = {}
    for i, rec in enumerate(records):
        groups.setdefault((q(rec.start[: len(rec.goal)]), q(rec.goal)), []).append(i)
    out = np.empty(len(records))
    for idx in groups.values():
        rets = np.array([records[i].ret for i in idx])
        lo, hi = rets.min(), rets.max()
        out[idx] = 0.5 if hi - lo <= 0 else (rets - lo) / (hi - lo)
    return out


# cell boundaries (multiples of 0.75), both sides of them, negatives and signed zeros
CELL_COORDS = st.sampled_from(
    [-1.5, -0.75, -0.7499999999999999, -1e-300, -0.0, 0.0, 0.3, 0.75, 0.7500000000000001, 1.5, 2.25, 40.0]
)


@st.composite
def task_records(draw):
    n = draw(st.integers(1, 30))
    records = []
    for i in range(n):
        start = draw(st.tuples(CELL_COORDS, CELL_COORDS, st.floats(-1, 1), st.floats(-1, 1)))
        goal = draw(st.tuples(CELL_COORDS, CELL_COORDS))
        ret = draw(st.sampled_from([-50.0, -10.0, -7.25, -3.0, 0.0]) | st.floats(-100, 0))
        records.append(TrajectoryRecord(i, 1, ret, np.array(start), np.array(goal), i))
    return records


class TestNormalizeMatchesDictReference:
    @settings(max_examples=300, deadline=None)
    @given(task_records())
    def test_bit_identical(self, records):
        ref = reference_normalize_returns(records, 0.75)
        got = normalize_returns(records, 0.75)
        assert got.tobytes() == ref.tobytes()
        assert np.array([rec.norm_ret for rec in records]).tobytes() == ref.tobytes()


class TestReturnRegressor:
    def test_constant_returns(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        reg = ReturnRegressor().fit(X, np.full(30, 2.5))
        np.testing.assert_allclose(reg.predict(X), 2.5)

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 6))
        y = 3.0 * X[:, 2] - 1.5
        reg = ReturnRegressor().fit(X, y)
        assert not reg.is_fallback
        np.testing.assert_allclose(reg.predict(X), y, atol=1e-8)

    def test_single_sample_fallback(self):
        reg = ReturnRegressor().fit([[1.0, 2.0]], [4.0])
        assert reg.is_fallback
        np.testing.assert_allclose(reg.predict([[9.0, 9.0]]), 4.0)

    def test_below_min_samples_uses_mean(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        y = X[:, 0] * 2
        reg = ReturnRegressor().fit(X, y)
        assert reg.is_fallback
        np.testing.assert_allclose(reg.predict(X), y.mean())

    def test_duplicate_rows_fallback(self):
        X = np.ones((25, 3))
        y = np.linspace(0, 1, 25)
        reg = ReturnRegressor().fit(X, y)
        assert reg.is_fallback

    def test_top6_feature_selection(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 8))
        y = 5.0 * X[:, 7] + 0.01 * rng.normal(size=60)
        reg = ReturnRegressor().fit(X, y)
        assert 7 in set(reg.feature_idx_)
        assert len(reg.feature_idx_) <= 6

    def test_rank_deficient_ridge_path(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(30, 1))
        X = np.hstack([base, base, base])  # perfectly collinear
        y = base[:, 0] * 2.0
        reg = ReturnRegressor().fit(X, y)
        assert np.all(np.isfinite(reg.predict(X)))
        np.testing.assert_allclose(reg.predict(X), y, atol=1e-4)

    def test_prediction_finite(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        reg = ReturnRegressor().fit(X, rng.normal(size=40))
        probe = rng.normal(scale=1e6, size=(10, 4))
        assert np.all(np.isfinite(reg.predict(probe)))


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

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            hr_weights([0.0], [1], alpha=0.0)

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

    def test_stability_under_huge_returns(self):
        w = hr_weights([1e6, 1e6 - 1.0], [1, 1], alpha=1.0)
        assert np.all(np.isfinite(w))
        denom = 1.0 + np.exp(-1.0)
        np.testing.assert_allclose(w, [1.0 / denom, np.exp(-1.0) / denom], atol=1e-12)


class TestComputeWeights:
    def _mixed_buffer(self, shift=0.0, n_episodes=8):
        buf = TrajectoryBuffer()
        rng = np.random.default_rng(7)
        for i in range(n_episodes):
            n = int(rng.integers(2, 7))
            rewards = rng.normal(size=n)
            rewards[0] += shift  # constant shift of the episodic return
            add_episode(buf, rewards, start=(i * 0.01, 0.0), goal=(3.0, 3.0))
        return buf

    def test_transition_normalization(self):
        buf = self._mixed_buffer()
        w = compute_weights(buf, alpha=0.3, cell_size=0.75)
        T = np.array([rec.length for rec in buf.records])
        assert abs(np.dot(T, w) - 1.0) < 1e-9

    def test_debias_invariance_constant_shift(self):
        a = compute_weights(self._mixed_buffer(0.0), alpha=0.3, cell_size=0.75)
        b = compute_weights(self._mixed_buffer(100.0), alpha=0.3, cell_size=0.75)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_debias_invariance_without_normalization(self):
        # mean fallback absorbs the shift below min_samples
        a = compute_weights(self._mixed_buffer(0.0), alpha=0.3, cell_size=0.75, normalize=False)
        b = compute_weights(self._mixed_buffer(100.0), alpha=0.3, cell_size=0.75, normalize=False)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_debias_invariance_linear_regressor_path(self):
        # with >= 20 samples the regression intercept absorbs the shift
        a = compute_weights(self._mixed_buffer(0.0, 30), alpha=0.3, cell_size=0.75, normalize=False)
        b = compute_weights(self._mixed_buffer(50.0, 30), alpha=0.3, cell_size=0.75, normalize=False)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_records_updated_in_place(self):
        buf = self._mixed_buffer()
        compute_weights(buf, alpha=0.3, cell_size=0.75)
        for rec in buf.records:
            assert rec.weight > 0


class TestSamplers:
    def test_weighted_indices_dirac(self):
        idx = weighted_indices([0.0, 1.0, 0.0], 20, np.random.default_rng(0))
        assert np.all(idx == 1)

    def test_weighted_indices_all_zero_rejected(self):
        with pytest.raises(ValueError):
            weighted_indices([0.0, 0.0], 3, np.random.default_rng(0))

    def test_uniform_frequencies_within_3_sigma(self):
        n, k = 100_000, 8
        idx = weighted_indices(np.ones(k), n, np.random.default_rng(1))
        counts = np.bincount(idx, minlength=k)
        p = 1.0 / k
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_nine_to_one_ratio_within_3_sigma(self):
        n = 100_000
        idx = weighted_indices([0.9, 0.1], n, np.random.default_rng(2))
        ones = np.sum(idx == 1)
        sigma = np.sqrt(n * 0.1 * 0.9)
        assert abs(ones - n * 0.1) <= 3 * sigma

    def test_weighted_sample_respects_trajectory_mass(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1] * 5, start=(0, 0))
        add_episode(buf, [-1] * 5, start=(100, 100))
        # measure zero on trajectory 0
        states = weighted_sample(buf, [0.0, 0.2], 50, np.random.default_rng(0))
        assert np.all(states[:, 0] >= 100.0)

    def test_topk_full_fraction_keeps_all(self):
        buf = TrajectoryBuffer()
        for r in (-5, -3, -1):
            add_episode(buf, [r])
        assert len(topk_filter(buf.records, 1.0)) == 3

    def test_topk_selects_highest(self):
        buf = TrajectoryBuffer()
        for r in (5.0, 3.0, 1.0):
            add_episode(buf, [r])
        kept = topk_filter(buf.records, 1 / 3)
        assert len(kept) == 1 and kept[0].ret == 5.0

    def test_topk_tie_prefers_newer(self):
        buf = TrajectoryBuffer()
        first = add_episode(buf, [2.0])
        second = add_episode(buf, [2.0])
        kept = topk_filter(buf.records, 0.5)
        assert kept[0].traj_id == second

    def test_pool_single_transition_buffer(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1], start=(4, 2))
        pool = sample_pool(buf, "uniform", 6, np.random.default_rng(0))
        assert pool.shape == (6, 4)
        assert np.all(pool[:, 0] == 4.0)

    def test_pool_hr_dirac(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [100.0], start=(7.0, 7.0))
        for i in range(4):
            add_episode(buf, [0.0], start=(0.0, float(i)))
        pool = sample_pool(buf, "hr", 40, np.random.default_rng(0), alpha=1e-3, normalize=False)
        assert np.all(pool[:, 0] == 7.0)

    def test_pool_histogram_matches_weights(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [0.0] * 2, start=(0.0, 0.0))
        add_episode(buf, [2.0] * 2, start=(50.0, 0.0))
        w = compute_weights(buf, alpha=1.0, cell_size=0.75, normalize=False)
        n = 20_000
        pool = sample_pool(buf, "hr", n, np.random.default_rng(3), alpha=1.0, normalize=False)
        frac_high = np.mean(pool[:, 0] >= 50.0)
        p = 2 * w[1]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(frac_high - p) <= 3 * sigma

    def test_pool_mixed_sampler_runs(self):
        buf = TrajectoryBuffer()
        for r in (-4.0, -2.0, 0.0):
            add_episode(buf, [r] * 3)
        for sampler in ("hr+uniform", "hr+topk"):
            pool = sample_pool(buf, sampler, 32, np.random.default_rng(0))
            assert pool.shape == (32, 4)

    def test_unknown_sampler_rejected(self):
        buf = TrajectoryBuffer()
        add_episode(buf, [-1])
        with pytest.raises(ValueError):
            sample_pool(buf, "nope", 4, np.random.default_rng(0))

    def test_empty_buffer_rejected(self):
        with pytest.raises(ValueError):
            sample_pool(TrajectoryBuffer(), "uniform", 4, np.random.default_rng(0))


class ListModel:
    """Reference semantics of the buffer: one array per field per episode,
    FIFO whole-episode eviction, cumsum/searchsorted row location, and one
    scalar step draw per sampled state."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.episodes = []
        self.records = []
        self.next_id = 0

    def __len__(self):
        return sum(len(ep["r"]) for ep in self.episodes)

    def store_episode(self, transitions, goal):
        ep = {f: np.stack([np.asarray(getattr(tr, f), dtype=np.float64) for tr in transitions])
              for f in FIELDS}
        traj_id = self.next_id
        self.next_id += 1
        self.episodes.append(ep)
        self.records.append(
            TrajectoryRecord(traj_id, len(ep["r"]), episodic_return(ep["r"]), ep["s"][0].copy(),
                             np.asarray(goal, dtype=np.float64), offset=-1)
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
        ti = weighted_indices(mass, n, rng)
        return np.array([episodes[t]["s"][int(rng.integers(0, len(episodes[t]["r"])))] for t in ti])

    def sample_pool(self, sampler, n, rng):
        def lengths(eps):
            return np.array([len(ep["r"]) for ep in eps], dtype=np.float64)

        def uniform(k):
            return self.rows([int(i) for i in rng.integers(0, len(self), size=k)], "s")

        def hr(k):
            w = compute_weights(self, alpha=0.1, cell_size=0.75)
            return self._draw(self.episodes, lengths(self.episodes) * w, k, rng)

        def topk(k):
            ids = {rec.traj_id for rec in topk_filter(self.records, 0.1)}
            eps = [ep for ep, rec in zip(self.episodes, self.records) if rec.traj_id in ids]
            return self._draw(eps, lengths(eps), k, rng)

        if sampler in ("uniform", "hr", "topk"):
            return {"uniform": uniform, "hr": hr, "topk": topk}[sampler](n)
        n_hr = int(rng.binomial(n, 0.5))
        other = uniform if sampler == "hr+uniform" else topk
        parts = []
        if n_hr:
            parts.append(hr(n_hr))
        if n - n_hr:
            parts.append(other(n - n_hr))
        return np.concatenate(parts)


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
            for f in FIELDS:
                np.testing.assert_array_equal(ours[f], ref[f])
        for sampler in SAMPLER_CHOICES:
            pool_seed = int(rng.integers(2**32))
            ours = sample_pool(buf, sampler, 16, np.random.default_rng(pool_seed))
            ref = model.sample_pool(sampler, 16, np.random.default_rng(pool_seed))
            np.testing.assert_array_equal(ours, ref)
