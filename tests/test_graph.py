"""Tests for landmark sampling, graph building, and planning."""

import heapq
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl import graphplan
from mazehrl.envs import phi
from mazehrl.graphplan import (
    LandmarkGraph,
    LandmarkSet,
    NoveltyScorer,
    build_graph,
    dedup_points,
    distances_to,
    edge_weights,
    fps,
    plan_path,
    plan_subgoal,
    pseudo_landmark,
    select_novel,
)
from mazehrl.nets import Adam, Mlp, polyak_update


def npz_bytes(state):
    """The bytes ``np.savez`` writes for ``state``."""
    buf = io.BytesIO()
    np.savez(buf, **state)
    return buf.getvalue()


def through_npz(state):
    """``state`` written by ``np.savez`` and read back by ``np.load(allow_pickle=False)``."""
    with np.load(io.BytesIO(npz_bytes(state)), allow_pickle=False) as f:
        return dict(f)


def assert_same_state(got, want):
    """Key by key, the same keys in the same order holding equal values."""
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key


def min_pairwise(points):
    d = np.inf
    for a, b in itertools.combinations(points, 2):
        d = min(d, float(np.linalg.norm(np.asarray(a) - np.asarray(b))))
    return d


def brute_force_max_min(pool, m):
    best = -np.inf
    for subset in itertools.combinations(range(len(pool)), m):
        best = max(best, min_pairwise(pool[list(subset)]))
    return best


def brute_force_shortest_path(w, src, dst):
    """Exhaustive simple-path enumeration; returns (cost, path) or (inf, None)."""
    n = w.shape[0]
    best_cost, best_path = np.inf, None
    stack = [(src, 0.0, [src])]
    while stack:
        node, cost, path = stack.pop()
        if cost >= best_cost:
            continue
        if node == dst:
            best_cost, best_path = cost, path
            continue
        for v in range(n):
            if v in path or not np.isfinite(w[node, v]):
                continue
            stack.append((v, cost + w[node, v], path + [v]))
    return best_cost, best_path


class StubActor:
    def __init__(self, action_dim=2):
        self.action_dim = action_dim

    def forward(self, obs):
        return np.zeros((np.atleast_2d(obs).shape[0], self.action_dim))


class StubCritic:
    def __init__(self, value):
        self.value = value

    def min_q(self, x):
        n = np.atleast_2d(x).shape[0]
        if callable(self.value):
            return np.array([self.value(row) for row in np.atleast_2d(x)])
        return np.full(n, self.value)


def reference_fps(pool, m, rng):
    """``fps`` with one ``np.linalg.norm`` over the rows per round."""
    unique = pool[dedup_points(pool)]
    if m >= len(unique):
        return unique.copy()
    chosen = [int(rng.integers(0, len(unique)))]
    dists = np.full(len(unique), np.inf)
    for _ in range(m - 1):
        dists = np.minimum(dists, np.linalg.norm(unique - unique[chosen[-1]], axis=1))
        chosen.append(int(np.argmax(dists)))
    return unique[chosen]


class TestFps:
    def test_bytes_match_row_norm_reference(self):
        rng = np.random.default_rng(21)
        for k in range(200):
            n, d = int(rng.integers(1, 120)), int(rng.integers(1, 6))
            pool = [
                rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3),
                rng.integers(-2, 3, size=(n, d)).astype(float),  # ties and duplicates
                rng.choice([0.0, -0.0, 1.0, 1.0 + 1e-12, -1.0], size=(n, d)),
            ][k % 3]
            m = int(rng.integers(1, 30))
            got = fps(pool, m, np.random.default_rng(k))
            want = reference_fps(pool, m, np.random.default_rng(k))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_m_one_returns_seed(self):
        pool = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        starts = set()
        for seed in range(20):
            start = int(np.random.default_rng(seed).integers(0, 3))
            out = fps(pool, 1, np.random.default_rng(seed))
            np.testing.assert_array_equal(out, pool[[start]])
            starts.add(start)
        assert starts == {0, 1, 2}

    def test_collinear_fixture(self):
        pool = np.array([[0.0], [1.0], [10.0]])
        farthest = {0: 10.0, 1: 10.0, 2: 0.0}
        for seed in range(20):
            start = int(np.random.default_rng(seed).integers(0, 3))
            out = fps(pool, 2, np.random.default_rng(seed))
            np.testing.assert_array_equal(out, [pool[start], [farthest[start]]])

    def test_requesting_more_than_pool_dedups(self):
        pool = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        out = fps(pool, 5, np.random.default_rng(0))
        assert out.shape == (2, 2)

    def test_deterministic_per_seed_and_duplicate_free(self):
        rng_pool = np.random.default_rng(1)
        pool = rng_pool.normal(size=(40, 2))
        a = fps(pool, 6, np.random.default_rng(9))
        b = fps(pool, 6, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
        assert min_pairwise(a) > 0

    @pytest.mark.parametrize("m", [2.5, True, 0])
    def test_m_must_be_an_integer_count(self, m):
        """2.5 raised TypeError in the first round, and True drew one point."""
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            fps(np.arange(10.0).reshape(5, 2), m, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_pool_rejected(self, bad):
        # a non-finite row is never a duplicate and its distances are nan or
        # inf, so the rounds would pick one row again and again
        pool = np.array([[0.0, 0], [1.0, 0], [bad, 0], [2.0, 0], [5.0, 5]])
        with pytest.raises(ValueError, match="finite"):
            fps(pool, 3, np.random.default_rng(1))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2**32 - 1))
    def test_greedy_two_approximation(self, data, seed):
        """The greedy max-min spread is at least half the best m-subset's.
        Grid coordinates give duplicate points and equal distances."""
        n = data.draw(st.integers(3, 8))
        m = data.draw(st.integers(2, n))
        pool = np.array(data.draw(st.lists(st.tuples(GRID, GRID), min_size=n, max_size=n)))
        got = fps(pool, m, np.random.default_rng(seed))
        assert min_pairwise(got) >= 0.5 * brute_force_max_min(pool, m) - 1e-12


class TestNovelty:
    def test_scores_nonnegative(self):
        scorer = NoveltyScorer(4, np.random.default_rng(0))
        s = np.random.default_rng(1).normal(size=(20, 4))
        assert np.all(scorer.scores(s) >= 0)

    def test_training_reduces_scores_on_seen_states(self):
        rng = np.random.default_rng(3)
        scorer = NoveltyScorer(4, rng)
        states = rng.normal(size=(64, 4))
        before = scorer.scores(states).mean()
        for _ in range(500):
            scorer.train(states)
        after = scorer.scores(states).mean()
        assert after < before

    def test_nets_are_column_major_after_construction_and_load(self):
        rng = np.random.default_rng(5)
        scorer = NoveltyScorer(4, rng)
        scorer.train(rng.normal(size=(16, 4)))
        loaded = NoveltyScorer(4, np.random.default_rng(6))
        loaded.load_state_dict(scorer.state_dict())
        for s in (scorer, loaded):
            moments = s.opt.m[::2] + s.opt.v[::2]
            for a in (*s.target.weights, *s.predictor.weights, *moments):
                assert a.flags.f_contiguous

    def test_out_of_distribution_scores_higher(self):
        rng = np.random.default_rng(4)
        scorer = NoveltyScorer(4, rng)
        seen = rng.normal(scale=0.5, size=(128, 4))
        for _ in range(600):
            scorer.train(seen[rng.integers(0, len(seen), size=32)])
        probe_in = seen[:10]
        probe_out = probe_in + 8.0
        assert scorer.scores(probe_out).mean() > scorer.scores(probe_in).mean()

    def test_state_roundtrip(self):
        """A trained scorer through ``np.savez``: the same scores, and save -> load -> save
        gives the same bytes."""
        rng = np.random.default_rng(5)
        scorer = NoveltyScorer(3, rng)
        scorer.train(rng.normal(size=(8, 3)))
        state = through_npz(scorer.state_dict())
        clone = NoveltyScorer(3, np.random.default_rng(0))
        clone.load_state_dict(state)
        s = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(clone.scores(s), scorer.scores(s))
        assert clone.opt.step_count == 1
        assert npz_bytes(clone.state_dict()) == npz_bytes(state) == npz_bytes(scorer.state_dict())

    def test_state_dict_keys_are_prefixed_by_part(self):
        state = NoveltyScorer(3, np.random.default_rng(0)).state_dict()
        for part, obj in (("target", "weight0"), ("predictor", "bias2"), ("opt", "v5")):
            assert f"{part}/format" in state and f"{part}/{obj}" in state
        assert all(k.partition("/")[0] in ("target", "predictor", "opt") for k in state)

    @pytest.mark.parametrize("key", ["target", "predictor", "opt"])
    @pytest.mark.parametrize("missing", [True, False])
    def test_failed_load_changes_nothing(self, key, missing):
        """A missing part raises ValueError naming it, and a missing or bad
        part leaves the nets and the optimizer as they were."""
        rng = np.random.default_rng(8)
        scorer = NoveltyScorer(3, rng)
        scorer.train(rng.normal(size=(8, 3)))
        before = scorer.state_dict()
        state = NoveltyScorer(3, np.random.default_rng(9)).state_dict()
        if missing:
            state = {k: v for k, v in state.items() if not k.startswith(f"{key}/")}
        else:
            state[f"{key}/format"] = "unknown"
        with pytest.raises(ValueError, match=f"'{key}' keys" if missing else "format"):
            scorer.load_state_dict(state)
        assert_same_state(scorer.state_dict(), before)

    @pytest.mark.parametrize("wide", [("target",), ("predictor", "opt")])
    def test_parts_that_cannot_score_together_rejected(self, wide):
        """Parts of a 4-wide scorer with the others of a 3-wide one loaded, and the
        next ``scores`` raised an input-shape error from whichever net was 3 wide."""
        rng = np.random.default_rng(8)
        scorer = NoveltyScorer(3, rng)
        scorer.train(rng.normal(size=(8, 3)))
        before = scorer.state_dict()
        state = NoveltyScorer(3, np.random.default_rng(9)).state_dict()
        state.update((k, v) for k, v in NoveltyScorer(4, np.random.default_rng(9)).state_dict().items()
                     if k.partition("/")[0] in wide)
        with pytest.raises(ValueError, match="^novelty checkpoint parts 'target' and 'predictor' "):
            scorer.load_state_dict(state)
        assert_same_state(scorer.state_dict(), before)

    def test_train_on_an_empty_batch_writes_nothing(self):
        """``recent_states(0)`` on a stored buffer gives such a batch; a step on it would
        be a NaN loss that still moves the step count."""
        rng = np.random.default_rng(10)
        scorer = NoveltyScorer(4, rng)
        scorer.train(rng.normal(size=(8, 4)))
        params = [p.copy() for p in scorer.predictor.params]
        for empty in (np.zeros((0, 4)), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="^train needs at least one state"):
                scorer.train(empty)
        assert all(p.tobytes() == q.tobytes() for p, q in zip(scorer.predictor.params, params))
        assert scorer.opt.step_count == 1


def count_forwards(scorer):
    """Count the forward passes of both RND nets, per net, on this scorer."""
    calls = {"predictor": 0, "target": 0}
    for name in calls:
        net = getattr(scorer, name)

        def counted(x, _run=net.forward_cache, _name=name):
            calls[_name] += 1
            return _run(x)

        net.forward_cache = counted  # forward runs through it too
    return calls


def restored(state):
    scorer = NoveltyScorer(4, np.random.default_rng(0))
    scorer.load_state_dict(state)
    return scorer


class TestNoveltyForwardReuse:
    def test_train_after_scores_on_same_states_runs_no_forward(self):
        rng = np.random.default_rng(14)
        scorer = NoveltyScorer(4, rng)
        calls = count_forwards(scorer)
        states, other = rng.normal(size=(2, 50, 4))

        def forwards(op, x):
            before = dict(calls)
            op(x)
            return calls["predictor"] - before["predictor"], calls["target"] - before["target"]

        assert forwards(scorer.scores, states) == (1, 1)
        assert forwards(scorer.train, states.copy()) == (0, 0)  # equal bytes, another array
        assert forwards(scorer.train, states) == (1, 1)  # the last train dropped them
        scorer.scores(states)
        assert forwards(scorer.train, other) == (1, 1)
        assert forwards(scorer.train, states) == (1, 1)  # a train on other states dropped them
        scorer.scores(states)
        assert forwards(scorer.train, states.astype(np.float32)) == (1, 1)  # other bytes
        scorer.scores(states)
        scorer.load_state_dict(scorer.state_dict())
        calls = count_forwards(scorer)
        assert forwards(scorer.train, states) == (1, 1)  # a checkpoint load dropped them

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_scores_losses_and_params_equal_a_fresh_scorer(self, ops, seed):
        """Each op is (which of three state sets, score before the train?);
        every score, loss and parameter equals a scorer restored from the
        same checkpoint that runs both nets afresh."""
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(3, 40, 4))
        scorer = NoveltyScorer(4, rng)
        for which, score_first in ops:
            states = pool[which]
            before = scorer.state_dict()
            if score_first:
                got = scorer.scores(states)
                ref = restored(before)
                want = ref.predictor.forward(states) - ref.target.forward(states)
                assert got.tobytes() == np.mean(want * want, axis=1).tobytes()
            loss = scorer.train(states.copy())
            fresh = restored(before)
            assert loss == fresh.train(states)
            for p, q in zip(scorer.predictor.params, fresh.predictor.params):
                assert p.tobytes() == q.tobytes()


class TestNetDtypes:
    def test_every_param_has_its_net_dtype(self):
        """RND nets, also after a checkpoint, pipeline-shaped actor, critic and
        target, and a critic whose layers a test rewrote."""
        rng = np.random.default_rng(6)
        scorer = NoveltyScorer(4, rng)
        clone = NoveltyScorer(4, np.random.default_rng(0))
        clone.load_state_dict(scorer.state_dict())
        critic = Mlp([8, 256, 256, 1], rng=rng)
        nets = [scorer.target, scorer.predictor, clone.target, clone.predictor, critic, critic.copy()]
        nets += [Mlp([6, 256, 256, 2], "scaled_tanh", rng=rng), spread_critic(rng)]
        for net in nets:
            assert net.dtype == np.float32
            assert all(p.dtype == net.dtype for p in net.params)
            assert net.forward(np.zeros(net.in_dim)).dtype == net.dtype


class FixedScorer:
    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def scores(self, states):
        return self.values[: np.atleast_2d(states).shape[0]]


class TestSelectNovel:
    def test_all_returned_when_m_covers(self):
        states = np.arange(8.0).reshape(4, 2)
        out = select_novel(states, FixedScorer([1, 2, 3, 4]), 4)
        np.testing.assert_array_equal(out, states)

    def test_top_scores_selected(self):
        states = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
        out = select_novel(states, FixedScorer([5.0, 1.0, 3.0]), 2)
        np.testing.assert_array_equal(out, [[0.0, 0], [2.0, 0]])

    @pytest.mark.parametrize("m", [2.5, True, 0])
    def test_m_must_be_an_integer_count(self, m):
        """2.5 raised TypeError at the slice, and True kept one state."""
        states = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            select_novel(states, FixedScorer([1.0, 2.0, 3.0, 4.0]), m)

    def test_ties_prefer_recent(self):
        states = np.array([[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]])
        out = select_novel(states, FixedScorer([1.0, 1.0, 1.0, 1.0]), 2)
        np.testing.assert_array_equal(out, [[3.0, 0], [2.0, 0]])


class TestEdgeWeights:
    def test_constant_critic_constant_weights(self):
        src = np.zeros((3, 4))
        dst = np.array([[1.0, 0], [2.0, 0], [3.0, 0]])
        w = edge_weights(StubCritic(-4.5), StubActor(), src, dst, phi, eta=1.0)
        np.testing.assert_allclose(w, 4.5)

    def test_positive_q_clamped_to_zero(self):
        w = edge_weights(StubCritic(3.0), StubActor(), np.zeros((1, 4)), np.ones((1, 2)), phi, 1.0)
        np.testing.assert_array_equal(w, [0.0])

    @pytest.mark.parametrize("q", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected_as_inf(self, q):
        w = edge_weights(StubCritic(q), StubActor(), np.zeros((1, 4)), np.ones((1, 2)), phi, 1.0)
        np.testing.assert_array_equal(w, [np.inf])

    def test_cutoff_removes_edges_in_graph(self):
        lms = LandmarkSet(np.array([[3.0, 0.0, 0, 0]]), np.zeros((0, 4)), phi)
        graph = build_graph(
            np.zeros(4), np.array([9.0, 0.0]), lms, StubCritic(-10.0), StubActor(), phi, 1.0, cutoff=5.0
        )
        assert np.all(~np.isfinite(graph.w_cut[graph.w_cut != 0].reshape(-1)))
        assert np.all(graph.w_raw[0, 1:] == 10.0)


class TestPlanning:
    def line_graph(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        w = np.full((3, 3), np.inf)
        w[0, 1] = 1.0
        w[1, 2] = 1.0
        w[0, 2] = 5.0
        return LandmarkGraph(points, w, w.copy(), cutoff=np.inf)

    def test_line_graph_takes_middle_hop(self):
        np.testing.assert_array_equal(plan_subgoal(self.line_graph()), [1.0, 0.0])

    def test_direct_edge_cheapest_returns_goal(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
        w = np.full((3, 3), np.inf)
        w[0, 1] = 10.0
        w[1, 2] = 10.0
        w[0, 2] = 1.0
        g = LandmarkGraph(points, w, w.copy(), np.inf)
        np.testing.assert_array_equal(plan_subgoal(g), [1.0, 0.0])

    def test_empty_landmarks_returns_goal(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0]])
        w = np.full((2, 2), np.inf)
        g = LandmarkGraph(points, w, w.copy(), np.inf)
        np.testing.assert_array_equal(plan_subgoal(g), [3.0, 4.0])

    def test_build_graph_without_landmarks(self):
        lms = LandmarkSet(np.zeros((0, 4)), np.zeros((0, 4)), phi)
        assert len(lms) == 0
        graph = build_graph(
            np.array([1.0, 2.0, 0.5, 0.5]), np.array([3.0, 4.0]), lms,
            StubCritic(-2.0), StubActor(), phi, 1.0, cutoff=5.0,
        )
        assert graph.n_nodes == 2
        np.testing.assert_array_equal(graph.points, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(graph.w_raw, [[np.inf, 2.0], [np.inf, np.inf]])
        np.testing.assert_array_equal(plan_subgoal(graph), [3.0, 4.0])

    def test_unreachable_goal_two_hop_fallback(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        w_raw = np.array(
            [
                [np.inf, 1.0, 3.0, 20.0],
                [np.inf, np.inf, 1.0, 4.0],
                [np.inf, 1.0, np.inf, 30.0],
                [np.inf, np.inf, np.inf, np.inf],
            ]
        )
        w_cut = np.where(w_raw <= 3.5, w_raw, np.inf)  # goal edges all cut
        g = LandmarkGraph(points, w_cut, w_raw, 3.5)
        # two-hop costs: via node1 = 1+4=5, via node2 = 3+30=33 -> node 1
        np.testing.assert_array_equal(plan_subgoal(g), [1.0, 0.0])

    def test_nan_two_hop_sum_is_no_route(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        w_raw = np.full((4, 4), np.inf)
        w_raw[0, 1] = np.nan  # two-hop sums: via node 1 NaN, via node 2 finite
        w_raw[0, 2] = 1.0
        w_raw[1, 3] = 1.0
        w_raw[2, 3] = 2.0
        g = LandmarkGraph(points, np.full((4, 4), np.inf), w_raw, 0.5)
        np.testing.assert_array_equal(plan_subgoal(g), [2.0, 0.0])

    def test_no_finite_fallback_returns_goal(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        w = np.full((3, 3), np.inf)
        g = LandmarkGraph(points, w, w.copy(), 1.0)
        np.testing.assert_array_equal(plan_subgoal(g), [5.0, 5.0])

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(4, 9))
            points = rng.uniform(-5, 5, size=(n, 2))
            w = rng.uniform(0.1, 5.0, size=(n, n))
            w[rng.random((n, n)) < 0.25] = np.inf
            np.fill_diagonal(w, np.inf)
            w[:, 0] = np.inf  # nothing enters the state
            w[n - 1, :] = np.inf  # goal is a sink
            cost, path = brute_force_shortest_path(w, 0, n - 1)
            to_goal = distances_to(w[1:, 1:], n - 2)
            if path is None:
                assert np.all(np.isinf(w[0, 1:] + to_goal))
                continue
            got = plan_subgoal(LandmarkGraph(points, w, w.copy(), np.inf))
            hop = int(np.flatnonzero(np.all(points == got, axis=1))[0])
            assert hop > 0
            assert w[0, hop] + to_goal[hop - 1] == pytest.approx(cost)

    def test_first_hop_of_any_shortest_path_by_coordinates(self):
        """Both landmarks start a zero-cost path, and the lower-ranked one,
        (-1, -1), is returned although its path runs on through (-1, -0),
        the goal's only predecessor."""
        points = np.array([[-1.0, -1.0], [-1.0, -0.0], [-1.0, -1.0], [-1.0, -1.0]])
        weights = np.zeros((4, 4))
        weights[0, 3] = weights[2, 3] = 1.0
        g = planner_graph(points, weights, 0.0, False)
        want = np.array([-1.0, -1.0])
        assert plan_subgoal(g).tobytes() == want.tobytes()
        assert reference_plan_subgoal(g).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cutoff", [np.inf, 1.5])  # 1.5 cuts every route: the fallback
    def test_ties_go_to_lowest_coordinates_not_lowest_index(self, cutoff):
        """Three landmarks tie at total 2, in the reverse of their
        lexicographic order: the last one, (1, 5), is the waypoint."""
        points = np.array([[0.0, 0.0], [2.0, 1.0], [2.0, 0.0], [1.0, 5.0], [9.0, 9.0]])
        w_raw = np.full((5, 5), np.inf)
        w_raw[0, 1:4] = 1.0
        w_raw[1:4, 4] = 1.0
        w_raw[0, 4] = 3.0  # the direct edge is no tie
        g = LandmarkGraph(points, np.where(w_raw <= cutoff, w_raw, np.inf), w_raw, cutoff)
        assert plan_subgoal(g).tobytes() == np.array([1.0, 5.0]).tobytes()
        assert reference_plan_subgoal(g).tobytes() == np.array([1.0, 5.0]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.booleans())
    def test_permutation_invariance(self, data, cutoff, cut_goal):
        """Reordering the landmark nodes (node 0 and the goal stay put) keeps
        the waypoint, on 2-node graphs and in the two-hop fallback too. Points
        are distinct: duplicate landmarks at equal distance tie by index."""
        points, weights = data.draw(tie_heavy_graphs(distinct=True))
        n = len(points)
        perm = np.array([0, *data.draw(st.permutations(range(1, n - 1))), n - 1])
        want = plan_subgoal(planner_graph(points, weights, cutoff, cut_goal))
        got = plan_subgoal(planner_graph(points[perm], weights[np.ix_(perm, perm)], cutoff, cut_goal))
        assert got.tobytes() == want.tobytes()


class TestPseudoLandmark:
    def test_unit_ray_shift(self):
        out, degenerate = pseudo_landmark([3.0, 4.0], [0.0, 0.0], 1.0)
        np.testing.assert_allclose(out, [3.6, 4.8])
        assert not degenerate

    def test_zero_delta_unchanged(self):
        out, _ = pseudo_landmark([3.0, 4.0], [0.0, 0.0], 0.0)
        np.testing.assert_allclose(out, [3.0, 4.0])

    def test_degenerate_flagged(self):
        out, degenerate = pseudo_landmark([2.0, 2.0], [2.0, 2.0], 1.0)
        assert degenerate
        np.testing.assert_array_equal(out, [2.0, 2.0])

    def test_shift_distance_equals_delta(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            plan, here = rng.normal(size=2), rng.normal(size=2)
            delta = float(rng.uniform(0, 3))
            out, degenerate = pseudo_landmark(plan, here, delta)
            if not degenerate:
                assert np.linalg.norm(out - plan) == pytest.approx(delta)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be finite"):
            pseudo_landmark([3.0, 4.0], [0.0, 0.0], delta)

    def test_negative_delta_shifts_toward_the_agent(self):
        out, _ = pseudo_landmark([3.0, 4.0], [0.0, 0.0], -1.0)
        np.testing.assert_allclose(out, [2.4, 3.2])


class TestDedupPoints:
    def test_exact_equality(self):
        # exact ==: rows 1e-12 apart are distinct, -0.0 and +0.0 are not
        pts = np.array([[1.0, 1.0], [1.0 + 1e-12, 1.0], [2.0, 2.0], [1.0, 1.0], [-0.0, 0.0],
                        [0.0, 0.0]])
        np.testing.assert_array_equal(dedup_points(pts), [0, 1, 2, 4])


# ---- loop-form references for the array-form planner ----


def reference_distances_to(weights, dst):
    """Heap Dijkstra from ``dst`` over reversed edges: each node's distance
    to ``dst``, every sum ``w(u, v) + d(v)`` taken goal-outward."""
    n = weights.shape[0]
    w = weights.tolist()
    dist = [math.inf] * n
    dist[dst] = 0.0
    heap = [(0.0, dst)]
    done = [False] * n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u in range(n):
            if done[u] or not math.isfinite(w[u][v]):
                continue
            nd = w[u][v] + d
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def reference_plan_subgoal(graph):
    """The lowest (coordinates, index) first hop among exactly shortest
    totals, else the two-hop fallback."""
    dst = graph.n_nodes - 1
    to_goal = reference_distances_to(graph.w_cut[1:, 1:], dst - 1)
    totals = {}
    for j in range(1, dst + 1):
        w = float(graph.w_cut[0, j])
        if math.isfinite(w) and math.isfinite(w + to_goal[j - 1]):
            totals[j] = w + to_goal[j - 1]
    if totals:
        best = min(totals.values())
        hop = min((j for j in totals if totals[j] == best), key=lambda j: (tuple(graph.points[j]), j))
        return graph.points[hop].copy()
    two_hop = graph.w_raw[0, 1:dst] + graph.w_raw[1:dst, dst]
    if two_hop.size and np.any(np.isfinite(two_hop)):
        cand = np.nonzero(two_hop == np.min(two_hop))[0] + 1
        order = sorted(cand, key=lambda i: tuple(graph.points[i]))
        return graph.points[order[0]].copy()
    return graph.points[dst].copy()


def reference_dedup_points(points):
    """Indices of the rows whose tuple no earlier row had."""
    seen = set()
    keep = []
    for i, p in enumerate(np.asarray(points, dtype=np.float64)):
        key = tuple(p)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return np.array(keep, dtype=np.intp)


def reference_select_novel(candidates, scores, m):
    n = len(candidates)
    if n <= m:
        return candidates.copy()
    order = sorted(range(n), key=lambda i: (-scores[i], -i))
    return candidates[np.array(order[:m])]


# a 0.1 grid: duplicate points and equal distances, never a near-duplicate
GRID = st.integers(-50, 50).map(lambda k: k / 10)
# few distinct values, so equal distances, duplicate points and signed zeros are common
COORDS = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 1e-12, -1e-12, 1.0 + 1e-12])
WEIGHTS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan])
# dedup compares rows with ==: infinities match themselves, NaN matches nothing
DEDUP_COORDS = COORDS | st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def tie_heavy_graphs(draw, distinct=False):
    n = draw(st.integers(2, 7))
    points = np.array(draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n, unique=distinct)))
    weights = np.array(draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
    return points, weights


def planner_graph(points, weights, cutoff, cut_goal):
    """The graph as ``build_graph`` leaves it: no NaN, no self-loops, no edges
    out of the goal. ``cut_goal`` cuts every edge into the goal, forcing the
    two-hop fallback, where equal-cost landmarks are common."""
    w_raw = np.where(np.isnan(weights), np.inf, weights)
    np.fill_diagonal(w_raw, np.inf)
    w_raw[-1, :] = np.inf
    w_cut = np.where(w_raw <= cutoff, w_raw, np.inf)
    if cut_goal:
        w_cut[:, -1] = np.inf
    return LandmarkGraph(points, w_cut, w_raw, cutoff)


@st.composite
def planner_scale_graphs(draw):
    """Dense graphs of bench size: continuous weights, with planted equal
    weights and duplicate points so that ties in distance and coordinates occur."""
    n = draw(st.integers(8, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-5, 5, (n, 2))
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    points[dup] = points[rng.integers(0, n, size=int(dup.sum()))]
    weights = rng.uniform(0.0, 10.0, (n, n))
    tied = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    weights[tied] = rng.choice([0.0, 1.0, 2.0, 3.0], size=int(tied.sum()))
    weights[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = np.inf
    return points, weights


def assert_distances_match_reference(weights, goals):
    for dst in goals:
        got = distances_to(weights, dst)
        want = reference_distances_to(weights, dst)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]  # -0.0 != 0.0


def goal_outward_sum(w, route):
    """``w(u0, u1) + (w(u1, u2) + (... + 0))`` along ``route``, as ``distances_to`` sums."""
    total = 0.0
    for u, v in reversed(list(zip(route, route[1:]))):
        total = w[u, v] + total
    return total


def assert_route_plans(g):
    """``plan_path(g)`` starts at the state, ends at the goal, visits no node twice, starts
    with ``plan_subgoal``'s hop, and, on a route under the cutoff, takes only finite
    ``w_cut`` edges whose goal-outward sum is ``w_cut[0, j] + D[j]``; else it is the fallback."""
    route, dst = plan_path(g), g.n_nodes - 1
    assert route[0] == 0 and route[-1] == dst and len(set(route)) == len(route)
    assert all(type(u) is int for u in route)
    assert plan_subgoal(g).tobytes() == g.points[route[1]].tobytes()
    D = distances_to(g.w_cut[1:, 1:], dst - 1)
    j = route[1]
    if np.isfinite(g.w_cut[0, j] + D[j - 1]):
        assert all(np.isfinite(g.w_cut[u, v]) for u, v in zip(route, route[1:]))
        assert goal_outward_sum(g.w_cut, route) == g.w_cut[0, j] + D[j - 1]
        assert goal_outward_sum(g.w_cut, route[1:]) == D[j - 1]
    else:
        assert route == ([0, j, dst] if j != dst else [0, dst])


class TestPlanPath:
    def test_line_graph(self):
        assert plan_path(TestPlanning().line_graph()) == [0, 1, 2]

    def test_fallbacks(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        w_raw = np.full((4, 4), np.inf)
        w_raw[0, 1:3] = 1.0
        w_raw[1:3, 3] = [4.0, 2.0]
        assert plan_path(LandmarkGraph(points, np.full((4, 4), np.inf), w_raw, 0.5)) == [0, 2, 3]
        blank = np.full((4, 4), np.inf)
        assert plan_path(LandmarkGraph(points, blank, blank.copy(), 0.5)) == [0, 3]

    @pytest.mark.parametrize("exit_from, want", [(2, [0, 1, 2, 3]), (1, [0, 1, 3])])
    def test_tight_zero_weight_cycle_is_not_revisited(self, exit_from, want):
        """Landmarks 1, at (0, 5), and 2 form a cycle of zero-weight edges, and one of them
        has an edge to the goal, at (9, 9), so both cycle edges are tight. Landmark 1 is
        lexicographically lower than the goal. With the exit at landmark 2, a walk that took
        the lowest tight successor would go back to landmark 1. With the exit at landmark
        1, it would go on to landmark 2, whose one way on is back."""
        points = np.array([[0.0, 0.0], [0.0, 5.0], [1.0, 0.0], [9.0, 9.0]])
        w = np.full((4, 4), np.inf)
        w[0, 1] = 1.0
        w[1, 2] = w[2, 1] = 0.0
        w[exit_from, 3] = 2.0
        g = LandmarkGraph(points, w, w.copy(), np.inf)
        assert (distances_to(w[1:, 1:], 2)[:2] == 2.0).all()
        assert plan_path(g) == want
        assert_route_plans(g)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_graphs(), st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.booleans())
    def test_tie_heavy_routes(self, graph, cutoff, cut_goal):
        assert_route_plans(planner_graph(*graph, cutoff, cut_goal))

    @settings(max_examples=100, deadline=None)
    @given(planner_scale_graphs(), st.sampled_from([2.0, 6.0, np.inf]), st.booleans())
    def test_planner_scale_routes(self, graph, cutoff, cut_goal):
        assert_route_plans(planner_graph(*graph, cutoff, cut_goal))


class TestDistancesAtPlannerScale:
    @settings(max_examples=200, deadline=None)
    @given(planner_scale_graphs())
    def test_matches_loop_reference(self, graph):
        _, weights = graph
        assert_distances_match_reference(weights, range(len(weights)))


class TestMatchesLoopReference:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_graphs())
    def test_distances_every_goal(self, graph):
        _, weights = graph
        assert_distances_match_reference(weights, range(len(weights)))

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_graphs(), st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.booleans())
    def test_plan_subgoal_including_fallback(self, graph, cutoff, cut_goal):
        g = planner_graph(*graph, cutoff, cut_goal)
        got, ref = plan_subgoal(g), reference_plan_subgoal(g)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(DEDUP_COORDS, DEDUP_COORDS, DEDUP_COORDS), min_size=1, max_size=12))
    def test_dedup_points(self, rows):
        points = np.array(rows)
        got, ref = dedup_points(points), reference_dedup_points(points)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=12),
        st.integers(1, 12),
    )
    def test_select_novel(self, scores, m):
        candidates = np.stack([np.arange(len(scores), dtype=float), np.zeros(len(scores))], axis=1)
        got = select_novel(candidates, FixedScorer(scores), m)
        np.testing.assert_array_equal(got, reference_select_novel(candidates, scores, m))


# ---- the cached landmark->landmark block ----


class TwinCritic:
    def __init__(self, q1, q2):
        self.q1, self.q2 = q1, q2
        self.rows = 0

    def min_q(self, x):
        self.rows += len(x)
        return np.minimum(self.q1.forward(x)[:, 0], self.q2.forward(x)[:, 0])


class RowCountingCritic(StubCritic):
    def __init__(self, value):
        super().__init__(value)
        self.rows = 0

    def min_q(self, x):
        self.rows += np.atleast_2d(x).shape[0]
        return super().min_q(x)


def spread_critic(rng):
    """A critic whose -Q ranges over about [0, 10], so the cutoff keeps some edges."""
    q = Mlp([8, 16, 16, 1], rng=rng)
    q.weights[-1][...] = rng.normal(0.0, 0.5, size=q.weights[-1].shape)
    q.biases[-1][...] = -5.0
    return q


def random_states(rng, n):
    return np.concatenate([rng.uniform(-5, 5, (n, 2)), rng.uniform(-0.3, 0.3, (n, 2))], axis=1)


def landmark_inputs(rng, n_lm):
    states = random_states(rng, n_lm)
    n_cov = (2 * n_lm) // 3
    return states[:n_cov], states[n_cov:]


def all_pairs_build_graph(state, goal_point, landmarks, critic, actor, goal_map, eta, cutoff):
    """Every ordered pair into a node other than the state, from one pair mask.

    A pair's float32 value depends on the shape of the batch it is scored
    in, so the pairs out of the state and the pairs out of the landmarks
    are scored as two batches, as ``build_graph`` scores them.
    """
    state = np.asarray(state, dtype=np.float64)
    src_states = np.vstack([state, landmarks.states.reshape(-1, state.size)])
    points = np.vstack([goal_map(state[None, :]), landmarks.points, np.asarray(goal_point)])
    n = len(points)
    pairs = ~np.eye(n - 1, n, dtype=bool)
    pairs[:, 0] = False  # no edge enters the state node
    src, dst = np.nonzero(pairs)
    w_raw = np.full((n, n), np.inf)
    for batch in (src == 0, src > 0):
        s, d = src[batch], dst[batch]
        w_raw[s, d] = edge_weights(critic, actor, src_states[s], points[d], goal_map, eta)
    return LandmarkGraph(points, np.where(w_raw <= cutoff, w_raw, np.inf), w_raw, cutoff)


def graph_bytes(g):
    return g.points.tobytes(), g.w_raw.tobytes(), g.w_cut.tobytes()


class TestCachedLandmarkBlock:
    CUTOFF = 5.0

    @pytest.mark.parametrize("n_lm", [0, 1, 29])
    def test_warm_build_equals_cold_build(self, n_lm):
        """With no param written between them, a build on a used set equals one on a new
        set byte for byte, through new nets, a new eta and a new goal."""
        rng = np.random.default_rng(21 + n_lm)
        cov, nov = landmark_inputs(rng, n_lm)
        landmarks = LandmarkSet(cov, nov, phi)
        assert len(landmarks) == n_lm
        actor = Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)
        q2 = spread_critic(rng)
        nets = {"critic": TwinCritic(spread_critic(rng), q2), "actor": actor, "eta": 1.0}

        def new_critic():
            nets["critic"] = TwinCritic(spread_critic(rng), q2)

        def new_actor():
            nets["actor"] = Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)

        def new_eta():
            nets["eta"] = 0.5

        def new_goal():
            nets["goal"] = rng.uniform(-5, 5, 2)

        new_goal()
        for change in (None, new_critic, new_actor, new_eta, new_goal):
            if change is not None:
                change()
            goal = nets["goal"]
            for state in random_states(rng, 3):
                args = (nets["critic"], nets["actor"], phi, nets["eta"], self.CUTOFF)
                warm = build_graph(state, goal, landmarks, *args)
                cold = build_graph(state, goal, LandmarkSet(cov, nov, phi), *args)
                assert graph_bytes(warm) == graph_bytes(cold)
                assert plan_subgoal(warm).tobytes() == plan_subgoal(cold).tobytes()

    @pytest.mark.parametrize("n_lm", [0, 1, 29])
    def test_matches_all_pairs_reference(self, n_lm):
        rng = np.random.default_rng(31 + n_lm)
        landmarks = LandmarkSet(*landmark_inputs(rng, n_lm), phi)
        critic = TwinCritic(spread_critic(rng), spread_critic(rng))
        actor = Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)
        kept = 0
        for state, goal in zip(random_states(rng, 10), rng.uniform(-5, 5, (10, 2))):
            args = (state, goal, landmarks, critic, actor, phi, 1.0, self.CUTOFF)
            got, ref = build_graph(*args), all_pairs_build_graph(*args)
            assert got.points.tobytes() == ref.points.tobytes()
            for w, w_ref in ((got.w_raw, ref.w_raw), (got.w_cut, ref.w_cut)):
                np.testing.assert_array_equal(np.isinf(w), np.isinf(w_ref))
                np.testing.assert_allclose(w[np.isfinite(w)], w_ref[np.isfinite(w_ref)],
                                           rtol=1e-12)
            assert plan_subgoal(got).tobytes() == plan_subgoal(ref).tobytes()
            kept += np.count_nonzero(np.isfinite(got.w_cut))
        if n_lm == 29:
            assert 0 < kept < 10 * 30 * 30  # the cutoff keeps some edges and drops others

    @pytest.mark.parametrize("write", ["adam", "polyak", "novelty"])
    @pytest.mark.parametrize("n_lm", [1, 29])
    def test_param_write_keeps_the_goal_side(self, n_lm, write):
        """After a param write, a build on the same set and key scores only the state row,
        on the nets as passed, and keeps the block and ``D`` of the first build (not those a
        new set scores on the written nets)."""
        rng = np.random.default_rng(91 + n_lm)
        cov, nov = landmark_inputs(rng, n_lm)
        landmarks = LandmarkSet(cov, nov, phi)
        q1, q2 = spread_critic(rng), spread_critic(rng)
        critic = TwinCritic(q1, q2)
        args = (critic, Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng), phi, 1.0, self.CUTOFF)
        goal = rng.uniform(-5, 5, 2)
        first = build_graph(random_states(rng, 1)[0], goal, landmarks, *args)
        if write == "adam":
            Adam(q2.params, lr=1e-2).step(q2.params, [rng.normal(size=p.shape) for p in q2.params])
        elif write == "polyak":
            polyak_update(q2.params, spread_critic(rng).params, 0.5)
        else:
            NoveltyScorer(4, rng).train(random_states(rng, 8))
        state, critic.rows = random_states(rng, 1)[0], 0
        warm = build_graph(state, goal, landmarks, *args)
        assert critic.rows == n_lm + 1
        cold = build_graph(state, goal, LandmarkSet(cov, nov, phi), *args)
        assert warm.w_raw[1:-1, 1:].tobytes() == first.w_raw[1:-1, 1:].tobytes()
        assert warm._goal_plan().tobytes() == first._goal_plan().tobytes()
        assert warm.w_raw[0].tobytes() == cold.w_raw[0].tobytes()
        if write != "novelty" and n_lm > 1:  # the write moved the scores the set keeps
            assert warm.w_raw[1:-1, 1:].tobytes() != cold.w_raw[1:-1, 1:].tobytes()

    @pytest.mark.parametrize("n_lm", [0, 1, 2, 29])
    def test_rows_scored_per_decision(self, n_lm):
        rng = np.random.default_rng(41 + n_lm)
        cov, nov = landmark_inputs(rng, n_lm)
        landmarks = LandmarkSet(cov, nov, phi)
        counter, stub = RowCountingCritic(-1.0), StubActor()
        # the state row; the block is every landmark to the other landmarks and the goal
        per_decision, block = n_lm + 1, n_lm * n_lm

        def rows(goal, lms=landmarks, critic=counter, actor=stub, eta=1.0, cutoff=self.CUTOFF):
            critic.rows = 0
            build_graph(random_states(rng, 1)[0], goal, lms, critic, actor, phi, eta, cutoff)
            return critic.rows

        goal, other = np.zeros(2), np.ones(2)
        assert [rows(goal) for _ in range(3)] == [per_decision + block] + [per_decision] * 2
        assert [rows(other), rows(other)] == [per_decision + block, per_decision]  # a new goal
        assert rows(other.copy()) == per_decision  # the goal is keyed by value
        assert rows(goal) == per_decision + block  # only the last key is kept
        assert [rows(goal, cutoff=2.0), rows(goal, eta=0.5)] == [per_decision + block] * 2
        new_critic = RowCountingCritic(-1.0)
        assert rows(goal, critic=new_critic) == per_decision + block
        assert rows(goal, critic=new_critic, actor=StubActor()) == per_decision + block  # a new actor
        assert rows(goal, LandmarkSet(cov, nov, phi)) == per_decision + block

    def test_landmark_arrays_are_read_only(self):
        rng = np.random.default_rng(51)
        for landmarks in (LandmarkSet(*landmark_inputs(rng, 5), phi),
                          LandmarkSet(np.zeros((0, 4)), np.zeros((0, 4)), phi)):
            with pytest.raises(ValueError, match="read-only"):
                landmarks.points[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                landmarks.states[...] = 0.0


def count_goal_distances(monkeypatch):
    """Count the computations of distances to the goal, cached or hand-built."""
    calls = []
    real = graphplan.distances_to

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(graphplan, "distances_to", counted)
    return calls


class TestCachedGoalDistances:
    CUTOFF = 5.0

    def nets(self, rng):
        return TwinCritic(spread_critic(rng), spread_critic(rng)), Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)

    def test_recomputed_on_new_cutoff_goal_or_epoch(self, monkeypatch):
        """``D`` is computed once per key: again on a new cutoff or goal, not after a param
        write."""
        rng = np.random.default_rng(61)
        landmarks = LandmarkSet(*landmark_inputs(rng, 12), phi)
        critic, actor = self.nets(rng)
        calls = count_goal_distances(monkeypatch)

        def computed(goal, cutoff):
            calls.clear()
            graph = build_graph(random_states(rng, 1)[0], goal, landmarks, critic, actor, phi, 1.0,
                                cutoff)
            plan_subgoal(graph)
            return len(calls)

        goal, other = rng.uniform(-5, 5, (2, 2))
        assert [computed(goal, 5.0), computed(goal, 5.0)] == [1, 0]
        assert [computed(goal, 3.0), computed(goal, 3.0)] == [1, 0]  # a new cutoff
        assert [computed(other, 3.0), computed(other.copy(), 3.0)] == [1, 0]  # a new goal, by value
        polyak_update(critic.q1.params, critic.q2.params, 0.5)  # a write to the critic's params
        assert computed(other, 3.0) == 0
        assert computed(other, 5.0) == 1  # back to an earlier cutoff: only the last is kept

    @pytest.mark.parametrize("n_lm", [0, 1, 29])
    def test_warm_plan_equals_cold_plan(self, n_lm):
        rng = np.random.default_rng(71 + n_lm)
        cov, nov = landmark_inputs(rng, n_lm)
        landmarks = LandmarkSet(cov, nov, phi)
        critic, actor = self.nets(rng)
        goal = rng.uniform(-5, 5, 2)
        for cutoff in (5.0, 5.0, 2.0, np.inf, 5.0):
            for state in random_states(rng, 4):
                args = (state, goal)
                rest = (critic, actor, phi, 1.0, cutoff)
                warm = build_graph(*args, landmarks, *rest)
                cold = build_graph(*args, LandmarkSet(cov, nov, phi), *rest)
                assert plan_subgoal(warm).tobytes() == plan_subgoal(cold).tobytes()
                assert warm._goal_plan().tobytes() == cold._goal_plan().tobytes()

    @pytest.mark.parametrize("n_lm", [0, 1, 29])
    def test_built_graph_plans_like_hand_built(self, n_lm, monkeypatch):
        rng = np.random.default_rng(81 + n_lm)
        landmarks = LandmarkSet(*landmark_inputs(rng, n_lm), phi)
        critic, actor = self.nets(rng)
        calls = count_goal_distances(monkeypatch)
        for cutoff in (self.CUTOFF, 2.0, np.inf):
            for state, goal in zip(random_states(rng, 5), rng.uniform(-5, 5, (5, 2))):
                built = build_graph(state, goal, landmarks, critic, actor, phi, 1.0, cutoff)
                hand = LandmarkGraph(built.points.copy(), built.w_cut.copy(), built.w_raw.copy(), cutoff)
                calls.clear()
                assert plan_subgoal(hand).tobytes() == plan_subgoal(built).tobytes()
                assert len(calls) == 1  # the hand-built graph computed its own
                assert built._goal_plan().tobytes() == hand._goal_plan().tobytes()


class TestGoalSideKey:
    """One goal-side entry per landmark set, re-scored on a new goal or cutoff and kept
    through param writes."""

    GOALS = ((1.0, -2.0), (-3.0, 4.0))
    CUTOFFS = (5.0, 2.0, np.inf)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.just("goal"), st.integers(0, 1))
            | st.tuples(st.just("cutoff"), st.integers(0, 2))
            | st.tuples(st.sampled_from(["same_goal", "adam", "polyak", "none"]), st.just(0)),
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_interleaved_changes(self, ops, seed):
        rng = np.random.default_rng(seed)
        cov, nov = landmark_inputs(rng, 7)
        landmarks, counted = LandmarkSet(cov, nov, phi), LandmarkSet(cov, nov, phi)
        n_lm = len(landmarks)
        q1, q2 = spread_critic(rng), spread_critic(rng)
        target, opt = q2.copy(), Adam(q2.params, lr=1e-2)
        critic, actor = TwinCritic(q1, q2), Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)
        counter, stub_actor = RowCountingCritic(-1.0), StubActor()
        goal, cutoff = np.array(self.GOALS[0]), self.CUTOFFS[0]
        last = None  # (goal bytes, cutoff) of the previous build
        kept, written = None, False  # the goal side last scored; whether a write followed it
        for op, arg in [("none", 0)] + ops:
            if op == "goal":
                goal = np.array(self.GOALS[arg])
            elif op == "same_goal":
                goal = goal.copy()
            elif op == "cutoff":
                cutoff = self.CUTOFFS[arg]
            elif op == "adam":
                opt.step(q2.params, [rng.normal(size=p.shape) for p in q2.params])
            elif op == "polyak":
                polyak_update(q2.params, target.params, 0.5)
            written |= op in ("adam", "polyak")
            state = random_states(rng, 1)[0]
            rest = (critic, actor, phi, 1.0, cutoff)
            warm = build_graph(state, goal, landmarks, *rest)
            cold = build_graph(state, goal, LandmarkSet(cov, nov, phi), *rest)
            rescored = last != (goal.tobytes(), cutoff)
            if rescored:
                kept, written = (warm.w_raw[1:-1, 1:].tobytes(), warm._goal_plan().tobytes()), False
            assert (warm.w_raw[1:-1, 1:].tobytes(), warm._goal_plan().tobytes()) == kept
            assert warm.w_raw[0].tobytes() == cold.w_raw[0].tobytes()
            if not written:
                assert graph_bytes(warm) == graph_bytes(cold)
                assert plan_subgoal(warm).tobytes() == plan_subgoal(cold).tobytes()
                assert warm._goal_plan().tobytes() == cold._goal_plan().tobytes()

            counter.rows = 0
            build_graph(state, goal, counted, counter, stub_actor, phi, 1.0, cutoff)
            assert counter.rows == n_lm + 1 + (n_lm * n_lm if rescored else 0)
            last = (goal.tobytes(), cutoff)
