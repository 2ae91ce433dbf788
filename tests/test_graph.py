"""Tests for landmark sampling, graph building, and planning."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl.envs import phi
from mazehrl.graphplan import (
    LandmarkGraph,
    LandmarkSet,
    NoveltyScorer,
    build_graph,
    dedup_points,
    dijkstra_first_hop,
    edge_weights,
    fps,
    plan_subgoal,
    pseudo_landmark,
    select_novel,
)
from mazehrl.nets import Adam, Mlp, polyak_update


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


class TestFps:
    def test_m_one_returns_seed(self):
        pool = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        out = fps(pool, 1, np.random.default_rng(0), first_index=2)
        np.testing.assert_array_equal(out, [[9.0, 9.0]])

    def test_collinear_fixture(self):
        pool = np.array([[0.0], [1.0], [10.0]])
        out = fps(pool, 2, np.random.default_rng(0), first_index=0)
        np.testing.assert_array_equal(out, [[0.0], [10.0]])

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

    def test_greedy_two_approximation(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            m = int(rng.integers(2, n + 1))
            pool = rng.uniform(-5, 5, size=(n, 2))
            got = fps(pool, m, rng)
            if len(got) < 2:
                continue
            opt = brute_force_max_min(pool, m)
            assert min_pairwise(got) >= 0.5 * opt - 1e-12


class TestNovelty:
    def test_scores_nonnegative(self):
        scorer = NoveltyScorer(4, np.random.default_rng(0))
        s = np.random.default_rng(1).normal(size=(20, 4))
        assert np.all(scorer.scores(s) >= 0)

    def test_training_reduces_scores_on_seen_states(self):
        rng = np.random.default_rng(3)
        scorer = NoveltyScorer(4, rng, lr=1e-3)
        states = rng.normal(size=(64, 4))
        before = scorer.scores(states).mean()
        for _ in range(500):
            scorer.train(states)
        after = scorer.scores(states).mean()
        assert after < before

    def test_out_of_distribution_scores_higher(self):
        rng = np.random.default_rng(4)
        scorer = NoveltyScorer(4, rng, lr=1e-3)
        seen = rng.normal(scale=0.5, size=(128, 4))
        for _ in range(600):
            scorer.train(seen[rng.integers(0, len(seen), size=32)])
        probe_in = seen[:10]
        probe_out = probe_in + 8.0
        assert scorer.scores(probe_out).mean() > scorer.scores(probe_in).mean()

    def test_state_roundtrip(self):
        rng = np.random.default_rng(5)
        scorer = NoveltyScorer(3, rng)
        scorer.train(rng.normal(size=(8, 3)))
        clone = NoveltyScorer(3, np.random.default_rng(0))
        clone.load_state_dict(scorer.state_dict())
        s = rng.normal(size=(5, 3))
        np.testing.assert_array_equal(clone.scores(s), scorer.scores(s))


class TestNetDtypes:
    def test_every_param_has_its_net_dtype(self):
        """RND nets, also after a checkpoint, and pipeline-shaped actor, critic and target."""
        rng = np.random.default_rng(6)
        scorer = NoveltyScorer(4, rng)
        clone = NoveltyScorer(4, np.random.default_rng(0))
        clone.load_state_dict(scorer.state_dict())
        critic = Mlp([8, 256, 256, 1], rng=rng)
        nets = [scorer.target, scorer.predictor, clone.target, clone.predictor, critic, critic.copy()]
        nets.append(Mlp([6, 256, 256, 2], "scaled_tanh", rng=rng))
        for net in nets:
            assert net.dtype == np.float32
            assert all(p.dtype == net.dtype for p in net.params)


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

    def test_nonfinite_rejected_as_inf(self):
        w = edge_weights(StubCritic(np.nan), StubActor(), np.zeros((1, 4)), np.ones((1, 2)), phi, 1.0)
        assert np.isinf(w[0])

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
            w[n - 1, :] = np.inf  # goal is a sink
            cost, path = brute_force_shortest_path(w, 0, n - 1)
            hop, dist = dijkstra_first_hop(w, points, 0, n - 1)
            if path is None:
                assert hop is None
            else:
                assert hop == path[1]
                assert dist == pytest.approx(cost)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        n = 7
        points = rng.uniform(-5, 5, size=(n, 2))
        w = rng.uniform(0.1, 5.0, size=(n, n))
        np.fill_diagonal(w, np.inf)
        w[n - 1, :] = np.inf
        base = plan_subgoal(LandmarkGraph(points, w, w.copy(), np.inf))
        for _ in range(5):
            perm = np.concatenate([[0], 1 + rng.permutation(n - 2), [n - 1]])
            pp = points[perm]
            wp = w[np.ix_(perm, perm)]
            got = plan_subgoal(LandmarkGraph(pp, wp, wp.copy(), np.inf))
            np.testing.assert_array_equal(got, base)


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


class TestExports:
    def test_dedup_points_tolerance(self):
        pts = np.array([[1.0, 1.0], [1.0 + 1e-12, 1.0], [2.0, 2.0]])
        out = dedup_points(pts)
        assert out.shape == (2, 2)


# ---- loop-form references for the array-form planner ----


def reference_dijkstra_first_hop(weights, points, src, dst):
    """Heap Dijkstra keyed on (dist, coordinate tuple, index)."""
    n = weights.shape[0]
    keys = [tuple(p) for p in points]
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=int)
    dist[src] = 0.0
    heap = [(0.0, keys[src], src)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, _, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        for v in range(n):
            w = weights[u, v]
            if not np.isfinite(w) or done[v]:
                continue
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, keys[v], v))
    if not np.isfinite(dist[dst]):
        return None, np.inf
    node = dst
    while pred[node] != src:
        node = pred[node]
        if node == -1:
            return None, np.inf
    return int(node), float(dist[dst])


def reference_plan_subgoal(graph):
    dst = graph.n_nodes - 1
    if graph.n_nodes <= 2:
        return graph.points[dst].copy()
    hop, _ = reference_dijkstra_first_hop(graph.w_cut, graph.points, 0, dst)
    if hop is not None:
        return graph.points[hop].copy()
    two_hop = graph.w_raw[0, 1:dst] + graph.w_raw[1:dst, dst]
    if two_hop.size and np.any(np.isfinite(two_hop)):
        cand = np.nonzero(two_hop == np.min(two_hop))[0] + 1
        order = sorted(cand, key=lambda i: tuple(graph.points[i]))
        return graph.points[order[0]].copy()
    return graph.points[dst].copy()


def reference_dedup_points(points, aux):
    points = np.asarray(points, dtype=np.float64)
    seen = {}
    keep = []
    for i, p in enumerate(points):
        key = tuple(np.round(p, 9))
        if key not in seen:
            seen[key] = i
            keep.append(i)
    keep = np.array(keep, dtype=int)
    return points[keep], np.asarray(aux)[keep]


def reference_select_novel(candidates, scores, m):
    n = len(candidates)
    if n <= m:
        return candidates.copy()
    order = sorted(range(n), key=lambda i: (-scores[i], -i))
    return candidates[np.array(order[:m])]


# few distinct values, so equal distances, duplicate points and signed zeros are common
COORDS = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0, 1e-12, -1e-12, 1.0 + 1e-12])
WEIGHTS = st.sampled_from([-0.0, 0.0, 1.0, 2.0, 3.0, np.inf, np.nan])


@st.composite
def tie_heavy_graphs(draw):
    n = draw(st.integers(2, 7))
    points = np.array(draw(st.lists(st.tuples(COORDS, COORDS), min_size=n, max_size=n)))
    weights = np.array(draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))).reshape(n, n)
    return points, weights


class TestMatchesLoopReference:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_graphs())
    def test_dijkstra_every_source(self, graph):
        points, weights = graph
        n = len(points)
        for src, dst in itertools.product(range(n), repeat=2):
            hop, dist = dijkstra_first_hop(weights, points, src, dst)
            ref_hop, ref_dist = reference_dijkstra_first_hop(weights, points, src, dst)
            assert hop == ref_hop and dist.hex() == ref_dist.hex()  # -0.0 != 0.0

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_graphs(), st.sampled_from([0.0, 1.0, 2.0, np.inf]), st.booleans())
    def test_plan_subgoal_including_fallback(self, graph, cutoff, cut_goal):
        points, weights = graph
        # as build_graph leaves them: no NaN, no self-loops, no edges out of the goal
        w_raw = np.where(np.isnan(weights), np.inf, weights)
        np.fill_diagonal(w_raw, np.inf)
        w_raw[-1, :] = np.inf
        w_cut = np.where(w_raw <= cutoff, w_raw, np.inf)
        if cut_goal:  # force the two-hop fallback, where equal-cost landmarks are common
            w_cut[:, -1] = np.inf
        g = LandmarkGraph(points, w_cut, w_raw, cutoff)
        got, ref = plan_subgoal(g), reference_plan_subgoal(g)
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORDS, COORDS, COORDS), min_size=1, max_size=12))
    def test_dedup_points(self, rows):
        points = np.array(rows)
        aux = np.arange(len(points))
        got_rows, got_aux = dedup_points(points, aux)
        ref_rows, ref_aux = reference_dedup_points(points, aux)
        np.testing.assert_array_equal(got_aux, ref_aux)
        assert got_rows.tobytes() == ref_rows.tobytes()
        assert dedup_points(points).tobytes() == ref_rows.tobytes()

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

    def min_q(self, x):
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
    q.weights[-1] = rng.normal(0.0, 0.5, size=q.weights[-1].shape)
    q.biases[-1] = np.array([-5.0])
    return q


def random_states(rng, n):
    return np.concatenate([rng.uniform(-5, 5, (n, 2)), rng.uniform(-0.3, 0.3, (n, 2))], axis=1)


def landmark_inputs(rng, n_lm):
    states = random_states(rng, n_lm)
    n_cov = (2 * n_lm) // 3
    return states[:n_cov], states[n_cov:]


def all_pairs_build_graph(state, goal_point, landmarks, critic, actor, goal_map, eta, cutoff):
    """Every ordered pair scored in one batch, as before the block was cached."""
    state = np.asarray(state, dtype=np.float64)
    src_states = np.vstack([state, landmarks.states.reshape(-1, state.size)])
    points = np.vstack([goal_map(state[None, :]), landmarks.points, np.asarray(goal_point)])
    n = len(points)
    src, dst = np.nonzero(~np.eye(n - 1, n, dtype=bool))
    w_raw = np.full((n, n), np.inf)
    w_raw[src, dst] = edge_weights(critic, actor, src_states[src], points[dst], goal_map, eta)
    return LandmarkGraph(points, np.where(w_raw <= cutoff, w_raw, np.inf), w_raw, cutoff)


def graph_bytes(g):
    return g.points.tobytes(), g.w_raw.tobytes(), g.w_cut.tobytes()


class TestCachedLandmarkBlock:
    CUTOFF = 5.0

    @pytest.mark.parametrize("n_lm", [0, 1, 29])
    def test_warm_build_equals_cold_build(self, n_lm):
        rng = np.random.default_rng(21 + n_lm)
        cov, nov = landmark_inputs(rng, n_lm)
        landmarks = LandmarkSet(cov, nov, phi)
        assert len(landmarks) == n_lm
        actor = Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)
        q1, q2 = spread_critic(rng), spread_critic(rng)
        target = q2.copy()
        opt = Adam(q1.params, lr=1e-2)
        nets = {"critic": TwinCritic(q1, q2), "actor": actor, "eta": 1.0}

        def adam_step():
            opt.step(q1.params, [rng.normal(size=p.shape) for p in q1.params])

        def polyak():
            polyak_update(q2.params, target.params, 0.5)

        def new_critic():
            nets["critic"] = TwinCritic(spread_critic(rng), q2)

        def new_actor():
            nets["actor"] = Mlp([6, 16, 16, 2], "scaled_tanh", rng=rng)

        def new_eta():
            nets["eta"] = 0.5

        for change in (None, adam_step, polyak, new_critic, new_actor, new_eta):
            if change is not None:
                change()
            for state, goal in zip(random_states(rng, 3), rng.uniform(-5, 5, (3, 2))):
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
                np.testing.assert_allclose(w[np.isfinite(w)], w_ref[np.isfinite(w_ref)], rtol=1e-12)
            assert plan_subgoal(got).tobytes() == plan_subgoal(ref).tobytes()
            kept += np.count_nonzero(np.isfinite(got.w_cut))
        if n_lm == 29:
            assert 0 < kept < 10 * 30 * 30  # the cutoff keeps some edges and drops others

    @pytest.mark.parametrize("n_lm", [0, 1, 2, 29])
    def test_rows_scored_per_decision(self, n_lm):
        rng = np.random.default_rng(41 + n_lm)
        landmarks = LandmarkSet(*landmark_inputs(rng, n_lm), phi)
        critic, actor = RowCountingCritic(-1.0), StubActor()
        per_decision, block = 3 * n_lm + 1, n_lm * (n_lm - 1)
        for k, state in enumerate(random_states(rng, 3)):
            critic.rows = 0
            build_graph(state, np.zeros(2), landmarks, critic, actor, phi, 1.0, self.CUTOFF)
            assert critic.rows == per_decision + (block if k == 0 else 0)
        critic.rows = 0  # a parameter update anywhere invalidates the block
        polyak_update([np.zeros(1)], [np.zeros(1)], 0.5)
        build_graph(np.zeros(4), np.zeros(2), landmarks, critic, actor, phi, 1.0, self.CUTOFF)
        assert critic.rows == per_decision + block

    def test_landmark_arrays_are_read_only(self):
        rng = np.random.default_rng(51)
        for landmarks in (LandmarkSet(*landmark_inputs(rng, 5), phi),
                          LandmarkSet(np.zeros((0, 4)), np.zeros((0, 4)), phi)):
            with pytest.raises(ValueError, match="read-only"):
                landmarks.points[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                landmarks.states[...] = 0.0
