"""Landmark selection, memory-graph construction, and subgoal planning.

Coverage landmarks come from farthest-point sampling over the (possibly
high-return-weighted) state pool; novelty landmarks from RND scores over
a recent-state window. Graph edges carry negated low-level Q-values as
distance estimates; planning returns the first hop of the shortest path
toward the goal. A built graph is a pure function of its inputs and is
read-only; the landmark->landmark weights it reuses are cached on the
``LandmarkSet`` under a key covering everything they depend on.

Every tie in planning, between shortest-path frontier nodes at equal
distance and between equally cheap fallback landmarks, is broken by one
rule: lexicographic node coordinates, then node index
(``coordinate_rank``). Plans are therefore invariant to landmark order.
"""

from __future__ import annotations

import numpy as np

from .nets import Adam, Mlp, param_epoch

DEDUP_DECIMALS = 9  # rows equal after rounding to this many decimals are duplicates
NOVELTY_HIDDEN = (64, 64)
NOVELTY_OUT_DIM = 16


def dedup_points(points, aux=None):
    """Drop rows equal after rounding to ``DEDUP_DECIMALS`` decimals.

    Keeps the first occurrence of each row, in input order; ``aux`` is
    filtered alongside.
    """
    points = np.asarray(points, dtype=np.float64)
    _, first = np.unique(np.round(points, DEDUP_DECIMALS), axis=0, return_index=True)
    keep = np.sort(first)
    if aux is None:
        return points[keep]
    return points[keep], np.asarray(aux)[keep]


def fps(pool, m, rng, first_index=None):
    """Greedy farthest-point sampling under Euclidean distance.

    The first point is drawn randomly from the pool (or fixed via
    ``first_index``); each subsequent point maximizes the minimum
    distance to the chosen set, ties broken by lowest index. The pool is
    deduplicated first; asking for more points than remain returns the
    whole deduplicated pool.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError("pool must be a nonempty (n, d) array")
    unique = dedup_points(pool)
    n = unique.shape[0]
    if m >= n:
        return unique.copy()
    start = int(rng.integers(0, n)) if first_index is None else int(first_index)
    chosen = [start]
    dists = np.linalg.norm(unique - unique[start], axis=1)
    for _ in range(m - 1):
        nxt = int(np.argmax(dists))  # argmax takes the lowest index on ties
        chosen.append(nxt)
        dists = np.minimum(dists, np.linalg.norm(unique - unique[nxt], axis=1))
    return unique[chosen]


class NoveltyScorer:
    """Random-network-distillation novelty: prediction error against a frozen net."""

    def __init__(self, state_dim, rng, lr=3e-4):
        sizes = [state_dim, *NOVELTY_HIDDEN, NOVELTY_OUT_DIM]
        self.target = Mlp(sizes, rng=rng)
        # give the frozen target nontrivial output structure
        last = self.target.weights[-1]
        self.target.weights[-1] = rng.normal(0.0, 0.5, size=last.shape).astype(last.dtype)
        self.predictor = Mlp(sizes, rng=rng)
        self.opt = Adam(self.predictor.params, lr=lr)

    def scores(self, states):
        """Nonnegative novelty per state: mean squared predictor-target error."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        diff = self.predictor.forward(states) - self.target.forward(states)
        return np.mean(diff * diff, axis=1)

    def train(self, states):
        """One predictor step toward the frozen target; returns the batch loss."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        cache = self.predictor.forward_cache(states)
        pred = self.predictor.output(cache)
        diff = pred - self.target.forward(states)
        loss = float(np.mean(diff * diff))
        grads = self.predictor.grad_params_cached(cache, 2.0 * diff / diff.size)
        self.opt.step(self.predictor.params, grads)
        return loss

    def state_dict(self):
        return {
            "target": self.target.state_dict(),
            "predictor": self.predictor.state_dict(),
            "opt": self.opt.state_dict(),
        }

    def load_state_dict(self, state):
        self.target = Mlp.from_state_dict(state["target"])
        self.predictor = Mlp.from_state_dict(state["predictor"])
        self.opt = Adam.from_state_dict(state["opt"], self.predictor.params)


def select_novel(candidate_states, scorer, m):
    """Top-m candidates by novelty score; ties favor more recent candidates.

    Candidates are ordered oldest first; returns the selected states
    (all of them when fewer than m).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    candidates = np.atleast_2d(np.asarray(candidate_states, dtype=np.float64))
    n = candidates.shape[0]
    if n <= m:
        return candidates.copy()
    scores = scorer.scores(candidates)
    order = np.lexsort((-np.arange(n), -scores))
    return candidates[order[:m]]


# ---- graph construction and planning ----


class LandmarkSet:
    """Coverage and novelty landmarks with their backing full states.

    ``points`` and ``states`` are read-only, because ``build_graph`` caches
    the landmark->landmark edge weights of this set on it.
    """

    def __init__(self, coverage_states, novelty_states, goal_map):
        cov = np.asarray(coverage_states, dtype=np.float64)
        nov = np.asarray(novelty_states, dtype=np.float64)
        self.goal_map = goal_map
        parts = [np.atleast_2d(a) for a in (cov, nov) if a.size]
        if parts:
            all_states = np.concatenate(parts, axis=0)
            n_cov = np.atleast_2d(cov).shape[0] if cov.size else 0
            tags = ["coverage"] * n_cov + ["novelty"] * (len(all_states) - n_cov)
            pts = goal_map(all_states)
            self.points, kept_aux = dedup_points(pts, np.arange(len(pts)))
            self.states = all_states[kept_aux]
            self.tags = [tags[i] for i in kept_aux]
        else:
            self.points = np.zeros((0, 2))
            self.states = np.zeros((0, 0))
            self.tags = []
        self.points.setflags(write=False)
        self.states.setflags(write=False)
        self._block_key = None
        self._block = None

    def __len__(self):
        return len(self.points)

    def _edge_block(self, critic, actor, goal_map, eta):
        """L x L landmark->landmark weights (inf diagonal), scored once per key."""
        key = (critic, actor, goal_map, eta, param_epoch())
        if self._block_key != key:
            n = len(self)
            block = np.full((n, n), np.inf)
            if n > 1:
                src, dst = np.nonzero(~np.eye(n, dtype=bool))
                block[src, dst] = edge_weights(
                    critic, actor, self.states[src], self.points[dst], goal_map, eta
                )
            self._block_key, self._block = key, block
        return self._block


def edge_weights(critic, actor, src_states, dst_points, goal_map, eta):
    """UVFA distance estimates for (source state, target point) pairs.

    w = -min(Q1, Q2)(s_i, dst - eta * phi(s_i), pi_low(...)), clamped
    below at zero. Non-finite estimates come back as +inf (edge rejected).
    Values are computed in the nets' dtype; ``build_graph`` writes them
    into float64 graph arrays, which hold every float32 value exactly.
    A pair's value can differ in the last bits between batches of
    different sizes (BLAS blocks the products by batch shape), so the
    same pair scored in another batch is equal only to within a few ulp.
    """
    src_states = np.atleast_2d(src_states)
    dst_points = np.atleast_2d(dst_points)
    rel = dst_points - eta * goal_map(src_states)
    obs = np.concatenate([src_states, rel], axis=1)
    act = actor.forward(obs)
    q = critic.min_q(np.concatenate([obs, act], axis=1))
    w = np.maximum(-q, 0.0)
    w[~np.isfinite(w)] = np.inf
    return w


class LandmarkGraph:
    """Weighted digraph over landmark points plus the current state and goal.

    Node 0 is the current state, nodes 1..L are landmarks, node L+1 is
    the goal. ``w_cut`` holds cutoff-filtered weights (inf = no edge);
    ``w_raw`` keeps unfiltered estimates for the unreachable-goal fallback.
    """

    def __init__(self, points, w_cut, w_raw, cutoff):
        self.points = points
        self.w_cut = w_cut
        self.w_raw = w_raw
        self.cutoff = cutoff

    @property
    def n_nodes(self):
        return len(self.points)


def build_graph(state, goal_point, landmarks: LandmarkSet, critic, actor, goal_map, eta, cutoff):
    """Assemble the planning graph for one high-level decision.

    The landmark->landmark weights depend only on the landmarks and the
    nets, so they are scored once and kept on ``landmarks``, keyed on
    ``(critic, actor, goal_map, eta, nets.param_epoch())``: the objects by
    identity, ``eta`` by value, and the epoch, which every ``Adam.step``
    and ``polyak_update`` raises. Parameters written any other way leave
    the cached block stale. Each decision scores the 3L + 1 remaining
    pairs (state -> every other node, landmark -> state, landmark -> goal)
    in one batch of the same shape whether the block was cached or not, so
    a graph built from a cached block is byte-identical to a cold build.
    """
    state = np.asarray(state, dtype=np.float64)
    n_lm = len(landmarks)
    src_states = np.vstack([state, landmarks.states.reshape(n_lm, state.size)])
    points = np.vstack(
        [goal_map(state[None, :]), landmarks.points, np.asarray(goal_point, dtype=np.float64)]
    )
    n = len(points)
    lm = np.arange(1, n - 1)
    # the goal node (n - 1) has no outgoing edges and no node has a self-loop
    src = np.concatenate([np.zeros(n - 1, dtype=np.intp), lm, lm])
    dst = np.concatenate([np.arange(1, n), np.zeros(n_lm, dtype=np.intp), np.full(n_lm, n - 1)])
    w_raw = np.full((n, n), np.inf)
    w_raw[1:-1, 1:-1] = landmarks._edge_block(critic, actor, goal_map, eta)
    w_raw[src, dst] = edge_weights(critic, actor, src_states[src], points[dst], goal_map, eta)
    w_cut = np.where(w_raw <= cutoff, w_raw, np.inf)
    return LandmarkGraph(points, w_cut, w_raw, cutoff)


def coordinate_rank(points):
    """Position of each row in lexicographic (coordinates, index) order."""
    points = np.asarray(points)
    rank = np.empty(len(points), dtype=np.intp)
    rank[np.lexsort(points.T[::-1])] = np.arange(len(points))
    return rank


def dijkstra_first_hop(weights, points, src, dst):
    """Shortest path under nonnegative weights; returns (first_hop, dist).

    Dense O(n^2) Dijkstra: each round settles the open node with the
    smallest finite distance, ties broken by lexicographic node
    coordinates, then node index, so the result is invariant to node
    ordering. Returns (None, inf) when dst is unreachable.
    """
    n = weights.shape[0]
    rank = coordinate_rank(points)
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=int)
    dist[src] = 0.0
    open_ = np.ones(n, dtype=bool)
    for _ in range(n):
        frontier = np.where(open_, dist, np.inf)
        best = frontier.min()
        if not np.isfinite(best):
            break
        tied = np.flatnonzero(frontier == best)
        u = tied[np.argmin(rank[tied])]
        open_[u] = False
        if u == dst:
            break
        row = weights[u]
        nd = dist[u] + row
        better = np.isfinite(row) & open_ & (nd < dist)
        dist[better] = nd[better]
        pred[better] = u
    if not np.isfinite(dist[dst]):
        return None, np.inf
    node = dst
    while pred[node] != src:
        node = pred[node]
        if node == -1:
            return None, np.inf
    return int(node), float(dist[dst])


def plan_subgoal(graph: LandmarkGraph):
    """First waypoint toward the goal.

    Runs the shortest-path search from the current state (node 0) to the
    goal (last node) and returns the first landmark on that path (the
    goal point itself if the direct edge wins). If the goal is
    unreachable under the cutoff, falls back to the landmark minimizing
    the raw two-hop estimate w(s, L) + w(L, g), ties broken by
    ``coordinate_rank``; a NaN sum counts as no route. With no finite
    option the goal point is returned.
    """
    dst = graph.n_nodes - 1
    if graph.n_nodes <= 2:
        return graph.points[dst].copy()
    hop, _ = dijkstra_first_hop(graph.w_cut, graph.points, 0, dst)
    if hop is not None:
        return graph.points[hop].copy()
    two_hop = graph.w_raw[0, 1:dst] + graph.w_raw[1:dst, dst]
    two_hop[np.isnan(two_hop)] = np.inf
    if np.any(np.isfinite(two_hop)):
        cand = np.flatnonzero(two_hop == np.min(two_hop)) + 1
        best = cand[np.argmin(coordinate_rank(graph.points)[cand])]
        return graph.points[best].copy()
    return graph.points[dst].copy()


def pseudo_landmark(sg_plan, phi_state, delta):
    """Shift the planned waypoint distance ``delta`` away from the agent.

    Returns (point, degenerate) where degenerate flags sg_plan == phi(s),
    in which case the waypoint is returned unchanged.
    """
    sg_plan = np.asarray(sg_plan, dtype=np.float64)
    phi_state = np.asarray(phi_state, dtype=np.float64)
    ray = sg_plan - phi_state
    norm = float(np.linalg.norm(ray))
    if norm == 0.0:
        return sg_plan.copy(), True
    return sg_plan + delta * ray / norm, False
