"""Landmark selection, memory-graph construction, and subgoal planning.

Coverage landmarks come from farthest-point sampling over the (possibly
high-return-weighted) state pool; novelty landmarks from RND scores over
a recent-state window. Graph edges carry negated low-level Q-values as
distance estimates; planning returns the first hop of the shortest path
toward the goal. A built graph is a pure function of its inputs and is
read-only. The weights out of the landmarks (to every other landmark and
to the goal) are cached on the ``LandmarkSet`` under a key covering
everything they depend on, the goal included; a decision scores only the
edges out of the current state. Node 0, the state, has no in-edges: no
planner reads them. The cached block and the state row are each always
scored in one batch of their own shape, so a graph built from the cache
equals a cold build byte for byte.

Every tie in planning, between shortest-path frontier nodes at equal
distance and between equally cheap fallback landmarks, is broken by one
rule: lexicographic node coordinates, then node index
(``coordinate_rank``). Plans are therefore invariant to landmark order.
"""

from __future__ import annotations

import numpy as np

from .nets import Adam, Mlp, param_epoch

NOVELTY_HIDDEN = (64, 64)
NOVELTY_OUT_DIM = 16


def dedup_points(points, aux=None):
    """Drop (n, d) rows exactly equal (``==``) to an earlier row.

    Keeps the first occurrence of each row, in input order; ``aux`` is
    filtered alongside. +0.0 equals -0.0, rows 1e-12 apart both survive,
    and a row holding a NaN is never a duplicate. One stable lexicographic
    sort puts equal rows next to each other, first occurrence first.
    """
    points = np.asarray(points, dtype=np.float64)
    order = np.lexsort(points[:, ::-1].T)
    rows = points[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    keep = np.sort(order[first])
    if aux is None:
        return points[keep]
    return points[keep], np.asarray(aux)[keep]


def fps(pool, m, rng):
    """Greedy farthest-point sampling under Euclidean distance.

    The first point is drawn randomly from the pool; each subsequent
    point maximizes the minimum distance to the chosen set, ties broken by
    lowest index. Exact duplicate rows are dropped first; asking for more
    points than remain returns the whole deduplicated pool. Each of the
    m - 1 rounds computes one row of distances, ``np.linalg.norm``'s
    arithmetic coordinate-major (one contiguous row per coordinate, summed
    left to right as the row norm does) in reused buffers, and lowers the
    running minimum in place.
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
    chosen = [int(rng.integers(0, n))]
    dists = np.full(n, np.inf)
    cols = np.ascontiguousarray(unique.T)
    diff = np.empty_like(cols)
    d = np.empty(n)
    for _ in range(m - 1):
        np.subtract(cols, cols[:, chosen[-1], None], out=diff)
        diff *= diff
        np.add.reduce(diff, axis=0, out=d)
        np.sqrt(d, out=d)
        np.minimum(dists, d, out=dists)
        chosen.append(int(np.argmax(dists)))  # argmax takes the lowest index on ties
    return unique[chosen]


class NoveltyScorer:
    """Random-network-distillation novelty: prediction error against a frozen net.

    ``scores`` keeps the forward passes it ran, keyed on the exact input
    bytes and shape, until the next ``train``; a ``train`` on the same
    states reuses them instead of running both nets again. Every ``train``
    drops them, because its step changes the predictor.
    """

    def __init__(self, state_dim, rng, lr=3e-4):
        sizes = [state_dim, *NOVELTY_HIDDEN, NOVELTY_OUT_DIM]
        self.target = Mlp(sizes, rng=rng)
        # give the frozen target nontrivial output structure
        last = self.target.weights[-1]
        last[...] = rng.normal(0.0, 0.5, size=last.shape)
        self.predictor = Mlp(sizes, rng=rng)
        self.opt = Adam(self.predictor.params, lr=lr)
        self._scored = None  # (input bytes, shape, predictor cache, target output)

    def scores(self, states):
        """Nonnegative novelty per state: mean squared predictor-target error."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        cache = self.predictor.forward_cache(states)
        target = self.target.forward(states)
        self._scored = (states.tobytes(), states.shape, cache, target)
        diff = self.predictor.output(cache) - target
        return np.mean(diff * diff, axis=1)

    def train(self, states):
        """One predictor step toward the frozen target; returns the batch loss."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        scored, self._scored = self._scored, None
        if scored is not None and scored[1] == states.shape and scored[0] == states.tobytes():
            cache, target = scored[2], scored[3]
        else:
            cache, target = self.predictor.forward_cache(states), self.target.forward(states)
        pred = self.predictor.output(cache)
        diff = pred - target
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
        self._scored = None


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

    The coverage states come first, then the novelty states; a state whose
    goal point exactly equals an earlier one is dropped (``dedup_points``).
    ``points`` and ``states`` are read-only, because ``build_graph`` caches
    the weights of the edges out of these landmarks on it.
    """

    def __init__(self, coverage_states, novelty_states, goal_map):
        cov = np.asarray(coverage_states, dtype=np.float64)
        nov = np.asarray(novelty_states, dtype=np.float64)
        parts = [np.atleast_2d(a) for a in (cov, nov) if a.size]
        if parts:
            all_states = np.concatenate(parts, axis=0)
            pts = goal_map(all_states)
            self.points, kept_aux = dedup_points(pts, np.arange(len(pts)))
            self.states = all_states[kept_aux]
        else:
            self.points = np.zeros((0, 2))
            self.states = np.zeros((0, 0))
        self.points.setflags(write=False)
        self.states.setflags(write=False)
        self._block_key = None
        self._block = None

    def __len__(self):
        return len(self.points)

    def _edge_block(self, critic, actor, goal_map, eta, goal_point):
        """L x (L + 1) weights from each landmark to every landmark and the goal.

        Column j < L is landmark j and column L the goal; the diagonal is
        inf (no self-loops). The L * L finite-candidate pairs are scored in
        one batch, once per key ``(critic, actor, goal_map, eta,
        nets.param_epoch(), goal bytes)``, so a new episode goal or any
        parameter step re-scores the whole block.
        """
        key = (critic, actor, goal_map, eta, param_epoch(), goal_point.tobytes())
        if self._block_key != key:
            n = len(self)
            block = np.full((n, n + 1), np.inf)
            if n:
                src, dst = np.nonzero(~np.eye(n, n + 1, dtype=bool))
                targets = np.vstack([self.points, goal_point])
                block[src, dst] = edge_weights(
                    critic, actor, self.states[src], targets[dst], goal_map, eta
                )
            self._block_key, self._block = key, block
        return self._block


def edge_weights(critic, actor, src_states, dst_points, goal_map, eta):
    """UVFA distance estimates for (source state, target point) pairs.

    w = -min(Q1, Q2)(s_i, dst - eta * phi(s_i), pi_low(...)), clamped
    below at zero. Non-finite estimates come back as +inf (edge rejected).
    Values are computed in the nets' dtype; ``build_graph`` writes them
    into float64 graph arrays, which hold every float32 value exactly.
    A pair's value can differ in its low bits between batches of
    different sizes (BLAS blocks the products by batch shape); where
    ``-q`` is near zero that can be many ulp of the result.
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
    Node 0 has no in-edges and the goal no out-edges (column 0 and the
    last row are inf): a search from node 0 never relaxes its source, and
    the fallback reads only ``w_raw[0, 1:dst]`` and ``w_raw[1:dst, dst]``.
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

    The weights out of the landmarks depend only on the landmarks, the
    goal and the nets, so they are scored once and kept on ``landmarks``
    (see ``LandmarkSet._edge_block``), keyed on ``(critic, actor,
    goal_map, eta, nets.param_epoch(), goal bytes)``: the objects by
    identity, ``eta`` by value, the epoch, which every ``Adam.step`` and
    ``polyak_update`` raises, and the goal by value. Parameters written
    any other way leave the cached block stale. Each decision scores only
    the L + 1 pairs from the state to every other node, in a batch of
    their own; no edge enters node 0. The block and the state row are
    each always scored in a batch of the same shape, cached or not, so a
    graph built from a cached block is byte-identical to a cold build.
    """
    state = np.asarray(state, dtype=np.float64)
    goal_point = np.asarray(goal_point, dtype=np.float64)
    points = np.vstack([goal_map(state[None, :]), landmarks.points, goal_point])
    n = len(points)
    w_raw = np.full((n, n), np.inf)
    w_raw[0, 1:] = edge_weights(
        critic, actor, np.broadcast_to(state, (n - 1, state.size)), points[1:], goal_map, eta
    )
    w_raw[1:-1, 1:] = landmarks._edge_block(critic, actor, goal_map, eta, goal_point)
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
    coordinates, then node index, so the result is invariant to the order
    of nodes with distinct coordinates. Returns (None, inf) when dst is
    unreachable. Non-finite weights are no edge.

    The nodes are relabelled once in ``coordinate_rank`` order, so
    ``np.argmin``'s lowest-index rule is the tie-break. ``frontier`` is
    the distance of each open node (inf once settled). A settled node has
    ``dist <= dist[u] <= dist[u] + w`` under nonnegative weights, so a
    relaxation can never select it.
    """
    n = weights.shape[0]
    rank = coordinate_rank(points)
    order = np.empty_like(rank)
    order[rank] = np.arange(n)
    w = weights[np.ix_(order, order)]
    w[~np.isfinite(w)] = np.inf
    s, t = rank[src], rank[dst]
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.intp)
    dist[s] = 0.0
    frontier = dist.copy()
    for _ in range(n):
        u = frontier.argmin()
        if frontier[u] == np.inf:
            break
        frontier[u] = np.inf
        if u == t:
            break
        nd = dist[u] + w[u]
        better = nd < dist
        dist[better] = frontier[better] = nd[better]
        pred[better] = u
    if dist[t] == np.inf:
        return None, np.inf
    node = t
    while pred[node] != s:
        node = pred[node]
        if node == -1:
            return None, np.inf
    return int(order[node]), float(dist[t])


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
