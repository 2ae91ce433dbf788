"""Landmark selection, memory-graph construction, and subgoal planning.

Coverage landmarks come from farthest-point sampling over the (possibly
high-return-weighted) state pool; novelty landmarks from RND scores over
a recent-state window. Graph edges carry negated low-level Q-values as
distance estimates; planning returns the first hop of a shortest path
toward the goal (``plan_subgoal``) or the whole path (``plan_path``). A
built graph is read-only. Node 0, the state, has no in-edges, so every
path from it is one state-row edge ``w(0, j)`` followed by a path from
``j`` to the goal among the landmarks. Everything but the state row, the
goal side, is kept on the ``LandmarkSet`` (``LandmarkSet._goal_side``):
the weights out of the landmarks (to every other landmark and to the goal)
and, over their cut, the shortest distance ``D[j]`` from each landmark and
the goal to the goal. A warm decision scores only the edges out of the
current state and takes one argmin over ``w(0, j) + D[j]``. ``D`` sums
each path goal-outward, ``w(u, v1) + (w(v1, v2) + (... + 0))``. The block
and the state row are each always scored in one batch of their own shape,
so with no param written between them a warm build equals a cold build
byte for byte.

Every tie in planning is broken by one rule, where it occurs
(``_lowest``): among exactly equal values the lexicographically lowest
node point wins, and of equal points the lowest node index. It picks the
first hop among all shortest paths and the landmark among equally cheap
fallbacks, so plans are invariant to landmark order.
"""

from __future__ import annotations

import numpy as np

from ._checks import FINITE, NONNEGATIVE, check_count, check_real
from .nets import Adam, Mlp

NOVELTY_HIDDEN = (64, 64)
NOVELTY_OUT_DIM = 16
NOVELTY_LR = 3e-4  # the predictor's Adam rate
_NOVELTY_PARTS = ("target", "predictor", "opt")  # the key prefixes of a NoveltyScorer state_dict


def dedup_points(points):
    """Indices of the (n, d) rows not exactly equal (``==``) to an earlier row.

    The first occurrence of each row is kept, and the indices come back
    ascending (input order); ``points[dedup_points(points)]`` is the
    deduplicated array. +0.0 equals -0.0, rows 1e-12 apart both survive,
    and a row holding a NaN is never a duplicate. One stable lexicographic
    sort puts equal rows next to each other, first occurrence first.
    """
    points = np.asarray(points, dtype=np.float64)
    order = np.lexsort(points[:, ::-1].T)
    rows = points[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return np.sort(order[first])


def fps(pool, m, rng):
    """Greedy farthest-point sampling under Euclidean distance.

    The first point is drawn randomly from the pool; each subsequent
    point maximizes the minimum distance to the chosen set, ties broken by
    lowest index. A pool with a non-finite coordinate raises
    ``ValueError``. Exact duplicate rows are dropped first; asking for more
    points than remain returns the whole deduplicated pool. Each of the
    m - 1 rounds computes one row of distances, ``np.linalg.norm``'s
    arithmetic coordinate-major (one contiguous row per coordinate, summed
    left to right as the row norm does) in reused buffers, and lowers the
    running minimum in place.
    """
    m = check_count(m, "m", 1)
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0 or not np.isfinite(pool).all():
        raise ValueError("pool must be a nonempty, finite (n, d) array")
    unique = pool[dedup_points(pool)]
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

    ``rng`` draws both nets; the predictor trains with Adam at ``NOVELTY_LR``.
    ``state_dict`` joins the state dicts of the three parts in one, each
    key prefixed with ``target/``, ``predictor/`` or ``opt/``, so one
    ``np.savez`` writes it.
    ``scores`` keeps the forward passes it ran, keyed on the exact input
    bytes and shape, until the next ``train``; a ``train`` on the same
    states reuses them instead of running both nets again. Every ``train``
    drops them, because its step changes the predictor.
    """

    def __init__(self, state_dim, rng):
        sizes = [state_dim, *NOVELTY_HIDDEN, NOVELTY_OUT_DIM]
        self.target = Mlp(sizes, rng=rng)
        # give the frozen target nontrivial output structure
        last = self.target.weights[-1]
        last[...] = rng.normal(0.0, 0.5, size=last.shape)
        self.predictor = Mlp(sizes, rng=rng)
        self.opt = Adam(self.predictor.params, lr=NOVELTY_LR)
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
        """One predictor step toward the frozen target; returns the batch loss.

        An empty batch raises ``ValueError`` before anything is written."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if not len(states):
            raise ValueError("train needs at least one state")
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
        parts = zip(_NOVELTY_PARTS, (self.target, self.predictor, self.opt))
        return {f"{part}/{k}": v for part, obj in parts for k, v in obj.state_dict().items()}

    def load_state_dict(self, state):
        """Replace the nets and optimizer from the parts ``state`` holds, under the
        loader contract (``nets`` module docstring); a rejected ``state`` changes nothing.
        A part loader's error is raised again with the part's name in front, and a
        ``target`` and ``predictor`` of different ``layer_sizes`` are rejected."""
        what = "novelty checkpoint"
        if not isinstance(state, dict):
            raise ValueError(f"{what} must be a dict, got {type(state).__name__}")
        parts = {part: {} for part in _NOVELTY_PARTS}
        for key, value in state.items():
            part, _, rest = str(key).partition("/")
            if part not in parts:
                raise ValueError(f"{what} key {key!r} has no part prefix {_NOVELTY_PARTS}")
            parts[part][rest] = value
        for part, keys in parts.items():
            if not keys:
                raise ValueError(f"{what} has no {part!r} keys")

        def load(part, loader, *args):
            try:
                return loader(parts[part], *args)
            except ValueError as err:
                raise ValueError(f"{what} part {part!r}: {err}") from err

        target, predictor = load("target", Mlp.from_state_dict), load("predictor", Mlp.from_state_dict)
        if target.layer_sizes != predictor.layer_sizes:
            raise ValueError(f"{what} parts 'target' and 'predictor' cannot score together: layer_sizes "
                             f"{target.layer_sizes} and {predictor.layer_sizes}")
        opt = load("opt", Adam.from_state_dict, predictor.params)
        self.target, self.predictor, self.opt, self._scored = target, predictor, opt, None


def select_novel(candidate_states, scorer, m):
    """Top-m candidates by novelty score; ties favor more recent candidates.

    Candidates are ordered oldest first; returns the selected states
    (all of them when fewer than m).
    """
    m = check_count(m, "m", 1)
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
    on the set the planner's goal side (``_goal_side``), which depends on
    them. The goal side is scored on the nets as they are at the first build
    for its key and kept while the key holds: later writes to those nets'
    params do not reach it, while the state row is always scored on the nets
    as passed. For a goal side on newer nets, build a new ``LandmarkSet``.
    """

    def __init__(self, coverage_states, novelty_states, goal_map):
        cov = np.asarray(coverage_states, dtype=np.float64)
        nov = np.asarray(novelty_states, dtype=np.float64)
        parts = [np.atleast_2d(a) for a in (cov, nov) if a.size]
        if parts:
            all_states = np.concatenate(parts, axis=0)
            pts = np.asarray(goal_map(all_states), dtype=np.float64)
            keep = dedup_points(pts)
            self.points, self.states = pts[keep], all_states[keep]
        else:
            self.points = np.zeros((0, 2))
            self.states = np.zeros((0, 0))
        self.points.setflags(write=False)
        self.states.setflags(write=False)
        self._key = None
        self._cached = None

    def __len__(self):
        return len(self.points)

    def _goal_side(self, critic, actor, goal_map, eta, goal_point, cutoff):
        """(block, D): the planning graph's parts that skip the state.

        ``block`` is the L x (L + 1) raw weights from each landmark to every
        landmark (column j < L) and the goal (column L); the diagonal is inf
        (no self-loops). ``D`` is ``distances_to`` the goal from each
        landmark and the goal over the cut block. The L * L finite-candidate
        pairs are scored in one batch, and all of it is kept for the last key
        ``(critic, actor, goal_map, eta, goal bytes, cutoff)``, the nets by
        identity and the rest by value; a new key re-scores the whole block.
        """
        key = (critic, actor, goal_map, eta, goal_point.tobytes(), cutoff)
        if self._key != key:
            n = len(self)
            targets = np.vstack([self.points, goal_point])
            block = np.full((n, n + 1), np.inf)
            if n:
                src, dst = np.nonzero(~np.eye(n, n + 1, dtype=bool))
                block[src, dst] = edge_weights(
                    critic, actor, self.states[src], targets[dst], goal_map, eta
                )
            # the goal row of w_cut[1:, 1:]: the goal has no out-edges
            cut = np.vstack([np.where(block <= cutoff, block, np.inf), np.full(n + 1, np.inf)])
            self._key, self._cached = key, (block, distances_to(cut, n))
        return self._cached


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
    w[~np.isfinite(q)] = np.inf
    return w


class LandmarkGraph:
    """Weighted digraph over landmark points plus the current state and goal.

    Node 0 is the current state, nodes 1..L are landmarks, node L+1 is
    the goal. ``w_cut`` holds cutoff-filtered weights (inf = no edge);
    ``w_raw`` keeps unfiltered estimates for the unreachable-goal fallback.
    Node 0 has no in-edges and the goal no out-edges (column 0 and the
    last row are inf): the planner reads only row 0 and ``w_cut[1:, 1:]``,
    and the fallback only ``w_raw[0, 1:dst]`` and ``w_raw[1:dst, dst]``.
    ``build_graph`` hands over the distances ``D`` cached on the
    ``LandmarkSet`` (``LandmarkSet._goal_side``); a graph built by hand
    computes its own from its ``w_cut`` on the first ``plan_subgoal``.
    """

    def __init__(self, points, w_cut, w_raw, cutoff):
        self.points = points
        self.w_cut = w_cut
        self.w_raw = w_raw
        self.cutoff = cutoff
        self._plan = None

    @property
    def n_nodes(self):
        return len(self.points)

    def _goal_plan(self):
        """``D``: each of nodes 1..'s distance to the goal, computed on first use."""
        if self._plan is None:
            self._plan = distances_to(self.w_cut[1:, 1:], self.n_nodes - 2)
        return self._plan


def build_graph(state, goal_point, landmarks: LandmarkSet, critic, actor, goal_map, eta, cutoff):
    """Assemble the planning graph for one high-level decision (module docstring).

    Each decision scores only the L + 1 state-row pairs, in a batch of their
    own; the goal side and its ``D`` come from ``landmarks`` (``LandmarkSet``
    says how long they are kept). ``eta`` is finite, ``cutoff`` >= 0.
    """
    eta, cutoff = check_real(eta, "eta", FINITE), check_real(cutoff, "cutoff", NONNEGATIVE)
    state = np.asarray(state, dtype=np.float64)
    goal_point = np.asarray(goal_point, dtype=np.float64)
    points = np.vstack([goal_map(state[None, :]), landmarks.points, goal_point])
    n = len(points)
    w_raw = np.full((n, n), np.inf)
    w_raw[0, 1:] = edge_weights(
        critic, actor, np.broadcast_to(state, (n - 1, state.size)), points[1:], goal_map, eta
    )
    w_raw[1:-1, 1:], plan = landmarks._goal_side(critic, actor, goal_map, eta, goal_point, cutoff)
    graph = LandmarkGraph(points, np.where(w_raw <= cutoff, w_raw, np.inf), w_raw, cutoff)
    graph._plan = plan
    return graph


def distances_to(weights, dst):
    """Shortest distance from every node to ``dst``; inf where unreachable.

    Vectorised Bellman-Ford from ``dst``: ``d[u] = min(d[u], min_v w[u, v]
    + d[v])`` for all u at once until ``d`` stops changing, at most n
    rounds. Non-finite weights are no edge; weights are nonnegative
    (``edge_weights`` clamps at zero). Each path's sum runs goal-outward,
    ``w(u, v1) + (w(v1, v2) + (... + 0))``, and ``fl(w + x)`` is monotone
    in ``x``, so ``d`` is the least fixed point: the minimum of those
    float sums over all paths, whatever the node order.
    """
    w = np.where(np.isfinite(weights), weights, np.inf)
    d = np.full(len(w), np.inf)
    d[dst] = 0.0
    for _ in range(len(w)):
        nd = np.minimum(d, (w + d).min(axis=1))
        if not (nd < d).any():
            break
        d = nd
    return d


def plan_subgoal(graph: LandmarkGraph):
    """First waypoint toward the goal.

    Every path from the state (node 0) is one edge ``w_cut[0, j]`` and
    then a shortest path from ``j`` to the goal, of length ``D[j]``
    (``distances_to`` over ``w_cut[1:, 1:]``; the goal's own ``D`` is 0).
    The waypoint is the node ``j`` minimizing ``w_cut[0, j] + D[j]``, ties
    broken by ``_lowest``: a first hop of a shortest path (the goal point
    itself if the direct edge wins). A non-finite total is no route. If
    the goal is unreachable under the cutoff, falls back to the landmark
    minimizing the raw two-hop estimate w(s, L) + w(L, g), ties broken the
    same way; a NaN sum counts as no route. With no finite option the goal
    point is returned.
    """
    return graph.points[_first_hop(graph)[0]].copy()


def plan_path(graph: LandmarkGraph):
    """The planned route's node indices, the state (0) first and the goal last.

    The first hop ``j`` is ``plan_subgoal``'s. From there the route follows
    tight edges, those with ``w_cut[u, v] + D[v] == D[u]``: since ``D`` is
    the least fixed point of those float sums, every node of finite ``D``
    has a tight path to the goal, and the route's goal-outward sum from
    ``j`` is ``D[j]``. Zero-weight edges can make tight cycles, so each
    next node is, among the tight successors, one with the fewest tight
    hops left to the goal, ties broken by ``_lowest``; the hop count falls
    by one each step, and no node is visited twice. On the fallback the
    route is ``[0, j, goal]``, and with no finite option ``[0, goal]``.
    """
    dst = graph.n_nodes - 1
    j, routed = _first_hop(graph)
    if not routed:
        return [0, int(j), dst] if j != dst else [0, dst]
    D = graph._goal_plan()
    tight = (graph.w_cut[1:, 1:] + D == D[:, None]) & (D[:, None] < np.inf)
    hops = distances_to(np.where(tight, 1.0, np.inf), dst - 1)
    route = [0, int(j)]
    while route[-1] != dst:
        route.append(1 + int(_lowest(graph.points[1:], np.where(tight[route[-1] - 1], hops, np.inf))))
    return route


def _first_hop(graph):
    """(node, routed): ``plan_subgoal``'s waypoint, and whether a route under the cutoff starts there."""
    dst = graph.n_nodes - 1
    total = graph.w_cut[0, 1:] + graph._goal_plan()
    total[~np.isfinite(total)] = np.inf
    if total.min() < np.inf:
        return 1 + _lowest(graph.points[1:], total), True
    two_hop = graph.w_raw[0, 1:dst] + graph.w_raw[1:dst, dst]
    two_hop[np.isnan(two_hop)] = np.inf
    if np.any(np.isfinite(two_hop)):
        return 1 + _lowest(graph.points[1:dst], two_hop), False
    return dst, False


def _lowest(points, values):
    """Index of the lexicographically lowest point among the minima of ``values``.

    The candidates are the entries equal to ``values.min()``. One stable
    ``np.lexsort`` over their rows, taken in index order, sends equal
    points to the lowest index.
    """
    cand = np.flatnonzero(values == values.min())
    return cand[np.lexsort(points[cand].T[::-1])[0]]


def pseudo_landmark(sg_plan, phi_state, delta):
    """Shift the planned waypoint distance ``delta`` away from the agent.

    Returns (point, degenerate) where degenerate flags sg_plan == phi(s),
    in which case the waypoint is returned unchanged. ``delta`` must be
    finite; a negative one shifts toward the agent.
    """
    delta = check_real(delta, "delta", FINITE)
    sg_plan = np.asarray(sg_plan, dtype=np.float64)
    phi_state = np.asarray(phi_state, dtype=np.float64)
    ray = sg_plan - phi_state
    norm = float(np.linalg.norm(ray))
    if norm == 0.0:
        return sg_plan.copy(), True
    return sg_plan + delta * ray / norm, False
