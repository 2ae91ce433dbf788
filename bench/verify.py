"""Independent checks of the layers' outputs.

Each check returns None when the output is correct and a one-line reason
when it is not. The planner is checked against a dense numpy
Floyd-Warshall, which shares no code with the Dijkstra in ``graphplan``.
"""

from __future__ import annotations

import numpy as np

PATH_RTOL = 1e-9


def floyd_warshall(w):
    """All-pairs shortest-path lengths; inf marks a missing edge."""
    d = np.array(w, dtype=np.float64, copy=True)
    np.fill_diagonal(d, np.minimum(np.diag(d), 0.0))
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def check_plan(graph, chosen, dist):
    """``chosen`` must follow plan_subgoal's contract on this graph.

    ``dist`` is ``floyd_warshall(graph.w_cut)``.
    """
    points = graph.points
    dst = graph.n_nodes - 1
    chosen = np.asarray(chosen)
    if graph.n_nodes <= 2:
        return None if np.array_equal(chosen, points[dst]) else "tiny graph: goal not returned"
    hops = [j for j in range(1, graph.n_nodes) if np.array_equal(points[j], chosen)]
    if not hops:
        return "chosen subgoal is not a graph node"
    best = dist[0, dst]
    if np.isfinite(best):
        tol = PATH_RTOL * max(1.0, abs(best))
        for j in hops:
            via = graph.w_cut[0, j] + (0.0 if j == dst else dist[j, dst])
            if abs(via - best) <= tol:
                return None
        return f"first hop is off every shortest path (best {best!r})"
    two_hop = graph.w_raw[0, 1:dst] + graph.w_raw[1:dst, dst]
    if not np.any(np.isfinite(two_hop)):
        return None if dst in hops else "no finite two-hop route and goal not returned"
    tied = np.nonzero(two_hop == np.min(two_hop))[0] + 1
    want = min(tied, key=lambda i: tuple(points[i]))
    return None if want in hops else "fallback differs from the two-hop argmin"


def check_positions(spec, positions):
    """Every position inside the closed extent and outside every wall interior."""
    p = np.asarray(positions)
    ext = spec.extent
    if np.any((p[:, 0] < ext.x0) | (p[:, 0] > ext.x1) | (p[:, 1] < ext.y0) | (p[:, 1] > ext.y1)):
        return "position outside the extent"
    for w in spec.walls:
        inside = (w.x0 < p[:, 0]) & (p[:, 0] < w.x1) & (w.y0 < p[:, 1]) & (p[:, 1] < w.y1)
        if np.any(inside):
            return f"position inside wall {w.as_list()}"
    return None


def check_hr_weights(records):
    """sum_i T_i w_i = 1 over the records of the latest hr weighting."""
    total = float(sum(rec.length * rec.weight for rec in records))
    return None if abs(total - 1.0) <= 1e-9 else f"sum T*w = {total!r}"


def check_fps(chosen, pool):
    """FPS rows are pairwise distinct and each is a row of the pool."""
    members = {tuple(row) for row in np.asarray(pool)}
    rows = [tuple(row) for row in np.asarray(chosen)]
    if len(set(rows)) != len(rows):
        return "fps returned a duplicate row"
    if any(row not in members for row in rows):
        return "fps returned a row that is not in the pool"
    return None


def check_pseudo(point, waypoint, degenerate, delta):
    """A non-degenerate pseudo-landmark sits exactly ``delta`` from its waypoint."""
    if degenerate:
        return None if np.array_equal(point, waypoint) else "degenerate point moved"
    gap = float(np.linalg.norm(np.asarray(point) - np.asarray(waypoint)))
    return None if abs(gap - delta) <= 1e-9 * max(1.0, delta) else f"shift {gap!r} != {delta!r}"


def check_finite(losses, arrays):
    if not all(np.isfinite(v) for v in losses):
        return "non-finite loss"
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return "non-finite parameter"
    return None
