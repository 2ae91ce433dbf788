"""A geodesic oracle for the built-in mazes: a grid distance field, a scripted controller
that follows it, and a critic built on it that drives the planner.

Each maze is laid on a grid of square cells of side ``CELL[name]`` over its
extent. A cell is free when its closed square misses every wall interior.
Moves go to the 8 neighbours, a diagonal one only when both cells it passes
between are free too (no corner cutting), so the segment between two cell
centres stays inside free squares and every grid path is a wall-free path
of the point mass. Dijkstra from the goal then gives each free cell the
length of the shortest such path from its centre to the goal.

A grid path only takes 45-degree steps, so its length is the octile
distance, which exceeds the Euclidean one by at most ``OCTILE``. Where the
segment to the goal stays clear of the walls, the field is that octile
distance, and where a wall is in the way, it is at least the length of the
shortest path around the wall corners.
"""

import heapq
import math

import numpy as np
import pytest

from mazehrl.envs import ACCEL_SCALE, DAMPING, EnvState, make_maze, phi, step_state
from mazehrl.graphplan import LandmarkSet, build_graph, distances_to, edge_weights, plan_path, plan_subgoal

CELL = {"UMaze12": 0.25, "UMaze24": 0.25, "EmbossedMaze": 0.2}  # wall faces fall on cell edges
OCTILE = math.sqrt(4.0 - 2.0 * math.sqrt(2.0))  # the worst octile / Euclidean ratio, at 22.5 degrees
MOVES = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj]
MOVE_TABLES = {}  # maze name -> {cell: its list of moves}, shared by all fields of the maze


class Field:
    """The grid distance field of ``spec`` to ``goal``; ``dist[i, j]`` is inf at a walled cell."""

    def __init__(self, spec, goal):
        ext, h = spec.extent, CELL[spec.name]
        self.spec, self.h, self.goal = spec, h, np.asarray(goal, dtype=np.float64)
        self.origin = np.array([ext.x0, ext.y0])
        nx, ny = round((ext.x1 - ext.x0) / h), round((ext.y1 - ext.y0) / h)
        lo = self.origin + h * np.stack(np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"), -1)
        hi = lo + h
        self.free = np.ones((nx, ny), dtype=bool)
        for w in spec.walls:
            overlap_x = (lo[..., 0] < w.x1) & (hi[..., 0] > w.x0)
            self.free &= ~(overlap_x & (lo[..., 1] < w.y1) & (hi[..., 1] > w.y0))
        self.dist = self._dijkstra()

    def centre(self, cell):
        return self.origin + self.h * (np.asarray(cell) + 0.5)

    def cell(self, p):
        i, j = np.floor((np.asarray(p) - self.origin) / self.h).astype(int)
        return min(max(i, 0), self.free.shape[0] - 1), min(max(j, 0), self.free.shape[1] - 1)

    def moves(self, cell):
        """The free cells one allowed move from ``cell``, with the move's length."""
        i, j = cell
        nx, ny = self.free.shape
        for di, dj in MOVES:
            a, b = i + di, j + dj
            if 0 <= a < nx and 0 <= b < ny and self.free[a, b] and self.free[a, j] and self.free[i, b]:
                yield (a, b), self.h * math.hypot(di, dj)

    def _dijkstra(self):
        start = self.cell(self.goal)
        assert self.free[start], "the goal lies in a walled cell"
        dist = np.full(self.free.shape, np.inf)
        dist[start] = float(np.linalg.norm(self.centre(start) - self.goal))
        heap = [(dist[start], start)]
        table = MOVE_TABLES.setdefault(self.spec.name, {})
        while heap:
            d, cell = heapq.heappop(heap)
            if d > dist[cell]:
                continue
            if cell not in table:
                table[cell] = list(self.moves(cell))
            for nxt, step in table[cell]:
                if d + step < dist[nxt]:
                    dist[nxt] = d + step
                    heapq.heappush(heap, (dist[nxt], nxt))
        return dist

    def clear(self, a, b, margin):
        """Whether the segment a-b keeps ``margin`` away from every wall (sampled finely)."""
        pts = np.linspace(a, b, 4 * int(np.linalg.norm(np.subtract(b, a)) / self.h) + 2)
        for w in self.spec.walls:
            inside_x = (pts[:, 0] > w.x0 - margin) & (pts[:, 0] < w.x1 + margin)
            if np.any(inside_x & (pts[:, 1] > w.y0 - margin) & (pts[:, 1] < w.y1 + margin)):
                return False
        return True

    def entry(self, p):
        """(value, cell): over ``p``'s cell and its 8 neighbours, the least distance from ``p``
        to a cell centre plus that centre's field value, and the cell that gives it."""
        i, j = self.cell(p)
        near = [(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        near = [c for c in near if 0 <= c[0] < self.free.shape[0] and 0 <= c[1] < self.free.shape[1]]
        return min((self.dist[c] + float(np.linalg.norm(self.centre(c) - p)), c) for c in near)


def polyline(*points):
    return sum(math.dist(a, b) for a, b in zip(points, points[1:]))


# The shortest path from start to eval_goal, through the wall corners it must turn at.
GEODESIC = {
    "UMaze12": polyline((-4.5, -4.5), (3.0, -0.75), (3.0, 0.75), (-4.5, 4.5)),
    "UMaze24": polyline((-9.0, -9.0), (6.0, -1.5), (6.0, 1.5), (-9.0, 9.0)),
    "EmbossedMaze": polyline((-5.25, 0.0), (-2.0, 2.4), (1.6, 2.4), (5.25, 0.0)),
}
FIELDS = {}


def field(name):
    if name not in FIELDS:
        spec = make_maze(name)
        FIELDS[name] = Field(spec, spec.eval_goal)
    return FIELDS[name]


@pytest.mark.parametrize("name", sorted(CELL))
def test_field_is_the_free_space_distance_where_nothing_blocks(name):
    """Clear of the walls by two cells, the field at a centre is its octile distance to the
    goal's cell plus that cell's own offset, so at most OCTILE times the Euclidean one."""
    f = field(name)
    g = f.cell(f.goal)
    checked = 0
    for cell in zip(*np.nonzero(f.free)):
        c = f.centre(cell)
        if not f.clear(c, f.goal, 2 * f.h):
            continue
        di, dj = sorted(abs(np.subtract(cell, g)))
        octile = f.h * (dj + (math.sqrt(2.0) - 1.0) * di) + f.dist[g]
        euclid = float(np.linalg.norm(c - f.goal))
        assert f.dist[cell] == pytest.approx(octile, rel=1e-12, abs=1e-12)
        assert euclid - 1e-12 <= f.dist[cell] <= OCTILE * euclid + 2 * f.h
        checked += 1
    assert checked > f.free.sum() / 4


@pytest.mark.parametrize("name", sorted(CELL))
def test_field_never_undercuts_the_straight_line(name):
    """Every grid path is a real path, so no field value is below the straight-line distance."""
    f = field(name)
    for cell in zip(*np.nonzero(np.isfinite(f.dist))):
        assert f.dist[cell] >= float(np.linalg.norm(f.centre(cell) - f.goal)) - 1e-12
    assert np.isfinite(f.dist[f.free]).all()  # every free cell reaches the goal


@pytest.mark.parametrize("name", sorted(CELL))
def test_field_goes_around_the_wall(name):
    """From ``start`` the segment to ``eval_goal`` crosses a wall: the field is at least the
    path around the wall's corners, well above the straight line, and within the grid's
    octile factor of that path."""
    f = field(name)
    start = np.asarray(f.spec.start)
    euclid = float(np.linalg.norm(start - f.goal))
    assert not f.clear(start, f.goal, 0.0)
    value = f.entry(start)[0]
    assert GEODESIC[name] - 1e-9 <= value <= OCTILE * GEODESIC[name] + 4 * f.h
    assert value > euclid + 1.0


def follow(spec, f):
    """Run one evaluation episode with a controller that steers toward the point three
    field-descent moves ahead; returns (reached, steps)."""
    state = EnvState(np.array(spec.start), np.zeros(2), 0, np.array(spec.eval_goal))
    for _ in range(spec.max_episode_steps):
        pos = state.position
        cell = f.entry(pos)[1]
        for _ in range(3):
            nxt = min(f.moves(cell), key=lambda m: f.dist[m[0]])[0]
            cell = nxt if f.dist[nxt] < f.dist[cell] else cell
        ahead = (f.goal if f.cell(f.goal) == cell else f.centre(cell)) - pos
        speed = min(0.25, float(np.linalg.norm(ahead)))
        want = speed * ahead / max(float(np.linalg.norm(ahead)), 1e-12)
        action = np.clip((want - DAMPING * state.velocity) / ACCEL_SCALE, -1.0, 1.0)
        state, reward, done, _ = step_state(spec, state, action)
        if done:
            return reward == 0.0, state.t
    return False, state.t


@pytest.mark.parametrize("name", sorted(CELL))
def test_scripted_controller_reaches_eval_goal(name):
    """Each maze is solvable from ``start`` within ``max_episode_steps`` by following the field."""
    spec = make_maze(name)
    reached, steps = follow(spec, field(name))
    assert reached, f"{name}: no success in {steps} steps"
    assert steps <= spec.max_episode_steps


class ZeroActor:
    def forward(self, obs):
        return np.zeros((len(obs), 2))


class OracleCritic:
    """A critic whose distance estimate is the geodesic field: ``min_q`` of an edge is
    minus the field value, toward the edge's target, at the source state's cell. With
    ``eta`` = 1 the input's relative goal plus the state's position is the target, up to
    rounding, so it is matched to the nearest of ``targets``."""

    def __init__(self, spec, targets):
        self.targets = np.asarray(targets, dtype=np.float64)
        self.fields = [Field(spec, t) for t in self.targets]

    def min_q(self, x):
        want = x[:, 4:6] + x[:, :2]
        nearest = np.linalg.norm(want[:, None, :] - self.targets[None], axis=2).argmin(axis=1)
        return -np.array([self.fields[k].dist[self.fields[k].cell(p)] for k, p in zip(nearest, x[:, :2])])


class EuclideanCritic:
    """The straight-line distance, the shape the benchmark fits its critics to: ``min_q`` is
    minus the norm of the input's relative goal, which with ``eta`` = 1 is target - position."""

    def min_q(self, x):
        return -np.linalg.norm(x[:, 4:6], axis=1)


@pytest.fixture(scope="module")
def umaze24_oracle():
    """(spec, lattice, goal, critic): UMaze24, its free points on a 4-unit lattice, its eval
    goal, and an ``OracleCritic`` to each of them, whose fields the tests below share."""
    spec = make_maze("UMaze24")
    grid = np.stack(np.meshgrid(np.arange(-8.0, 9.0, 4.0), np.arange(-8.0, 9.0, 4.0)), -1).reshape(-1, 2)
    lattice = np.array([p for p in grid if not any(w.contains_interior(p) for w in spec.walls)])
    goal = np.array(spec.eval_goal)
    return spec, lattice, goal, OracleCritic(spec, np.vstack([lattice, goal]))


def test_oracle_critic_plans_around_the_wall(umaze24_oracle):
    """On UMaze24, with landmarks on a 4-unit lattice of free points and a cutoff that cuts
    the direct edge, the planner routes through the landmarks. Each planned edge is a grid
    path between cells plus the target's offset from its cell centre, and the hops joined
    at the landmark cells form a grid path from the start's cell to the goal's, so the
    planned length is at least the start's field value: no kept edge crosses the wall.
    The same holds for the whole route, which ends at the goal. The tolerance covers only
    float rounding of the sums."""
    spec, lattice, goal, critic = umaze24_oracle
    start = np.array([*spec.start, 0.0, 0.0])
    to_goal = critic.fields[-1]
    start_dist = to_goal.dist[to_goal.cell(start[:2])]
    cutoff = 6.0
    assert cutoff < start_dist
    landmarks = LandmarkSet(np.hstack([lattice, np.zeros_like(lattice)]), np.zeros((0, 4)), phi)
    graph = build_graph(start, goal, landmarks, critic, ZeroActor(), phi, 1.0, cutoff)
    assert graph.w_cut[0, -1] == np.inf  # the direct edge is cut
    total = graph.w_cut[0, 1:] + distances_to(graph.w_cut[1:, 1:], len(lattice))
    assert np.isfinite(total).any()  # the goal is reachable, so no two-hop fallback
    hop = plan_subgoal(graph)
    j = int(np.flatnonzero((graph.points[1:] == hop).all(axis=1))[0])
    assert total[j] == total.min()
    assert to_goal.dist[to_goal.cell(hop)] < start_dist
    assert total[j] >= start_dist - 1e-9
    route = plan_path(graph)
    assert route[1] == j + 1 and route[-1] == len(graph.points) - 1
    assert sum(graph.w_cut[u, v] for u, v in zip(route, route[1:])) >= start_dist - 1e-9


def ranks(x):
    """The ranks of ``x`` from 0, each run of equal values sharing the mean of its ranks."""
    r = np.empty(len(x))
    r[np.argsort(x, kind="stable")] = np.arange(len(x))
    _, tie = np.unique(x, return_inverse=True)
    return (np.bincount(tie, r) / np.bincount(tie))[tie]


def calibration(critic, lattice, fields, cutoff):
    """How ``critic``'s edge weights (``eta`` = 1) over every ordered pair of ``lattice`` points
    match the field distances, ``fields[j]`` being the field to point j. Returns the Spearman
    rank correlation, the count of wormholes (kept edges, w <= cutoff, whose field distance
    exceeds the cutoff) and the count of short cuts (cut edges whose field distance is at
    most the cutoff)."""
    src, dst = np.nonzero(~np.eye(len(lattice), dtype=bool))
    states = np.hstack([lattice, np.zeros_like(lattice)])
    w = edge_weights(critic, ZeroActor(), states[src], lattice[dst], phi, 1.0)
    d = np.array([fields[j].dist[fields[j].cell(lattice[i])] for i, j in zip(src, dst)])
    rho = float(np.corrcoef(ranks(w), ranks(d))[0, 1])
    return rho, int(np.sum((w <= cutoff) & (d > cutoff))), int(np.sum((w > cutoff) & (d <= cutoff)))


def test_oracle_critic_is_calibrated(umaze24_oracle):
    """The oracle's weights are the field distances, so their ranks agree and the cutoff
    misjudges no edge."""
    _, lattice, _, critic = umaze24_oracle
    rho, wormholes, short_cuts = calibration(critic, lattice, critic.fields, 9.0)
    assert rho == pytest.approx(1.0, abs=1e-12)
    assert wormholes == short_cuts == 0


def test_straight_line_critic_keeps_a_wormhole_across_the_wall(umaze24_oracle):
    """(-8, -4) and (-8, 4) are 8 apart across the U wall, but its field distance goes round
    the wall's end at x = 6, so a straight-line critic keeps an edge the field would cut.
    It makes no short cut: a field value is at least the straight line from the source's
    cell centre, which lies within 0.18 of the lattice point, and no two lattice points are
    between 9 and 9.18 apart."""
    _, lattice, _, critic = umaze24_oracle
    rho, wormholes, short_cuts = calibration(EuclideanCritic(), lattice, critic.fields, 9.0)
    i, j = (int(np.flatnonzero((lattice == p).all(axis=1))[0]) for p in ([-8.0, -4.0], [-8.0, 4.0]))
    to_j = critic.fields[j]
    assert np.linalg.norm(lattice[j] - lattice[i]) <= 9.0 < to_j.dist[to_j.cell(lattice[i])]
    assert wormholes >= 1 and short_cuts == 0
    assert rho < 1.0
