"""Deterministic 2D point-mass maze environments.

Centered world coordinates; walls are axis-aligned rectangles. The point
mass integrates velocity-damped acceleration commands and slides along
walls (per-axis clipping). Step is a pure function of (spec, state,
action), so independent episodes can run in parallel. The reward is
sparse: -1 per step, 0 on the step that reaches the goal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import FINITE, POSITIVE, check_count, check_keys, check_real, read_field

ACTION_BOUND = 1.0
DAMPING = 0.9
ACCEL_SCALE = 0.03
SPEC_FORMAT = "mazehrl-maze-v2"  # a v1 dict, whose reward_mode may be "dense", is rejected
FREE_POINT_TRIES = 1000  # rejection-sampling attempts before a region counts as walled off


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] with finite bounds, kept as Python floats."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        for key in ("x0", "y0", "x1", "y1"):
            object.__setattr__(self, key, check_real(getattr(self, key), f"rect {key}", FINITE))
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate rect {self}")

    def contains_interior(self, p) -> bool:
        return self.x0 < p[0] < self.x1 and self.y0 < p[1] < self.y1

    def contains(self, p) -> bool:
        return self.x0 <= p[0] <= self.x1 and self.y0 <= p[1] <= self.y1

    def as_list(self):
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True)
class MazeSpec:
    """Static description of a maze task; every field is required.

    ``start`` and ``goal`` are either a fixed point (len-2 tuple) or a
    Rect region sampled uniformly over its free space. ``eval_goal`` is
    the fixed goal used by evaluation episodes. ``name`` is a str. Fixed points
    have two finite coordinates and lie in the closed ``extent`` and outside every
    wall interior; regions lie inside ``extent``. ``success_radius`` is positive and
    finite, ``max_episode_steps`` an integer >= 1, each kept as its check returns it. No
    wall face may lie on the extent's edge: a ball clamped to that edge is
    never strictly inside the wall's span, so the wall would not block it.
    A wall that meets the edge is built past it instead.
    """

    name: str
    extent: Rect
    walls: tuple
    start: object
    goal: object
    eval_goal: tuple
    success_radius: float
    max_episode_steps: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a str, got {type(self.name).__name__}")
        ext, walls = self.extent, self.walls
        if not isinstance(ext, Rect):
            raise ValueError(f"extent must be a Rect, got {ext!r:.60}")
        put = object.__setattr__  # the dataclass is frozen
        put(self, "walls", tuple(walls) if np.iterable(walls) else (None,))
        for w in self.walls:
            if not isinstance(w, Rect):
                raise ValueError(f"walls must be an iterable of Rects, got {walls!r:.60}")
            if w.x0 == ext.x0 or w.x1 == ext.x1 or w.y0 == ext.y0 or w.y1 == ext.y1:
                raise ValueError(f"wall {w} has a face on the edge of extent {ext}")
        put(self, "success_radius", check_real(self.success_radius, "success_radius", POSITIVE))
        steps = check_count(self.max_episode_steps, "maze spec 'max_episode_steps'", 1)
        put(self, "max_episode_steps", steps)
        for key in ("eval_goal", "start", "goal"):
            p = getattr(self, key)
            p = p.tolist() if isinstance(p, np.ndarray) else p
            if isinstance(p, Rect) and key != "eval_goal":  # a region: its corners lie in the extent
                points = [(p.x0, p.y0), (p.x1, p.y1)]
            elif isinstance(p, (tuple, list)) and len(p) == 2:
                points = [tuple(check_real(c, key, FINITE) for c in p)]
                if _in_any_wall(self, points[0]):
                    raise ValueError(f"{key} {points[0]} lies inside a wall")
                put(self, key, points[0])
            else:
                raise ValueError(f"{key} must be a point of 2 coordinates, got {p!r:.60}")
            for c in points:
                if not ext.contains(c):
                    raise ValueError(f"{key} {c} lies outside extent {ext}")

    @property
    def goal_low(self):
        return np.array([self.extent.x0, self.extent.y0])

    @property
    def goal_high(self):
        return np.array([self.extent.x1, self.extent.y1])


@dataclass
class EnvState:
    position: np.ndarray
    velocity: np.ndarray
    t: int
    goal: np.ndarray

    def observation(self):
        """Flat state vector (x, y, vx, vy)."""
        return np.concatenate([self.position, self.velocity])


def phi(state) -> np.ndarray:
    """Project flat (..., 4) state vectors onto goal space: the position components.

    Elementwise selection, so the input-Jacobian is a 0/1 selector with
    Frobenius norm sqrt(2) for 2-D goals. An ``EnvState`` is not an array;
    pass ``state.observation()``.
    """
    return np.asarray(state, dtype=np.float64)[..., :2].copy()


def success(position, goal, radius) -> bool:
    """Closed-ball success test: ||position - goal||_2 <= radius, for a finite radius."""
    radius = check_real(radius, "radius", POSITIVE)
    return bool(np.linalg.norm(np.asarray(position) - np.asarray(goal)) <= radius)


def _in_any_wall(spec, p) -> bool:
    return any(w.contains_interior(p) for w in spec.walls)


def sample_free_point(spec, region, rng):
    """A point ``region`` itself, or a uniform draw over a ``Rect``'s free space; a ``Rect``
    not inside ``spec.extent`` raises ``ValueError`` before any draw."""
    if not isinstance(region, Rect):
        return np.array(region, dtype=np.float64)
    ext = spec.extent
    if not (ext.contains((region.x0, region.y0)) and ext.contains((region.x1, region.y1))):
        raise ValueError(f"region {region} is not inside extent {ext}")
    for _ in range(FREE_POINT_TRIES):
        p = np.array(
            [rng.uniform(region.x0, region.x1), rng.uniform(region.y0, region.y1)]
        )
        if not _in_any_wall(spec, p):
            return p
    raise RuntimeError("could not sample a free point; region may be walled off")


def reset_state(spec: MazeSpec, rng) -> EnvState:
    """Fresh episode state: start-sampled position, zero velocity, sampled goal."""
    pos = sample_free_point(spec, spec.start, rng)
    goal = sample_free_point(spec, spec.goal, rng)
    return EnvState(position=pos, velocity=np.zeros(2), t=0, goal=goal)


def _resolve_axis(spec, pos, new, axis):
    """Move pos[axis] toward new, clipping at wall faces and the extent."""
    lo_ext = (spec.extent.x0, spec.extent.y0)[axis]
    hi_ext = (spec.extent.x1, spec.extent.y1)[axis]
    other = 1 - axis
    blocked = False
    if new < lo_ext:
        new, blocked = lo_ext, True
    elif new > hi_ext:
        new, blocked = hi_ext, True
    for w in spec.walls:
        lo = (w.x0, w.y0)[axis]
        hi = (w.x1, w.y1)[axis]
        olo = (w.x0, w.y0)[other]
        ohi = (w.x1, w.y1)[other]
        if not (olo < pos[other] < ohi):
            continue
        cur = pos[axis]
        if cur <= lo < new:
            new, blocked = lo, True
        elif cur >= hi > new:
            new, blocked = hi, True
    return new, blocked


def step_state(spec: MazeSpec, state: EnvState, action):
    """Advance one step. Returns (new_state, reward, done, clamped).

    Out-of-bound actions, ±inf included, are clamped componentwise;
    ``clamped`` reports whether that happened so callers can count
    warnings. An action with a NaN component raises ``ValueError``.
    """
    a = np.asarray(action, dtype=np.float64)
    if a.shape != (2,):
        raise ValueError(f"action must be a 2-vector, got shape {a.shape}")
    clipped = np.clip(a, -ACTION_BOUND, ACTION_BOUND)
    clamped = bool(np.any(clipped != a))
    if clamped and np.isnan(a).any():  # NaN != NaN, so only this path can see one
        raise ValueError(f"action has a NaN component: {a}")

    vel = DAMPING * state.velocity + ACCEL_SCALE * clipped
    pos = state.position.copy()
    for axis in (0, 1):
        new, blocked = _resolve_axis(spec, pos, pos[axis] + vel[axis], axis)
        pos[axis] = new
        if blocked:
            vel[axis] = 0.0

    t = state.t + 1
    suc = success(pos, state.goal, spec.success_radius)
    reward = 0.0 if suc else -1.0
    done = suc or t >= spec.max_episode_steps
    return EnvState(position=pos, velocity=vel, t=t, goal=state.goal), reward, done, clamped


class PointMazeEnv:
    """Stateful convenience wrapper around the pure maze dynamics."""

    def __init__(self, spec: MazeSpec, rng):
        self.spec = spec
        self.rng = rng
        self.state = None
        self.clamp_warnings = 0

    def reset(self) -> EnvState:
        self.state = reset_state(self.spec, self.rng)
        return self.state

    def step(self, action):
        if self.state is None:
            raise RuntimeError("step() before reset()")
        self.state, reward, done, clamped = step_state(self.spec, self.state, action)
        if clamped:
            self.clamp_warnings += 1
        return self.state, reward, done


# ---- built-in mazes ----


def umaze12() -> MazeSpec:
    """12x12 U-shaped corridor: start bottom left, eval goal top left.

    Training goals are uniform over free space; the eval goal is fixed.
    The wall reaches past the extent's left edge (x0 = -7 < -6), so a
    ball clamped to that edge is inside its span and is blocked.
    """
    extent = Rect(-6.0, -6.0, 6.0, 6.0)
    return MazeSpec(
        name="UMaze12",
        extent=extent,
        walls=(Rect(-7.0, -0.75, 3.0, 0.75),),
        start=(-4.5, -4.5),
        goal=extent,
        eval_goal=(-4.5, 4.5),
        success_radius=0.75,
        max_episode_steps=500,
    )


def umaze24() -> MazeSpec:
    """24x24 variant of the U-shaped corridor; its wall too reaches past the left edge."""
    extent = Rect(-12.0, -12.0, 12.0, 12.0)
    return MazeSpec(
        name="UMaze24",
        extent=extent,
        walls=(Rect(-13.0, -1.5, 6.0, 1.5),),
        start=(-9.0, -9.0),
        goal=extent,
        eval_goal=(-9.0, 9.0),
        success_radius=1.5,
        max_episode_steps=1000,
    )


def embossed() -> MazeSpec:
    """12x12 maze with an open-left pocket between start and goal.

    The ball starts at the midpoint of the left side and must reach the
    midpoint of the right side; the pocket wall blocks the direct path,
    so greedy progress ends pressed against the pocket's inner face.
    """
    return MazeSpec(
        name="EmbossedMaze",
        extent=Rect(-6.0, -6.0, 6.0, 6.0),
        walls=(
            Rect(1.0, -2.4, 1.6, 2.4),   # inner face blocking the straight line
            Rect(-2.0, 1.8, 1.6, 2.4),   # top lip
            Rect(-2.0, -2.4, 1.6, -1.8),  # bottom lip
        ),
        start=(-5.25, 0.0),
        goal=(5.25, 0.0),
        eval_goal=(5.25, 0.0),
        success_radius=0.75,
        max_episode_steps=500,
    )


MAZE_BUILDERS = {
    "UMaze12": umaze12,
    "UMaze24": umaze24,
    "EmbossedMaze": embossed,
}


def make_maze(name) -> MazeSpec:
    try:
        return MAZE_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown maze {name!r}; choices: {sorted(MAZE_BUILDERS)}") from None


# ---- JSON-serializable spec dicts ----


def _point_or_rect_to_obj(value):
    return {"rect": value.as_list()} if isinstance(value, Rect) else {"point": list(value)}


def _point_or_rect_from_obj(obj, key):
    where, what = read_field(obj, key, "maze spec", None, dict), f"maze spec {key!r}"
    kind = "rect" if "rect" in where else "point"
    check_keys(where, (kind,), what)  # so a "rect" with a "point" is rejected too
    if kind == "rect":
        return Rect(*read_field(where, "rect", what, (4,), np.float64))
    return read_field(where, "point", what, (2,), np.float64)


def spec_to_dict(spec: MazeSpec) -> dict:
    return {
        "format": SPEC_FORMAT,
        "name": spec.name,
        "extent": spec.extent.as_list(),
        "walls": [w.as_list() for w in spec.walls],
        "start": _point_or_rect_to_obj(spec.start),
        "goal": _point_or_rect_to_obj(spec.goal),
        "eval_goal": list(spec.eval_goal),
        "success_radius": spec.success_radius,
        "max_episode_steps": spec.max_episode_steps,
    }


def spec_from_dict(obj: dict) -> MazeSpec:
    """The spec ``obj`` describes, under the loader contract (``nets`` module docstring):
    ``extent`` 4 numbers, ``walls`` k x 4, a ``start`` or ``goal`` that holds only a ``point`` 2
    or only a ``rect`` 4, ``eval_goal`` 2, ``success_radius`` one, ``name`` a string;
    ``MazeSpec`` checks the values."""
    what = "maze spec"
    read_field(obj, "format", what, None, (SPEC_FORMAT,))
    spec = MazeSpec(
        name=read_field(obj, "name", what, None, str),
        extent=Rect(*read_field(obj, "extent", what, (4,), np.float64)),
        walls=tuple(Rect(*w) for w in read_field(obj, "walls", what, (-1, 4), np.float64)),
        start=_point_or_rect_from_obj(obj, "start"),
        goal=_point_or_rect_from_obj(obj, "goal"),
        eval_goal=read_field(obj, "eval_goal", what, (2,), np.float64),
        success_radius=read_field(obj, "success_radius", what, (), np.float64),
        max_episode_steps=read_field(obj, "max_episode_steps", what, None, object),
    )
    check_keys(obj, spec_to_dict(spec), what)
    return spec
