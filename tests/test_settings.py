"""One matrix over every setting, and the round trip that canonical spec values give.

Each setting (a number that configures a net, an update, the planner or a
maze) is checked by ``_checks.check_real``: it must be one real number, not
a bool, string, None or array of several, never NaN, inside its interval.
Every bad value must raise ``ValueError`` whose message starts with the
setting's name. A ``MazeSpec`` keeps the values its checks return, so a
spec built from numpy scalars writes JSON that loads back equal.
"""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl.agent import critic_update
from mazehrl.envs import MazeSpec, Rect, embossed, phi, spec_from_dict, spec_to_dict, success, umaze12
from mazehrl.graphplan import LandmarkSet, build_graph, pseudo_landmark
from mazehrl.nets import Adam, Mlp, polyak_update
from mazehrl.replay import TrajectoryBuffer, Transition, hr_weights, sample_pool

NAN, INF = float("nan"), float("inf")
NOT_REAL = [True, "1", None, np.array([1.0, 2.0])]


class Actor:
    def forward(self, obs):
        return np.zeros((len(obs), 2))


class Critic:
    def min_q(self, x):
        return np.full(len(x), -2.0)


def decide(eta=1.0, cutoff=5.0):
    """One decision on a fresh landmark set."""
    landmarks = LandmarkSet(np.array([[3.0, 0.0, 0.0, 0.0]]), np.zeros((0, 4)), phi)
    return build_graph(np.zeros(4), np.array([9.0, 0.0]), landmarks, Critic(), Actor(), phi, eta, cutoff)


def stored_buffer():
    """A buffer holding one three-step episode."""
    buf = TrajectoryBuffer(8)
    steps = [Transition(np.full(4, t), np.zeros(2), np.zeros(2), -1.0, np.full(4, t + 1.0), np.zeros(2),
                        t == 2, t) for t in range(3)]
    buf.store_episode(steps, np.zeros(2))
    return buf


def critic_step(radius):
    """One ``critic_update`` of tiny nets on a one-transition batch."""
    rng = np.random.default_rng(0)
    critics = [Mlp([8, 4, 1], rng=rng) for _ in range(2)]
    batch = {k: np.zeros((1, d)) for k, d in (("s", 4), ("sg", 2), ("a", 2), ("s_next", 4), ("sg_next", 2))}
    critic_update(critics, [q.copy() for q in critics], [Adam(q.params, lr=1e-3) for q in critics],
                  Mlp([6, 4, 2], "scaled_tanh", rng=rng), batch, rng, radius)


def rect(key, value):
    return Rect(**{"x0": -1.0, "y0": -1.0, "x1": 1.0, "y1": 1.0, key: value})


# (message prefix, a call that sets the setting to v, the values outside its interval besides NaN)
SETTINGS = {
    "adam lr": ("lr", lambda v: Adam([np.zeros(2)], lr=v), [INF, -INF, 0.0]),
    "success_radius": ("success_radius", lambda v: replace(umaze12(), success_radius=v), [INF, -INF, 0.0]),
    "radius": ("radius", lambda v: success([0.0, 0.0], [0.0, 0.0], v), [INF, -INF, -0.5]),
    "critic_update radius": ("radius", critic_step, [INF, -INF, 0.0]),
    "alpha": ("alpha", lambda v: hr_weights([0.0, 1.0], [1, 1], v), [INF, -INF, 0.0]),
    "pool alpha": ("alpha", lambda v: sample_pool(stored_buffer(), "hr", 3, np.random.default_rng(0), v),
                   [INF, -INF, 0.0]),
    "tau": ("tau", lambda v: polyak_update([np.zeros(2)], [np.ones(2)], v), [INF, -INF, 1.5, -0.1]),
    "delta": ("delta", lambda v: pseudo_landmark([1.0, 0.0], [0.0, 0.0], v), [INF, -INF]),
    "eta": ("eta", lambda v: decide(eta=v), [INF, -INF]),
    "cutoff": ("cutoff", lambda v: decide(cutoff=v), [-INF, -1.0]),  # +inf keeps every edge
    **{f"rect {k}": (f"rect {k}", lambda v, k=k: rect(k, v), [INF, -INF]) for k in ("x0", "y0", "x1", "y1")},
    "start": ("start", lambda v: replace(umaze12(), start=(v, -4.5)), [INF, -INF]),
    "goal": ("goal", lambda v: replace(embossed(), goal=(5.25, v)), [INF, -INF]),
    "eval_goal": ("eval_goal", lambda v: replace(umaze12(), eval_goal=(-4.5, v)), [INF, -INF]),
}

# (spec field, a value that is not a point of 2 coordinates)
NOT_POINTS = [("start", 5), ("goal", None), ("eval_goal", Rect(-1, -1, 1, 1)), ("start", "ab"),
              ("start", (1.0, 2.0, 3.0))]
# (spec field, a value that is not a Rect, or not an iterable of Rects)
NOT_RECTS = [("extent", (-6, -6, 6, 6)), ("walls", ((-7.0, -0.75, 3.0, 0.75),)), ("walls", 5)]

CASES = [
    pytest.param(prefix, call, bad, id=f"{name}-{bad!r}")
    for name, (prefix, call, outside) in SETTINGS.items()
    for bad in [*NOT_REAL, NAN, *outside]
] + [
    pytest.param(key, lambda v, key=key: replace(umaze12(), **{key: v}), bad, id=f"{key}-{kind}-{bad!r}")
    for kind, wrong in (("point", NOT_POINTS), ("rect", NOT_RECTS))
    for key, bad in wrong
]


@pytest.mark.parametrize("prefix, call, bad", CASES)
def test_bad_setting_rejected(prefix, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(prefix)} must be "):
        call(bad)


@pytest.mark.parametrize("name", SETTINGS)
def test_numpy_scalars_and_0d_arrays_accepted(name):
    """The good values of each interval, as numpy scalars and 0-d arrays, pass."""
    prefix, call, _ = SETTINGS[name]
    good = {"tau": 0.5, "cutoff": 5.0, "goal": 0.0, "start": -4.5, "eval_goal": 4.5}.get(name, 0.75)
    if name.startswith("rect"):
        good = 1.0 if name[-1] == "1" else -1.0
    for value in (np.float32(good), np.float64(good), np.array(good)):
        call(value)


def test_warm_cache_does_not_skip_the_setting_checks():
    """A value equal to the cached ``eta`` or ``cutoff`` (``True == 1.0``) is still checked."""
    landmarks = LandmarkSet(np.array([[3.0, 0.0, 0.0, 0.0]]), np.zeros((0, 4)), phi)
    args = (np.zeros(4), np.array([9.0, 0.0]), landmarks, Critic(), Actor(), phi)
    build_graph(*args, 1.0, 1.0)
    with pytest.raises(ValueError, match="^eta must be a real number"):
        build_graph(*args, True, 1.0)
    with pytest.raises(ValueError, match="^cutoff must be a real number"):
        build_graph(*args, 1.0, True)


def test_hr_cache_does_not_skip_the_alpha_check():
    """After an ``alpha=1.0`` draw, ``alpha=True`` (``True == 1.0``) is still checked."""
    buf = stored_buffer()
    sample_pool(buf, "hr", 3, np.random.default_rng(0), 1.0)
    with pytest.raises(ValueError, match="^alpha must be a real number"):
        sample_pool(buf, "hr", 3, np.random.default_rng(0), True)
    buf = stored_buffer()
    sample_pool(buf, "hr", 3, np.random.default_rng(0), np.float32(0.5))
    assert type(buf._weighted) is float  # the checked value is what the cache holds


def test_spec_name_must_be_a_string():
    with pytest.raises(ValueError, match="^name must be a str"):
        replace(umaze12(), name=5)


def test_settings_are_kept_as_python_numbers():
    spec = replace(umaze12(), success_radius=np.float32(0.75), max_episode_steps=np.int64(5),
                   start=np.array([-4.5, -4.5]), walls=list(umaze12().walls))
    assert type(spec.success_radius) is float and type(spec.max_episode_steps) is int
    assert spec.start == (-4.5, -4.5) and all(type(c) is float for c in spec.start)
    assert spec.walls == umaze12().walls
    assert type(Adam([np.zeros(2)], lr=np.float32(0.5)).lr) is float


F32 = {"width": 32, "allow_nan": False, "allow_infinity": False}


@st.composite
def numpy_specs(draw):
    """Specs whose numbers are numpy scalars: float32 extent, walls, points and
    radius, float64 or float32 point coordinates, int64 steps."""
    f32 = lambda lo, hi: np.float32(draw(st.floats(lo, hi, **F32)))  # noqa: E731
    extent = Rect(f32(-20, -3), f32(-20, -3), f32(3, 20), f32(3, 20))
    point = lambda: (f32(-1, 1), np.float64(draw(st.floats(-1, 1))))  # noqa: E731
    n_walls = draw(st.integers(0, 2))
    walls = [Rect(f32(1.5, 2.0), f32(-1, 0), f32(2.125, 2.5), f32(0.5, 1)) for _ in range(n_walls)]
    goal = draw(st.sampled_from(["point", "rect"]))
    return MazeSpec(
        name=draw(st.text(max_size=8)),
        extent=extent,
        walls=tuple(walls),
        start=point(),
        goal=point() if goal == "point" else Rect(f32(-1, -0.5), f32(-1, -0.5), f32(0.5, 1), f32(0.5, 1)),
        eval_goal=point(),
        success_radius=f32(0.125, 2.0),
        max_episode_steps=np.int64(draw(st.integers(1, 10_000))),
    )


@settings(max_examples=50, deadline=None)
@given(numpy_specs())
def test_numpy_spec_round_trips_through_json(spec):
    text = json.dumps(spec_to_dict(spec))
    loaded = spec_from_dict(json.loads(text))
    assert loaded == spec
    assert json.dumps(spec_to_dict(loaded)) == text
