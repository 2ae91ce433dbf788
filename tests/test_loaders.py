"""One matrix over every loader of outside input.

Each loader gets a state that is not a dict, and each key it reads gets a
value of the wrong type, of the wrong shape or slot count, and with a NaN,
where the key holds numbers. Every case must raise ``ValueError`` naming
the loader and the key, and a failed novelty load must change nothing.
A missing key is covered by each module's missing-key test.
"""

import re

import numpy as np
import pytest

from mazehrl.envs import spec_from_dict, spec_to_dict, umaze12
from mazehrl.graphplan import NoveltyScorer
from mazehrl.nets import Adam, Mlp

NAN = float("nan")
LOADERS = ("maze spec", "net checkpoint", "optimizer checkpoint", "novelty checkpoint")
PARAMS = [np.zeros(3), np.zeros((2, 3))]


def good_state(loader):
    if loader == "maze spec":
        return spec_to_dict(umaze12())
    if loader == "net checkpoint":
        return Mlp([3, 4, 1], rng=np.random.default_rng(0)).state_dict()
    if loader == "optimizer checkpoint":
        return Adam(PARAMS, lr=3e-4).state_dict()
    return NoveltyScorer(3, np.random.default_rng(1)).state_dict()


def with_nan(value):
    """``value``'s nested numbers, with the first one NaN."""
    a = np.array(value, dtype=np.float64)
    a.reshape(-1)[0] = NAN
    return a.tolist()


def row(loader, key, kind, bad, named=None):
    """A case: ``state[key]`` becomes ``bad`` (or ``bad(state[key])``); the
    message must name ``named`` (loader, key), by default this loader and key."""
    return pytest.param(loader, key, bad, named or (loader, key), id=f"{loader}-{key}-{kind}")


def first_slot(change):
    return lambda slots: [change(slots[0]), *slots[1:]]


def predictor_with_nan_bias(state):
    return {**state, "biases": first_slot(with_nan)(state["biases"])}


CASES = [
    # maze spec
    row("maze spec", "format", "type", 5),
    row("maze spec", "name", "type", 5),
    row("maze spec", "extent", "type", None),
    row("maze spec", "extent", "shape", [-6.0, -6.0, 6.0]),
    row("maze spec", "extent", "nan", with_nan),
    row("maze spec", "walls", "type", 5),
    row("maze spec", "walls", "shape", [[-7.0, -0.75]]),
    row("maze spec", "walls", "nan", with_nan),
    row("maze spec", "start", "type", 5),
    row("maze spec", "start", "shape", {"point": [-4.5]}),
    row("maze spec", "start", "nan", {"point": [NAN, -4.5]}),
    row("maze spec", "goal", "type", [0.0, 0.0]),
    row("maze spec", "goal", "shape", {"rect": [-6.0, -6.0, 6.0]}),
    row("maze spec", "goal", "nan", {"rect": [-6.0, -6.0, 6.0, NAN]}),
    row("maze spec", "eval_goal", "type", "ab"),
    row("maze spec", "eval_goal", "shape", 4.5),
    row("maze spec", "eval_goal", "nan", with_nan),
    row("maze spec", "success_radius", "type", "0.75"),
    row("maze spec", "success_radius", "shape", [0.75]),
    row("maze spec", "success_radius", "nan", NAN),
    row("maze spec", "max_episode_steps", "type", "500"),
    row("maze spec", "max_episode_steps", "shape", [500]),
    row("maze spec", "max_episode_steps", "nan", NAN),
    # net checkpoint
    row("net checkpoint", "format", "type", 5),
    row("net checkpoint", "dtype", "type", 5),
    row("net checkpoint", "layer_sizes", "type", None),
    row("net checkpoint", "layer_sizes", "shape", [3]),
    row("net checkpoint", "layer_sizes", "nan", [3, NAN, 1]),
    row("net checkpoint", "output_activation", "type", 5),
    row("net checkpoint", "bound", "type", "1.0"),
    row("net checkpoint", "bound", "shape", [1.0]),
    row("net checkpoint", "bound", "nan", NAN),
    row("net checkpoint", "weights", "type", 5),
    row("net checkpoint", "weights", "slots", lambda ws: ws[:-1]),
    row("net checkpoint", "weights", "shape", first_slot(lambda w: np.transpose(w).tolist())),
    row("net checkpoint", "weights", "nan", first_slot(with_nan)),
    row("net checkpoint", "biases", "type", 5),
    row("net checkpoint", "biases", "slots", lambda bs: bs[:-1]),
    row("net checkpoint", "biases", "shape", first_slot(lambda b: b[:-1])),
    row("net checkpoint", "biases", "nan", first_slot(with_nan)),
    # optimizer checkpoint
    row("optimizer checkpoint", "format", "type", 5),
    *[
        row("optimizer checkpoint", key, kind, bad)
        for key in ("lr", "step_count")
        for kind, bad in (("type", "0.5"), ("shape", [0.5]), ("nan", NAN))
    ],
    *[
        row("optimizer checkpoint", key, kind, bad)
        for key in ("m", "v")
        for kind, bad in (
            ("type", None),
            ("slots", []),
            ("shape", first_slot(lambda a: a + [0.0])),
            ("nan", first_slot(with_nan)),
        )
    ],
    # novelty checkpoint: each part is a dict for the net or optimizer loader
    *[row("novelty checkpoint", key, "type", 5) for key in ("target", "predictor", "opt")],
    row("novelty checkpoint", "target", "nan", predictor_with_nan_bias, ("net checkpoint", "biases")),
    row("novelty checkpoint", "predictor", "nan", predictor_with_nan_bias, ("net checkpoint", "biases")),
    row("novelty checkpoint", "opt", "nan", lambda o: {**o, "m": first_slot(with_nan)(o["m"])},
        ("optimizer checkpoint", "m")),
]


def load(loader, state):
    if loader == "maze spec":
        return spec_from_dict(state)
    if loader == "net checkpoint":
        return Mlp.from_state_dict(state)
    if loader == "optimizer checkpoint":
        return Adam.from_state_dict(state, PARAMS)
    scorer = NoveltyScorer(3, np.random.default_rng(2))
    before = scorer.state_dict()
    try:
        scorer.load_state_dict(state)
    except ValueError:
        assert scorer.state_dict() == before  # a failed load changes nothing
        raise
    return scorer


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("state", [5, None, [("format", "x")]], ids=["int", "None", "list"])
def test_non_dict_state_rejected(loader, state):
    with pytest.raises(ValueError, match=f"^{loader} must be a dict"):
        load(loader, state)


@pytest.mark.parametrize("loader, key, bad, named", CASES)
def test_bad_field_rejected(loader, key, bad, named):
    state = good_state(loader)
    state[key] = bad(state[key]) if callable(bad) else bad
    with pytest.raises(ValueError, match=f"^{re.escape(named[0])} .*{re.escape(repr(named[1]))}"):
        load(loader, state)
