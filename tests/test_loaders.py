"""One matrix over every loader of outside input.

Each loader gets a state that is not a dict, and each key it reads gets a
value of the wrong type, of the wrong shape, and with a NaN, where the key
holds numbers. A checkpoint keeps one array per key (``weight0``, ``m0``,
...), so the rows of a group of such keys edit its first key, its "slots"
row drops its last key, and its "extra" row adds the key after its last,
which its writer would not write; a "short" ``layer_sizes`` leaves the
last layer's keys over, and a "stale" row adds a key an older format
wrote. A maze spec's "extra" rows add such a key at its top level and in
its ``start``, and its "both" row gives the ``start`` a ``rect`` and a
``point``, of which its writer writes one. A novelty checkpoint's rows
edit a key of one of its prefixed parts, which the net or optimizer
loader reads, so the message names the part and then that loader and its
key; its "prefix" row adds a key of no part. Every case must raise
``ValueError`` naming the loader and the key, and a failed novelty load
must change nothing. A missing key is otherwise covered by each module's
missing-key test.
"""

import io
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
    a.flat[0] = NAN
    return a.tolist()


DROP = object()  # a row's ``bad`` that deletes the key


def row(loader, key, kind, bad, named=None, group=None):
    """A case: ``state[key]`` becomes ``bad`` (or ``bad(state[key])``, or is dropped); the
    message must name ``named`` (loader, key), by default this loader and key. The id
    names ``group``, the keys a row of a group stands for, by default the key."""
    return pytest.param(loader, key, bad, named or (loader, key), id=f"{loader}-{group or key}-{kind}")


def slot_rows(loader, group, stem, last):
    """The type, slots, extra, shape and NaN rows of the keys ``stem0`` ... ``stem{last}``."""
    first = f"{stem}0"
    return [
        row(loader, first, "type", "ab", group=group),
        row(loader, f"{stem}{last}", "slots", DROP, group=group),
        row(loader, f"{stem}{last + 1}", "extra", [0.0], group=group),
        row(loader, first, "shape", lambda a: a[..., :-1], group=group),
        row(loader, first, "nan", with_nan, group=group),
    ]


def part_row(part, kind, key, bad, loader):
    """A case that edits ``key`` of the novelty checkpoint's part ``part``, which ``loader`` reads."""
    named = (f"novelty checkpoint part {part!r}: {loader}", key)
    return row("novelty checkpoint", f"{part}/{key}", kind, bad, named, group=part)


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
    row("maze spec", "max_episode_step", "extra", 7),  # loaded, with the 500 steps of the spec
    row("maze spec", "start", "both", {"rect": [-6.0, -6.0, -3.0, -3.0], "point": [-4.5, -4.5]}),
    row("maze spec", "start", "extra", {"point": [-4.5, -4.5], "pt": 3}),
    # net checkpoint
    row("net checkpoint", "format", "type", 5),
    row("net checkpoint", "dtype", "type", 5),
    row("net checkpoint", "layer_sizes", "type", None),
    row("net checkpoint", "layer_sizes", "shape", [3]),
    row("net checkpoint", "layer_sizes", "nan", [3, NAN, 1]),
    row("net checkpoint", "layer_sizes", "short", [3, 4], ("net checkpoint", "weight1")),
    row("net checkpoint", "output_activation", "type", 5),
    row("net checkpoint", "bound", "stale", 1.0),  # the tanh scale, which v2 stored
    *slot_rows("net checkpoint", "weights", "weight", 1),
    *slot_rows("net checkpoint", "biases", "bias", 1),
    # optimizer checkpoint
    row("optimizer checkpoint", "format", "type", 5),
    *[
        row("optimizer checkpoint", key, kind, bad)
        for key in ("lr", "step_count")
        for kind, bad in (("type", "0.5"), ("shape", [0.5]), ("nan", NAN))
    ],
    *slot_rows("optimizer checkpoint", "m", "m", 1),
    *slot_rows("optimizer checkpoint", "v", "v", 1),
    # novelty checkpoint: each part's keys, prefixed, for the net or optimizer loader
    *[part_row(part, "type", "format", 5, loader)
      for part, loader in (("target", "net checkpoint"), ("predictor", "net checkpoint"),
                           ("opt", "optimizer checkpoint"))],
    part_row("target", "nan", "bias0", with_nan, "net checkpoint"),
    part_row("predictor", "nan", "bias0", with_nan, "net checkpoint"),
    part_row("opt", "nan", "m0", with_nan, "optimizer checkpoint"),
    part_row("opt", "extra", "m6", [0.0], "optimizer checkpoint"),  # 3 layers, 6 slots
    row("novelty checkpoint", "critic/format", "prefix", "x", group="critic"),
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
        after = scorer.state_dict()  # a failed load changes nothing
        assert list(after) == list(before) and all(np.array_equal(after[k], before[k]) for k in before)
        raise
    return scorer


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("state", [5, None, [("format", "x")]], ids=["int", "None", "list"])
def test_non_dict_state_rejected(loader, state):
    with pytest.raises(ValueError, match=f"^{loader} must be a dict"):
        load(loader, state)


def bad_state(loader, key, bad):
    state = good_state(loader)
    if bad is DROP:
        del state[key]
    else:
        state[key] = bad(state[key]) if callable(bad) else bad
    return state


def through_npz(state):
    """``state`` written by ``np.savez`` and read back by ``np.load(allow_pickle=False)``."""
    buf = io.BytesIO()
    np.savez(buf, **state)
    buf.seek(0)
    with np.load(buf, allow_pickle=False) as f:
        return dict(f)


@pytest.mark.parametrize("loader, key, bad, named", CASES)
def test_bad_field_rejected(loader, key, bad, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named[0])} .*{re.escape(repr(named[1]))}"):
        load(loader, bad_state(loader, key, bad))


@pytest.mark.parametrize("loader", LOADERS[1:])
def test_good_checkpoint_loads_after_np_load(loader):
    """``np.load`` returns each str, number and list as a 0-d or 1-d array."""
    state = through_npz(good_state(loader))
    assert all(isinstance(v, np.ndarray) for v in state.values())
    load(loader, state)


@pytest.mark.parametrize(
    "loader, key, bad, named", [c for c in CASES if c.values[0] != "maze spec" and c.values[2] is not None]
)
def test_bad_field_rejected_after_np_load(loader, key, bad, named):
    """The checkpoint rows, with every value the array ``np.load`` makes of it."""
    with pytest.raises(ValueError, match=f"^{re.escape(named[0])} .*{re.escape(repr(named[1]))}"):
        load(loader, through_npz(bad_state(loader, key, bad)))
