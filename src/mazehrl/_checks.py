"""What outside input is accepted; the contract is in the ``nets`` module docstring."""

import numpy as np

POSITIVE = ("positive and finite", lambda v: 0.0 < v < np.inf)  # (message words, test)
UNIT = ("in [0, 1]", lambda v: 0.0 <= v <= 1.0)
FINITE = ("finite", lambda v: -np.inf < v < np.inf)
NONNEGATIVE = (">= 0", lambda v: v >= 0.0)  # +inf included


def read_field(state, key, what, shape, kind):
    """``state[key]``, if ``state`` is a dict holding ``key`` whose value is, by ``shape``: (None)
    one of the tuple or of the type ``kind``, an ndarray (``np.load``'s form of a str, number or
    list) read as its ``tolist()``; (a tuple) a real, finite array of that shape, -1 any length,
    as a copy in the dtype ``kind``. Else ``ValueError`` naming the loader ``what`` and ``key``."""
    if not isinstance(state, dict):
        raise ValueError(f"{what} must be a dict, got {type(state).__name__}")
    if key not in state:
        raise ValueError(f"{what} has no {key!r} key")
    value, name = state[key], f"{what} {key!r}"
    if shape is None:
        value = value.tolist() if isinstance(value, np.ndarray) else value
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{name} must be one of {kind}, got {value!r:.60}")
        if isinstance(kind, type) and not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
        return value
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValueError(f"{name} is not an array") from None
    a = a.reshape(0, *shape[1:]) if a.shape == (0,) and shape[:1] == (-1,) else a  # [] has no rows
    fits = a.ndim == len(shape) and all(want in (-1, got) for got, want in zip(a.shape, shape))
    if a.dtype.kind not in "iuf" or not fits:  # bools, strings and objects are not real numbers
        raise ValueError(f"{name} must be real numbers of shape {shape}, got {value!r:.60}")
    with np.errstate(over="ignore"):  # a value past the dtype's range is inf, rejected next
        a = a.astype(kind)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds a NaN or infinite value")
    return a


def check_keys(state, written, what):
    """``ValueError`` naming the loader ``what`` if ``state`` holds a key ``written`` does not."""
    if extra := sorted(map(str, set(state) - set(written))):
        raise ValueError(f"{what} holds keys its writer does not write: {extra!r:.80}")


def check_count(value, what, least):
    """``int(value)``; ``ValueError`` unless ``value`` is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(value, what, interval):
    """``float(value)``; ``ValueError`` unless ``value`` is one real number other than NaN (a Python
    or numpy int or float, not a bool, or a 0-d array of one) inside ``interval``, one of the above."""
    if type(value) is not float:  # a Python float, the common case, skips the type test
        a = np.asarray(value)
        if a.ndim or a.dtype.kind not in "iuf":  # bools, strings, None, complex, several numbers
            raise ValueError(f"{what} must be a real number, got {value!r:.60}")
        value = float(a)
    if not interval[1](value):
        raise ValueError(f"{what} must be {interval[0]}, got {value!r}")
    return value
