"""Minimal differentiable-function kernel.

Fixed-architecture fully connected nets with reverse-mode gradients
w.r.t. parameters and inputs, an Adam optimizer, Polyak target updates,
and a JSON checkpoint format that round-trips bit-exactly.

Each net computes in one dtype fixed at construction: float32 by default,
or float64, which the finite-difference and loop-reference oracles use.
Every array a net makes (params, forward caches, outputs, gradients) has
that dtype, and every array it accepts is cast to it; Adam moments follow
their params. Initial weights are drawn in float64 and then cast, so a
seed consumes the same draws in either dtype.

Nets are immutable during inference; parameter updates go through the
optimizer (``Adam.step``) or ``polyak_update`` on the training thread only.
Both bump ``param_epoch()`` before their first in-place write, and caches of
net outputs (``graphplan.LandmarkSet``'s edge block) rely on that: a
parameter written any other way leaves such a cache stale.

Reverse-mode calls read a forward cache (``Mlp.forward_cache``) and keep
three rules:

- A forward cache is valid only for the parameters it was built with; after
  any parameter write, build a new one.
- The ``zgrads`` passed to ``Mlp.double_backprop`` must come from
  ``Mlp.input_grad_scalar`` on the same cache.
- ``input_grad_scalar`` runs its reverse sweep once per cache and memoises
  it there, so the arrays it returns are shared (``grad_params_cached``
  reuses them) and read-only.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = [
    "Mlp",
    "Adam",
    "polyak_update",
    "param_epoch",
]

CHECKPOINT_FORMAT = "mazehrl-net-v1"

_param_epoch = 0  # in-place parameter writes so far, process-wide


def param_epoch():
    """Count of ``Adam.step`` and ``polyak_update`` calls that wrote parameters.

    Any in-place write to any net's parameters through those two raises it,
    so an output cached with an equal epoch is still current.
    """
    return _param_epoch


def _bump_param_epoch():
    global _param_epoch
    _param_epoch += 1


class Mlp:
    """ReLU MLP with an identity or scaled-tanh output head.

    ``layer_sizes`` chains input through hidden widths to the output,
    e.g. ``[4, 64, 64, 2]``. A scaled-tanh head keeps outputs in
    ``[-bound, +bound]`` componentwise. ``dtype`` (``np.float32`` or
    ``np.float64``) is the dtype of every array the net makes; inputs,
    upstream gradients and penalty signals are cast to it.
    """

    def __init__(
        self, layer_sizes, output_activation="identity", bound=1.0, rng=None, dtype=np.float32
    ):
        self._configure(layer_sizes, output_activation, bound, dtype)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weights = []
        self.biases = []
        n_layers = len(self.layer_sizes) - 1
        for i in range(n_layers):
            fan_in, fan_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            if i < n_layers - 1:
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            else:
                # small final layer keeps initial outputs near zero
                w = rng.uniform(-3e-3, 3e-3, size=(fan_out, fan_in))
            self.weights.append(w.astype(self.dtype, copy=False))
            self.biases.append(np.zeros(fan_out, dtype=self.dtype))

    def _configure(self, layer_sizes, output_activation, bound, dtype):
        if len(layer_sizes) < 2 or any(int(n) <= 0 for n in layer_sizes):
            raise ValueError(f"layer_sizes must be >=2 positive ints, got {layer_sizes}")
        if output_activation not in ("identity", "scaled_tanh"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        if output_activation == "scaled_tanh" and bound <= 0:
            raise ValueError("scaled_tanh bound must be positive")
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be np.float32 or np.float64, got {dtype!r}")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.output_activation = output_activation
        self.bound = float(bound)
        self.dtype = np.dtype(dtype)

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    @property
    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self):
        dup = Mlp.__new__(Mlp)
        dup.layer_sizes = list(self.layer_sizes)
        dup.output_activation = self.output_activation
        dup.bound = self.bound
        dup.dtype = self.dtype
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup

    # ---- forward ----

    def _check_input(self, x):
        x = np.asarray(x, dtype=self.dtype)
        squeeze = x.ndim == 1
        if squeeze:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.shape} incompatible with in_dim {self.in_dim}")
        return x, squeeze

    def forward(self, x):
        """Deterministic forward map; accepts a vector or an (n, in_dim) batch."""
        x, squeeze = self._check_input(x)
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T
            z += b
            a = np.maximum(z, 0.0, out=z) if i < last else self._head(z)
        return a[0] if squeeze else a

    def _head(self, z):
        if self.output_activation == "identity":
            return z
        return self.bound * np.tanh(z)

    def forward_cache(self, x):
        """Forward pass retaining activations for subsequent backward calls.

        The cache holds only for the current parameters (see the module
        docstring); reverse-mode calls may memoise results in it.
        """
        x, squeeze = self._check_input(x)
        acts = [x]
        zs = []
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T
            z += b
            zs.append(z)
            a = np.maximum(z, 0.0) if i < last else self._head(z)
            acts.append(a)
        return {"acts": acts, "zs": zs, "squeeze": squeeze}

    def output(self, cache):
        out = cache["acts"][-1]
        return out[0] if cache["squeeze"] else out

    # ---- reverse mode ----

    def _head_deriv(self, z):
        if self.output_activation == "identity":
            return np.ones_like(z)
        t = np.tanh(z)
        return self.bound * (1.0 - t * t)

    def _upstream(self, cache, upstream):
        n = cache["acts"][0].shape[0]
        u = np.asarray(upstream, dtype=self.dtype)
        if u.ndim == 1:
            u = u[None, :]
        if u.shape != (n, self.out_dim):
            raise ValueError(f"upstream shape {u.shape} != {(n, self.out_dim)}")
        return u

    def _backward(self, cache, upstream, want_params=True, want_inputs=True, want_zgrads=False):
        acts, zs = cache["acts"], cache["zs"]
        u = self._upstream(cache, upstream)
        param_grads = [None] * (2 * len(self.weights)) if want_params else None
        zgrads = [None] * len(self.weights) if want_zgrads else None
        delta = u * self._head_deriv(zs[-1])
        for i in range(len(self.weights) - 1, -1, -1):
            if want_zgrads:
                zgrads[i] = delta
            if want_params:
                param_grads[2 * i] = delta.T @ acts[i]
                param_grads[2 * i + 1] = delta.sum(axis=0)
            if i == 0 and not want_inputs:
                break
            delta = delta @ self.weights[i]
            if i > 0:
                delta = delta * (zs[i - 1] > 0.0)
        input_grads = delta if want_inputs else None
        return input_grads, param_grads, zgrads

    def grad_params(self, x, upstream):
        """Gradient of ``upstream . forward(x)`` w.r.t. params (summed over batch)."""
        return self.grad_params_cached(self.forward_cache(x), upstream)

    def grad_params_cached(self, cache, upstream):
        """:meth:`grad_params` on a cache from :meth:`forward_cache`.

        For a scalar identity head each layer's backward signal is the
        upstream times that layer's gradient under upstream ones, so this
        reuses the sweep :meth:`input_grad_scalar` memoises in ``cache``.
        """
        if self.out_dim != 1 or self.output_activation != "identity":
            _, grads, _ = self._backward(cache, upstream, want_params=True, want_inputs=False)
            return grads
        u = self._upstream(cache, upstream)
        _, zgrads = self.input_grad_scalar(cache)
        grads = []
        for zg, a in zip(zgrads, cache["acts"]):
            delta = u * zg
            grads += [delta.T @ a, delta.sum(axis=0)]
        return grads

    def grad_input_vjp(self, x, upstream):
        """Per-sample input gradients J(x)^T upstream; shape matches x."""
        cache = self.forward_cache(x)
        g, _, _ = self._backward(cache, upstream, want_params=False, want_inputs=True)
        return g[0] if cache["squeeze"] else g

    def grad_input(self, x):
        """Full Jacobian d forward / d x.

        Returns (out_dim, in_dim) for a single input, (n, out_dim, in_dim)
        for a batch.
        """
        x2, squeeze = self._check_input(x)
        cache = self.forward_cache(x2)
        n = x2.shape[0]
        jac = np.empty((n, self.out_dim, self.in_dim), dtype=self.dtype)
        for k in range(self.out_dim):
            u = np.zeros((n, self.out_dim), dtype=self.dtype)
            u[:, k] = 1.0
            g, _, _ = self._backward(cache, u, want_params=False, want_inputs=True)
            jac[:, k, :] = g
        return jac[0] if squeeze else jac

    def input_grad_scalar(self, cache):
        """Input gradient of a scalar-output net, plus layer pre-activation grads.

        Returns (g, zgrads) where g is (n, in_dim) and ``zgrads[i]`` is the
        gradient w.r.t. layer i's pre-activation. Used together with
        :meth:`double_backprop` for penalties on input-gradient norms. The
        sweep (upstream ones) runs once per cache and is memoised in it, so
        the arrays are shared and read-only.
        """
        if self.out_dim != 1:
            raise ValueError("input_grad_scalar requires a scalar output")
        sweep = cache.get("unit_sweep")
        if sweep is None:
            ones = np.ones((cache["acts"][0].shape[0], 1), dtype=self.dtype)
            g, _, zgrads = self._backward(cache, ones, want_params=False, want_zgrads=True)
            for a in (g, *zgrads):
                a.setflags(write=False)
            sweep = cache["unit_sweep"] = (g, tuple(zgrads))
        return sweep

    def double_backprop(self, cache, zgrads, q):
        """Parameter gradients of sum_n p_n where p_n depends on the input
        gradient g_n of a scalar identity-output net and q_n = dp_n/dg_n.

        ``zgrads`` must be what :meth:`input_grad_scalar` returned for the
        same ``cache``. ReLU masks are treated as locally constant (their
        second derivative is zero almost everywhere), so bias gradients
        vanish.
        """
        if self.output_activation != "identity" or self.out_dim != 1:
            raise ValueError("double_backprop requires a scalar identity output")
        acts, zs = cache["acts"], cache["zs"]
        q = np.asarray(q, dtype=self.dtype)
        if q.shape != acts[0].shape:
            raise ValueError("q must match the input batch shape")
        w = self.weights
        last = len(w) - 1
        grads = [None] * (2 * len(w))
        grads[1::2] = [np.zeros_like(b) for b in self.biases]
        if last == 0:
            grads[0] = zgrads[0].T @ q
            return grads
        r = q
        for i in range(last - 1):
            grads[2 * i] = zgrads[i].T @ r
            r = (r @ w[i].T) * (zs[i] > 0.0)
        # Under upstream ones the last hidden layer's zgrad is w[last][0] * mask, so
        # both remaining weight gradients follow from one product c.
        c = (zs[last - 1] > 0.0).T.astype(self.dtype) @ r
        grads[2 * last - 2] = w[last][0][:, None] * c
        grads[2 * last] = (w[last - 1] * c).sum(axis=1)[None]
        return grads

    # ---- checkpointing ----

    def state_dict(self):
        """Versioned, exactly-serializable description of this net."""
        return {
            "format": CHECKPOINT_FORMAT,
            "layer_sizes": list(self.layer_sizes),
            "output_activation": self.output_activation,
            "bound": self.bound,
            "dtype": self.dtype.name,
            "weights": [w.tolist() for w in self.weights],  # row-major per layer
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_state_dict(cls, state):
        """The net ``state`` describes, in its recorded dtype.

        A checkpoint without a ``"dtype"`` key was written by a float64-only
        version and loads as float64. No random initialisation is drawn.
        """
        if state.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported net checkpoint format {state.get('format')!r}")
        name = state.get("dtype", "float64")
        if name not in ("float32", "float64"):
            raise ValueError(f"unsupported checkpoint dtype {name!r}")
        dtype = np.dtype(name)
        net = cls.__new__(cls)
        net._configure(state["layer_sizes"], state["output_activation"], state["bound"], dtype)
        net.weights = [np.asarray(w, dtype=dtype) for w in state["weights"]]
        net.biases = [np.asarray(b, dtype=dtype) for b in state["biases"]]
        sizes = net.layer_sizes
        if not len(net.weights) == len(net.biases) == len(sizes) - 1 or any(
            w.shape != (fan_out, fan_in) or b.shape != (fan_out,)
            for w, b, fan_in, fan_out in zip(net.weights, net.biases, sizes, sizes[1:])
        ):
            raise ValueError("checkpoint layer shapes inconsistent")
        return net

    def to_json(self):
        return json.dumps(self.state_dict())

    @classmethod
    def from_json(cls, text):
        return cls.from_state_dict(json.loads(text))


class Adam:
    """Adam with bias correction over a flat parameter list."""

    def __init__(self, params, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """Update params in place from grads.

        Every slot is checked before anything is written. A length or shape
        mismatch raises ``ValueError`` and a non-finite gradient raises
        ``FloatingPointError``; either way the params, the moments,
        ``step_count`` and ``param_epoch()`` stay as they were.
        """
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("params/grads length mismatch with optimizer state")
        for i, (p, g, m) in enumerate(zip(params, grads, self.m)):
            if not p.shape == g.shape == m.shape:
                raise ValueError(f"gradient shape mismatch in slot {i}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    f"non-finite gradient in slot {i} (max |g| = {np.max(np.abs(g))})"
                )
        _bump_param_epoch()
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self):
        return {
            "format": "mazehrl-adam-v1",
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "step_count": self.step_count,
            "m": [a.tolist() for a in self.m],
            "v": [a.tolist() for a in self.v],
        }

    @classmethod
    def from_state_dict(cls, state, params):
        """The optimizer ``state`` describes, for ``params``.

        Each moment is cast to its param's dtype. A moment count or shape
        that does not match ``params`` raises ``ValueError`` here, not at
        the next ``step``.
        """
        if state.get("format") != "mazehrl-adam-v1":
            raise ValueError("unsupported optimizer checkpoint format")
        opt = cls(params, lr=state["lr"], beta1=state["beta1"], beta2=state["beta2"], eps=state["eps"])
        opt.step_count = int(state["step_count"])
        for key in ("m", "v"):
            if len(state[key]) != len(params):
                raise ValueError(
                    f"optimizer checkpoint has {len(state[key])} {key} slots for {len(params)} params"
                )
            moments = [np.asarray(a, dtype=p.dtype) for a, p in zip(state[key], params)]
            for i, (a, p) in enumerate(zip(moments, params)):
                if a.shape != p.shape:
                    raise ValueError(f"optimizer checkpoint {key} shape mismatch in slot {i}")
            setattr(opt, key, moments)
        return opt


def polyak_update(target_params, online_params, tau):
    """target <- tau * online + (1 - tau) * target, in place.

    Every slot is checked before anything is written: a bad ``tau`` or a
    length or shape mismatch raises ``ValueError``, a non-finite online
    parameter ``FloatingPointError``, and the targets and ``param_epoch()``
    stay as they were.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    if len(target_params) != len(online_params):
        raise ValueError("polyak length mismatch")
    for i, (t, o) in enumerate(zip(target_params, online_params)):
        if t.shape != o.shape:
            raise ValueError(f"polyak shape mismatch in slot {i}")
        if not np.all(np.isfinite(o)):
            raise FloatingPointError(f"non-finite online parameter in slot {i}")
    _bump_param_epoch()
    for t, o in zip(target_params, online_params):
        t *= 1.0 - tau
        t += tau * o
