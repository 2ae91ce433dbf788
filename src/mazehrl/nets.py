"""Minimal differentiable-function kernel.

Fixed-architecture fully connected nets in float64 with reverse-mode
gradients w.r.t. parameters and inputs, an Adam optimizer, Polyak target
updates, and a JSON checkpoint format that round-trips bit-exactly.

Nets are immutable during inference; parameter updates go through the
optimizer (``Adam.step``) or ``polyak_update`` on the training thread only.
Both bump ``param_epoch()`` before their first in-place write, and caches of
net outputs (``graphplan.LandmarkSet``'s edge block) rely on that: a
parameter written any other way leaves such a cache stale.
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
    ``[-bound, +bound]`` componentwise. All math is float64.
    """

    def __init__(self, layer_sizes, output_activation="identity", bound=1.0, rng=None):
        if len(layer_sizes) < 2 or any(int(n) <= 0 for n in layer_sizes):
            raise ValueError(f"layer_sizes must be >=2 positive ints, got {layer_sizes}")
        if output_activation not in ("identity", "scaled_tanh"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        if output_activation == "scaled_tanh" and bound <= 0:
            raise ValueError("scaled_tanh bound must be positive")
        self.layer_sizes = [int(n) for n in layer_sizes]
        self.output_activation = output_activation
        self.bound = float(bound)
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
            self.weights.append(np.asarray(w, dtype=np.float64))
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

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
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup

    # ---- forward ----

    def _check_input(self, x):
        x = np.asarray(x, dtype=np.float64)
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
            z = a @ w.T + b
            if i < last:
                a = np.maximum(z, 0.0)
            else:
                a = self._head(z)
        return a[0] if squeeze else a

    def _head(self, z):
        if self.output_activation == "identity":
            return z
        return self.bound * np.tanh(z)

    def forward_cache(self, x):
        """Forward pass retaining activations for subsequent backward calls."""
        x, squeeze = self._check_input(x)
        acts = [x]
        zs = []
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T + b
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

    def _backward(self, cache, upstream, want_params=True, want_inputs=True, want_zgrads=False):
        acts, zs = cache["acts"], cache["zs"]
        n = acts[0].shape[0]
        u = np.asarray(upstream, dtype=np.float64)
        if u.ndim == 1:
            u = u[None, :]
        if u.shape != (n, self.out_dim):
            raise ValueError(f"upstream shape {u.shape} != {(n, self.out_dim)}")
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
        cache = self.forward_cache(x)
        _, grads, _ = self._backward(cache, upstream, want_params=True, want_inputs=False)
        return grads

    def grad_params_cached(self, cache, upstream):
        _, grads, _ = self._backward(cache, upstream, want_params=True, want_inputs=False)
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
        jac = np.empty((n, self.out_dim, self.in_dim), dtype=np.float64)
        for k in range(self.out_dim):
            u = np.zeros((n, self.out_dim), dtype=np.float64)
            u[:, k] = 1.0
            g, _, _ = self._backward(cache, u, want_params=False, want_inputs=True)
            jac[:, k, :] = g
        return jac[0] if squeeze else jac

    def input_grad_scalar(self, cache):
        """Input gradient of a scalar-output net, plus layer pre-activation grads.

        Returns (g, zgrads) where g is (n, in_dim). Used together with
        :meth:`double_backprop` for penalties on input-gradient norms.
        """
        if self.out_dim != 1:
            raise ValueError("input_grad_scalar requires a scalar output")
        n = cache["acts"][0].shape[0]
        ones = np.ones((n, 1), dtype=np.float64)
        g, _, zgrads = self._backward(cache, ones, want_params=False, want_inputs=True, want_zgrads=True)
        return g, zgrads

    def double_backprop(self, cache, zgrads, q):
        """Parameter gradients of sum_n p_n where p_n depends on the input
        gradient g_n of a scalar identity-output net and q_n = dp_n/dg_n.

        ReLU masks are treated as locally constant (their second derivative is
        zero almost everywhere), so bias gradients vanish.
        """
        if self.output_activation != "identity" or self.out_dim != 1:
            raise ValueError("double_backprop requires a scalar identity output")
        acts, zs = cache["acts"], cache["zs"]
        q = np.asarray(q, dtype=np.float64)
        if q.shape != acts[0].shape:
            raise ValueError("q must match the input batch shape")
        grads = [None] * (2 * len(self.weights))
        r = q
        for i, w in enumerate(self.weights):
            grads[2 * i] = zgrads[i].T @ r
            grads[2 * i + 1] = np.zeros_like(self.biases[i])
            if i < len(self.weights) - 1:
                r = (r @ w.T) * (zs[i] > 0.0)
        return grads

    # ---- checkpointing ----

    def state_dict(self):
        """Versioned, exactly-serializable description of this net."""
        return {
            "format": CHECKPOINT_FORMAT,
            "layer_sizes": list(self.layer_sizes),
            "output_activation": self.output_activation,
            "bound": self.bound,
            "weights": [w.tolist() for w in self.weights],  # row-major per layer
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_state_dict(cls, state):
        if state.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported net checkpoint format {state.get('format')!r}")
        net = cls(
            state["layer_sizes"],
            output_activation=state["output_activation"],
            bound=state["bound"],
        )
        net.weights = [np.asarray(w, dtype=np.float64) for w in state["weights"]]
        net.biases = [np.asarray(b, dtype=np.float64) for b in state["biases"]]
        for w, b, fan_out in zip(net.weights, net.biases, net.layer_sizes[1:]):
            if w.shape != (fan_out, w.shape[1]) or b.shape != (fan_out,):
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
        """Update params in place from grads; rejects non-finite gradients."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("params/grads length mismatch with optimizer state")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    f"non-finite gradient in slot {i} (max |g| = {np.max(np.abs(g))})"
                )
        _bump_param_epoch()
        self.step_count += 1
        b1c = 1.0 - self.beta1 ** self.step_count
        b2c = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError("gradient shape mismatch")
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
        if state.get("format") != "mazehrl-adam-v1":
            raise ValueError("unsupported optimizer checkpoint format")
        opt = cls(params, lr=state["lr"], beta1=state["beta1"], beta2=state["beta2"], eps=state["eps"])
        opt.step_count = int(state["step_count"])
        opt.m = [np.asarray(a, dtype=np.float64) for a in state["m"]]
        opt.v = [np.asarray(a, dtype=np.float64) for a in state["v"]]
        return opt


def polyak_update(target_params, online_params, tau):
    """target <- tau * online + (1 - tau) * target, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    _bump_param_epoch()
    for t, o in zip(target_params, online_params):
        if t.shape != o.shape:
            raise ValueError("polyak shape mismatch")
        t *= 1.0 - tau
        t += tau * o
