"""Minimal differentiable-function kernel.

Fixed-architecture fully connected nets with reverse-mode gradients
w.r.t. parameters and inputs, an Adam optimizer, and Polyak target updates.
A ``state_dict`` holds one value per key: a str, a number, the list
``layer_sizes``, or a copy of one param or moment array in its dtype and
order. So ``np.savez(f, **obj.state_dict())`` writes it as it is, and the
loader reads ``dict(np.load(f, allow_pickle=False))`` back bit-exactly.

The loaders of outside input (``Mlp``/``Adam.from_state_dict``, ``envs.spec_from_dict``,
``graphplan.NoveltyScorer.load_state_dict``) keep one contract, checked in ``_checks``: the
state is a dict holding every key its writer writes and no other, each as the writer's
value or as the array ``np.load`` makes of it; numbers are finite and of their shapes, and counts
are integers (not bools) at or above their least value. Anything else raises ``ValueError``
naming the loader and the key, and nothing is returned or written. Every setting (``lr``,
``tau``, ``alpha``, ``eta``, ``cutoff``, ``delta``, radii, maze coordinates) is one real number,
not NaN, in its interval (``_checks.check_real``), and kept as the float that returns. A value no
caller varies (Adam's betas and epsilon, the tanh head's scale, ``graphplan.NOVELTY_LR``,
``replay.HER_P``) is a module constant, and no checkpoint stores one.

Each net computes in one dtype fixed at construction: float32 by default,
or float64, which the finite-difference and loop-reference oracles use.
Every array a net makes (params, forward caches, outputs, gradients) has
that dtype, and every array it accepts is cast to it; Adam moments follow
their params. Initial weights are drawn in float64 and then cast, so a
seed consumes the same draws in either dtype.

A weight matrix keeps the shape ``(fan_out, fan_in)`` but is stored
column-major (input-major in memory), so the forward product ``a @ W.T``
is a plain NN GEMM that BLAS need not repack. Weight gradients, Adam
moments and Polyak targets share that order. ``W.reshape(-1)`` is
therefore a copy; ``W.ravel(order="K")`` or ``W.reshape(-1, order="A")``
is a flat view. A checkpoint keeps each weight's order.

Nets are immutable during inference; parameter updates go through the
optimizer (``Adam.step``) or ``polyak_update`` on the training thread only.

Reverse-mode calls read a forward cache (``Mlp.forward_cache``), which keeps
every layer's output: a hidden ReLU mask is read as ``a > 0``, the same bits
as ``z > 0`` for ±0 and NaN, and the tanh head's derivative as
``1 - out * out``. They keep three rules:

- A forward cache is valid only for the parameters it was built with; after
  any parameter write, build a new one.
- The ``zgrads`` passed to ``Mlp.double_backprop`` must come from
  ``Mlp.input_grad_scalar`` on the same cache.
- ``input_grad_scalar`` runs its reverse sweep once per cache and memoises
  it there, so the arrays it returns are shared (``grad_params_cached``
  reuses them) and read-only.
"""

from __future__ import annotations

import numpy as np

from ._checks import POSITIVE, UNIT, check_count, check_keys, check_real, read_field

__all__ = ["Mlp", "Adam", "polyak_update"]

CHECKPOINT_FORMAT = "mazehrl-net-v3"  # a v2 dict (with the tanh scale) and a v1 are rejected
ADAM_FORMAT = "mazehrl-adam-v3"  # so is a v2 dict, which lists the moments
MOMENT_FLUSH_EVERY = 32  # Adam steps between flushes of subnormal moments to zero
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's fixed decay rates and epsilon


def _check_slots(values, what, *dests):
    """Before an update writes: ``ValueError`` unless each list in ``dests`` has ``values``'
    slot count and shapes in writeable arrays, ``FloatingPointError`` on a non-finite value."""
    if any(len(dst) != len(values) for dst in dests):
        raise ValueError(f"{what} count mismatch")
    for i, v in enumerate(values):
        for dst in dests:
            if dst[i].shape != v.shape:
                raise ValueError(f"{what} shape mismatch in slot {i}")
            if not dst[i].flags.writeable:
                raise ValueError(f"{what} slot {i}: its destination is read-only")
        if not np.isfinite(v).all():
            raise FloatingPointError(f"non-finite {what} in slot {i} (max |v| = {np.max(np.abs(v))})")


class Mlp:
    """ReLU MLP with an identity or scaled-tanh output head.

    ``layer_sizes`` chains input through hidden widths to the output,
    e.g. ``[4, 64, 64, 2]``. The scaled-tanh head is ``tanh``, at the scale
    1 of the action bound (``envs.ACTION_BOUND``), so outputs lie in
    ``[-1, 1]`` componentwise; a caller with another range scales outside
    the net. ``rng``, a ``np.random.Generator`` passed by name, draws the initial
    weights. ``dtype`` (``np.float32`` or ``np.float64``) is the dtype of
    every array the net makes; inputs, upstream gradients and penalty
    signals are cast to it.

    ``weights`` and ``biases`` are tuples, so a layer is rewritten in place
    (``net.weights[i][...] = v``, which casts ``v`` to the net dtype), never
    replaced by an array of another dtype.
    """

    def __init__(self, layer_sizes, output_activation="identity", *, rng, dtype=np.float32):
        self._configure(layer_sizes, output_activation, dtype, "Mlp")
        weights = []
        n_layers = len(self.layer_sizes) - 1
        for i in range(n_layers):
            fan_in, fan_out = self.layer_sizes[i], self.layer_sizes[i + 1]
            if i < n_layers - 1:
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
            else:
                # small final layer keeps initial outputs near zero
                w = rng.uniform(-3e-3, 3e-3, size=(fan_out, fan_in))
            weights.append(np.asfortranarray(w, dtype=self.dtype))
        self.weights = tuple(weights)
        self.biases = tuple(np.zeros(n, dtype=self.dtype) for n in self.layer_sizes[1:])

    def _configure(self, layer_sizes, output_activation, dtype, what):
        sizes = [check_count(n, f"{what} 'layer_sizes' entry", 1) for n in layer_sizes]
        if len(sizes) < 2:
            raise ValueError(f"{what} 'layer_sizes' must hold >= 2 sizes, got {layer_sizes!r}")
        if output_activation not in ("identity", "scaled_tanh"):
            raise ValueError(f"unknown output activation {output_activation!r}")
        if dtype not in (np.float32, np.float64):
            raise ValueError(f"dtype must be np.float32 or np.float64, got {dtype!r}")
        self.layer_sizes = sizes
        self.output_activation = output_activation
        self.dtype = np.dtype(dtype)

    @property
    def in_dim(self):
        return self.layer_sizes[0]

    @property
    def out_dim(self):
        return self.layer_sizes[-1]

    @property
    def params(self):
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views.

        Weights are column-major, so ``reshape(-1)`` copies them; flatten a
        weight with ``ravel(order="K")`` or ``reshape(-1, order="A")`` to
        write through it.
        """
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def copy(self):
        dup = Mlp.__new__(Mlp)
        dup._configure(self.layer_sizes, self.output_activation, self.dtype, "Mlp")
        dup.weights = tuple(w.copy(order="F") for w in self.weights)
        dup.biases = tuple(b.copy() for b in self.biases)
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
        return self.output(self.forward_cache(x))

    def forward_cache(self, x):
        """Forward pass retaining activations for subsequent backward calls.

        Returns ``{"acts", "squeeze"}``: the input and every layer's output.
        Hidden ReLUs and the tanh head run in place, so reverse sweeps take
        their masks and the head's derivative from ``acts``. The cache
        holds only for the current parameters (see the module docstring);
        reverse-mode calls may memoise results in it.
        """
        x, squeeze = self._check_input(x)
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = acts[-1] @ w.T
            z += b
            if i < last:
                np.maximum(z, 0.0, out=z)
            elif self.output_activation == "scaled_tanh":
                np.tanh(z, out=z)
            acts.append(z)
        return {"acts": acts, "squeeze": squeeze}

    def output(self, cache):
        out = cache["acts"][-1]
        return out[0] if cache["squeeze"] else out

    # ---- reverse mode ----

    def _upstream(self, cache, upstream):
        n = cache["acts"][0].shape[0]
        u = np.asarray(upstream, dtype=self.dtype)
        if u.ndim == 1:
            u = u[None, :]
        if u.shape != (n, self.out_dim):
            raise ValueError(f"upstream shape {u.shape} != {(n, self.out_dim)}")
        return u

    def _through_layer(self, delta, i):
        """``delta @ weights[i]``: the gradient at layer i's input from its pre-activation's."""
        w = self.weights[i]
        if w.shape[0] == 1:
            # A one-column product is an outer product, and numpy's K=1 matmul
            # is slow; + 0.0 turns a -0.0 product into the +0.0 matmul returns.
            out = delta * w[0]
            out += 0.0
            return out
        return delta @ w

    def _backward(self, cache, upstream):
        """Reverse sweep of ``upstream . output``: the layer pre-activation grads.

        The sweep stops at layer 0's pre-activation; the input gradient is
        ``_through_layer(zgrads[0], 0)``, which only its callers pay for.
        """
        acts = cache["acts"]
        zgrads = [None] * len(self.weights)
        delta = self._upstream(cache, upstream)
        if self.output_activation == "scaled_tanh":
            delta = delta * (1.0 - acts[-1] * acts[-1])
        zgrads[-1] = delta
        for i in range(len(self.weights) - 1, 0, -1):
            delta = self._through_layer(delta, i) * (acts[i] > 0.0)
            zgrads[i - 1] = delta
        return zgrads

    def grad_params_cached(self, cache, upstream):
        """Gradient of ``upstream . output`` w.r.t. params (batch-summed), from a ``forward_cache``.

        For a scalar identity head each layer's backward signal is the
        upstream times that layer's gradient under upstream ones, so this
        reuses the sweep :meth:`input_grad_scalar` memoises in ``cache``.
        """
        if self.out_dim == 1 and self.output_activation == "identity":
            u = self._upstream(cache, upstream)
            deltas = [u * zg for zg in self.input_grad_scalar(cache)[1]]
        else:
            deltas = self._backward(cache, upstream)
        # (a.T @ d).T is d.T @ a written column-major, the order of the weights
        return [g for d, a in zip(deltas, cache["acts"]) for g in ((a.T @ d).T, d.sum(axis=0))]

    def grad_input_vjp(self, x, upstream):
        """Per-sample input gradients J(x)^T upstream; shape matches x."""
        cache = self.forward_cache(x)
        g = self._through_layer(self._backward(cache, upstream)[0], 0)
        return g[0] if cache["squeeze"] else g

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
            zgrads = self._backward(cache, ones)
            g = self._through_layer(zgrads[0], 0)
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
        acts = cache["acts"]
        q = np.asarray(q, dtype=self.dtype)
        if q.shape != acts[0].shape:
            raise ValueError("q must match the input batch shape")
        w = self.weights
        last = len(w) - 1
        grads = [None] * (2 * len(w))
        grads[1::2] = [np.zeros_like(b) for b in self.biases]
        # weight gradients are formed transposed, (r.T @ zgrad).T, so that they
        # come out column-major like the weights
        if last == 0:
            grads[0] = (q.T @ zgrads[0]).T
            return grads
        r = q
        for i in range(last - 1):
            grads[2 * i] = (r.T @ zgrads[i]).T
            r = (r @ w[i].T) * (acts[i + 1] > 0.0)
        # Under upstream ones the last hidden layer's zgrad is w[last][0] * mask, so
        # both remaining weight gradients follow from one product c.
        c = (r.T @ (acts[last] > 0.0).astype(self.dtype)).T
        grads[2 * last - 2] = w[last][0][:, None] * c
        grads[2 * last] = (w[last - 1] * c).sum(axis=1)[None]
        return grads

    # ---- checkpointing ----

    def state_dict(self):
        """Versioned description of this net: the settings, then copies ``weight{i}`` and
        ``bias{i}`` of each layer's params (module docstring)."""
        return {
            "format": CHECKPOINT_FORMAT,
            "layer_sizes": list(self.layer_sizes),
            "output_activation": self.output_activation,
            "dtype": self.dtype.name,
            **{f"weight{i}": w.copy(order="F") for i, w in enumerate(self.weights)},
            **{f"bias{i}": b.copy() for i, b in enumerate(self.biases)},
        }

    @classmethod
    def from_state_dict(cls, state):
        """The net ``state`` describes, in its recorded dtype, under the loader contract (module
        docstring): each weight and bias at the shape ``layer_sizes`` implies; no init is drawn."""
        what = "net checkpoint"
        read_field(state, "format", what, None, (CHECKPOINT_FORMAT,))
        dtype = np.dtype(read_field(state, "dtype", what, None, ("float32", "float64")))
        net = cls.__new__(cls)
        sizes = read_field(state, "layer_sizes", what, None, list)
        head = read_field(state, "output_activation", what, None, str)
        net._configure(sizes, head, dtype, what)
        layers = list(enumerate(zip(net.layer_sizes, net.layer_sizes[1:])))
        net.weights = tuple(np.asfortranarray(read_field(state, f"weight{i}", what, (o, n), dtype))
                            for i, (n, o) in layers)
        net.biases = tuple(read_field(state, f"bias{i}", what, (o,), dtype) for i, (_, o) in layers)
        check_keys(state, net.state_dict(), what)
        return net


class Adam:
    """Adam with bias correction over a flat parameter list.

    ``lr``, with no default, is positive and finite; beta1, beta2 and
    epsilon are the constants ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.

    Every ``MOMENT_FLUSH_EVERY`` steps, moments below the dtype's smallest
    normal number are set to zero. Under a zero gradient, ``m *= beta1``
    has fixed points among the subnormals (one ulp times 0.9 rounds back to
    one ulp), so a dead unit's moments would stay subnormal for good, and
    on x86 every vector operation that touches a subnormal takes a slow
    microcode assist. In column-major weights a dead unit's row is spread
    over every column, so it slows the whole step. A flushed moment is
    below 1e-38, so its part of an update is far below a parameter's last
    bit. The flush costs three passes over the moments, so it runs only
    now and then: a moment is then subnormal for at most
    ``MOMENT_FLUSH_EVERY - 1`` steps at a time, not for the rest of the run.
    """

    def __init__(self, params, lr):
        self.lr = check_real(lr, "lr", POSITIVE)
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        """Update params in place from grads.

        Every slot is checked before anything is written. A length or shape
        mismatch raises ``ValueError`` and a non-finite gradient raises
        ``FloatingPointError``; either way the params, the moments and
        ``step_count`` stay as they were. A goal side already scored on these
        params keeps its values (``graphplan.LandmarkSet``).
        """
        _check_slots(grads, "gradient", params, self.m)
        self.step_count += 1
        b1c = 1.0 - ADAM_BETA1**self.step_count
        b2c = 1.0 - ADAM_BETA2**self.step_count
        flush = self.step_count % MOMENT_FLUSH_EVERY == 0
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            if flush:
                tiny = np.finfo(p.dtype).tiny
                m *= np.abs(m) >= tiny
                v *= v >= tiny
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)

    def state_dict(self):
        """The settings, then copies ``m{i}`` and ``v{i}`` of each slot's moments."""
        return {
            "format": ADAM_FORMAT,
            "lr": self.lr,
            "step_count": self.step_count,
            **{f"m{i}": m.copy(order="K") for i, m in enumerate(self.m)},
            **{f"v{i}": v.copy(order="K") for i, v in enumerate(self.v)},
        }

    @classmethod
    def from_state_dict(cls, state, params):
        """The optimizer ``state`` describes, for ``params``, under the loader contract (module
        docstring): each ``m{i}`` and ``v{i}`` at its param's shape and dtype, ``v{i}`` >= 0."""
        what = "optimizer checkpoint"
        read_field(state, "format", what, None, (ADAM_FORMAT,))
        opt = cls(params, lr=read_field(state, "lr", what, (), np.float64))
        count = read_field(state, "step_count", what, None, object)
        opt.step_count = check_count(count, f"{what} 'step_count'", 0)
        for key, dsts in (("m", opt.m), ("v", opt.v)):  # zeros_like moments, in their param's order
            for i, dst in enumerate(dsts):
                a = read_field(state, f"{key}{i}", what, dst.shape, dst.dtype)
                if key == "v" and (a < 0).any():
                    raise ValueError(f"{what} 'v{i}' holds a negative second moment")
                dst[...] = a
        check_keys(state, opt.state_dict(), what)
        return opt


def polyak_update(target_params, online_params, tau):
    """target <- tau * online + (1 - tau) * target, in place.

    Every slot is checked before anything is written: a bad ``tau`` or a
    length or shape mismatch raises ``ValueError``, a non-finite online
    parameter ``FloatingPointError``, and the targets stay as they were. A
    goal side already scored on the targets keeps its values
    (``graphplan.LandmarkSet``).
    """
    tau = check_real(tau, "tau", UNIT)
    _check_slots(online_params, "online parameter", target_params)
    for t, o in zip(target_params, online_params):
        t *= 1.0 - tau
        t += tau * o
