"""Unit and oracle tests for the differentiable-function kernel."""

import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mazehrl
from mazehrl.nets import Adam, Mlp, polyak_update


def flat_view(a):
    """A 1-D view of ``a`` in its memory order, so a write through it reaches ``a``.

    Weights are column-major, where ``reshape(-1)`` would be a copy and a
    perturbation through it would never reach the net.
    """
    flat = a.reshape(-1, order="A")
    assert np.shares_memory(flat, a)
    return flat


def npz_bytes(state):
    """The bytes ``np.savez`` writes for ``state``."""
    buf = io.BytesIO()
    np.savez(buf, **state)
    return buf.getvalue()


def through_npz(state):
    """``state`` written by ``np.savez`` and read back by ``np.load(allow_pickle=False)``."""
    with np.load(io.BytesIO(npz_bytes(state)), allow_pickle=False) as f:
        return dict(f)


def central_differences(net, loss, h):
    """Central finite differences of the scalar ``loss()`` w.r.t. every parameter of ``net``."""
    grads = []
    for p in net.params:
        g = np.zeros_like(p)
        flat, gflat = flat_view(p), flat_view(g)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = loss()
            flat[i] = orig - h
            minus = loss()
            flat[i] = orig
            gflat[i] = (plus - minus) / (2 * h)
        grads.append(g)
    return grads


def fd_param_grads(net, x, upstream, h=1e-5):
    """Central finite differences of upstream . forward(x) w.r.t. every parameter."""
    return central_differences(net, lambda: float(np.dot(upstream, net.forward(x))), h)


def fd_jacobian(net, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    jac = np.zeros((net.out_dim, x.size))
    for j in range(x.size):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (net.forward(xp) - net.forward(xm)) / (2 * h)
    return jac


def unit_vjp_jacobian(net, x):
    """d forward / d x, one row per unit upstream through ``grad_input_vjp``.

    (out_dim, in_dim) for a single input, (n, out_dim, in_dim) for a batch.
    """
    x = np.asarray(x)
    units = np.eye(net.out_dim)
    rows = [net.grad_input_vjp(x, np.broadcast_to(e, x.shape[:-1] + e.shape)) for e in units]
    return np.stack(rows, axis=-2)


def rel_err(a, b):
    a = np.concatenate([np.ravel(v) for v in a]) if isinstance(a, list) else np.ravel(a)
    b = np.concatenate([np.ravel(v) for v in b]) if isinstance(b, list) else np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-10)


def random_small_net(rng, out_act="identity"):
    n_hidden = int(rng.integers(1, 3))
    sizes = [int(rng.integers(2, 6))] + [int(rng.integers(2, 8)) for _ in range(n_hidden)]
    sizes.append(int(rng.integers(1, 4)))
    net = Mlp(sizes, output_activation=out_act, rng=rng, dtype=np.float64)
    # randomize everything (incl. biases) so no preactivation sits on a ReLU kink
    for i in range(len(net.weights)):
        net.weights[i][...] = rng.normal(0.0, 0.6, size=net.weights[i].shape)
        net.biases[i][...] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
    return net


class TestForward:
    def test_zero_weights_output_is_bias(self):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(1))
        for w in net.weights:
            w[:] = 0.0
        net.biases[-1][:] = [0.7, -0.3]
        out = net.forward(np.array([5.0, -1.0, 2.0]))
        np.testing.assert_allclose(out, [0.7, -0.3])

    def test_single_linear_layer_identity(self):
        net = Mlp([2, 2], rng=np.random.default_rng(1))
        net.weights[0][...] = np.eye(2)
        net.biases[0][:] = 0.0
        np.testing.assert_allclose(net.forward(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_two_layer_relu_hand_computed(self):
        # z0 = (-1, 1.25) -> relu (0, 1.25); y = 2*0 - 1*1.25 + 0.5 = -0.75
        net = Mlp([2, 2, 1], rng=np.random.default_rng(1))
        net.weights[0][...] = [[1.0, -1.0], [0.5, 0.5]]
        net.biases[0][...] = [0.0, -0.25]
        net.weights[1][...] = [[2.0, -1.0]]
        net.biases[1][...] = 0.5
        np.testing.assert_allclose(net.forward(np.array([1.0, 2.0])), [-0.75])

    def test_batch_matches_vector_calls(self):
        rng = np.random.default_rng(7)
        net = random_small_net(rng)
        xs = rng.normal(size=(5, net.in_dim))
        batch = net.forward(xs)
        for i in range(5):
            np.testing.assert_allclose(batch[i], net.forward(xs[i]), rtol=1e-12, atol=1e-12)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        net = random_small_net(rng)
        x = rng.normal(size=net.in_dim)
        a = net.forward(x)
        b = net.forward(x)
        assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch_raises(self):
        net = Mlp([3, 2], rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))

    @pytest.mark.parametrize("head", ["identity", "scaled_tanh"])
    def test_cache_keeps_one_array_per_layer(self, head):
        rng = np.random.default_rng(3)
        net = Mlp([4, 8, 8, 1], head, rng=rng)
        cache = net.forward_cache(rng.normal(size=(5, 4)))
        assert set(cache) == {"acts", "squeeze"}
        acts = cache["acts"]
        assert len(acts) == len(net.weights) + 1
        # every layer's output is its pre-activation array, rewritten in place
        # by a hidden ReLU or the tanh head, and kept once
        for i in range(1, len(acts) - 1):
            assert np.all(acts[i] >= 0.0)
        for a in acts:
            assert sum(np.shares_memory(a, b) for b in acts) == 1
        z = acts[-2] @ net.weights[-1].T + net.biases[-1]
        assert acts[-1].tobytes() == (np.tanh(z) if head == "scaled_tanh" else z).tobytes()

    @pytest.mark.parametrize("width", [4.5, "4", True, np.float64(4.0), 0])
    def test_layer_size_must_be_an_integer_count(self, width):
        """4.5 and "4" were truncated to width 4, and True built width 1."""
        with pytest.raises(ValueError, match="'layer_sizes' entry must be an integer >= 1"):
            Mlp([3, width, 1], rng=np.random.default_rng(0))

    def test_numpy_integer_layer_sizes_accepted(self):
        net = Mlp(np.array([3, 4, 1]), rng=np.random.default_rng(0))
        assert net.layer_sizes == [3, 4, 1] and all(type(n) is int for n in net.layer_sizes)

    def test_scaled_tanh_within_bound(self):
        rng = np.random.default_rng(11)
        net = Mlp([2, 8, 2], output_activation="scaled_tanh", rng=rng)
        net.weights[-1][...] = rng.normal(0.0, 5.0, size=net.weights[-1].shape)
        xs = rng.normal(scale=10.0, size=(200, 2))
        out = net.forward(xs)
        assert np.all(np.abs(out) <= 1.0)  # the action bound
        assert np.max(np.abs(out)) > 0.99


class TestGradParams:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        net = random_small_net(rng)
        x = rng.normal(size=net.in_dim)
        grads = net.grad_params_cached(net.forward_cache(x), np.zeros(net.out_dim))
        for g in grads:
            assert not np.any(g)

    def test_linear_layer_outer_product(self):
        net = Mlp([3, 2], rng=np.random.default_rng(0))
        x = np.array([1.0, -2.0, 3.0])
        u = np.array([0.5, 2.0])
        grads = net.grad_params_cached(net.forward_cache(x), u)
        np.testing.assert_allclose(grads[0], np.outer(u, x))
        np.testing.assert_allclose(grads[1], u)

    @pytest.mark.parametrize("out_act", ["identity", "scaled_tanh"])
    def test_matches_finite_differences(self, out_act):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_small_net(rng, out_act)
            x = rng.normal(size=net.in_dim)
            u = rng.normal(size=net.out_dim)
            grads = net.grad_params_cached(net.forward_cache(x), u)
            assert rel_err(grads, fd_param_grads(net, x, u)) < 1e-4

    def test_batch_sums_per_sample(self):
        rng = np.random.default_rng(5)
        net = random_small_net(rng)
        xs = rng.normal(size=(4, net.in_dim))
        us = rng.normal(size=(4, net.out_dim))
        batch = net.grad_params_cached(net.forward_cache(xs), us)
        acc = [np.zeros_like(p) for p in net.params]
        for i in range(4):
            for a, g in zip(acc, net.grad_params_cached(net.forward_cache(xs[i]), us[i])):
                a += g
        for a, b in zip(acc, batch):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestGradInput:
    def test_linear_jacobian_is_weight_matrix(self):
        net = Mlp([3, 2], rng=np.random.default_rng(0))
        net.weights[0][...] = [[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]
        jac = unit_vjp_jacobian(net, np.array([0.3, -0.7, 2.0]))
        np.testing.assert_allclose(jac, net.weights[0])

    def test_dead_relu_zero_jacobian(self):
        net = Mlp([2, 3, 2], rng=np.random.default_rng(0))
        np.abs(net.weights[0], out=net.weights[0])
        net.biases[0][:] = -1.0
        # all layer-1 preactivations negative at a strictly negative input
        jac = unit_vjp_jacobian(net, np.array([-2.0, -3.0]))
        assert not np.any(jac)

    @pytest.mark.parametrize("out_act", ["identity", "scaled_tanh"])
    def test_matches_finite_differences(self, out_act):
        rng = np.random.default_rng(43)
        for _ in range(20):
            net = random_small_net(rng, out_act)
            x = rng.normal(size=net.in_dim)
            assert rel_err(unit_vjp_jacobian(net, x), fd_jacobian(net, x)) < 1e-4

    def test_vjp_matches_jacobian_transpose(self):
        rng = np.random.default_rng(6)
        net = random_small_net(rng)
        x = rng.normal(size=net.in_dim)
        u = rng.normal(size=net.out_dim)
        assert rel_err(net.grad_input_vjp(x, u), fd_jacobian(net, x).T @ u) < 1e-6

    def test_scaled_tanh_jacobian_finite_on_grid(self):
        rng = np.random.default_rng(9)
        net = Mlp([2, 16, 16, 2], output_activation="scaled_tanh", rng=rng)
        grid = np.stack(np.meshgrid(np.linspace(-8, 8, 17), np.linspace(-8, 8, 17)), axis=-1).reshape(-1, 2)
        jac = unit_vjp_jacobian(net, grid)
        norms = np.sqrt((jac**2).sum(axis=(1, 2)))
        assert np.all(np.isfinite(norms))


class TestDoubleBackprop:
    def penalty_and_grads(self, net, xs, bound):
        cache = net.forward_cache(xs)
        g, zgrads = net.input_grad_scalar(cache)
        norms = np.linalg.norm(g, axis=1)
        excess = np.maximum(norms - bound, 0.0)
        p = float(np.sum(excess**2))
        safe = np.where(norms > 0, norms, 1.0)
        q = (2.0 * excess / safe)[:, None] * g
        return p, net.double_backprop(cache, zgrads, q)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            sizes = [3, 6, 5, 1]
            net = Mlp(sizes, rng=rng, dtype=np.float64)
            for i in range(len(net.weights)):
                net.weights[i][...] = rng.normal(0.0, 0.8, size=net.weights[i].shape)
                net.biases[i][...] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
            xs = rng.normal(size=(4, 3))
            bound = 0.1  # low enough that the hinge is active
            _, grads = self.penalty_and_grads(net, xs, bound)
            fd = central_differences(net, lambda: self.penalty_and_grads(net, xs, bound)[0], 1e-6)
            weight_slots = [i for i in range(len(grads)) if grads[i].ndim == 2]
            a = [grads[i] for i in weight_slots]
            b = [fd[i] for i in weight_slots]
            assert rel_err(a, b) < 1e-4

    def test_inactive_hinge_zero_grads(self):
        rng = np.random.default_rng(13)
        net = Mlp([2, 4, 1], rng=rng)
        xs = rng.normal(size=(3, 2))
        _, grads = self.penalty_and_grads(net, xs, bound=1e9)
        for g in grads:
            assert not np.any(g)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        net = Mlp([2, 2], rng=np.random.default_rng(0))
        opt = Adam(net.params, lr=0.1)
        before = [p.copy() for p in net.params]
        opt.step(net.params, [np.zeros_like(p) for p in net.params])
        for b, p in zip(before, net.params):
            np.testing.assert_array_equal(b, p)
        assert opt.step_count == 1

    def test_first_step_sign_aligned(self):
        p = [np.array([1.0, -2.0, 0.5])]
        opt = Adam(p, lr=0.01)
        g = [np.array([3.0, -1.0, 0.2])]
        before = p[0].copy()
        opt.step(p, g)
        delta = p[0] - before
        assert np.all(np.sign(delta) == -np.sign(g[0]))

    def test_three_steps_match_hand_recurrence(self):
        # scalar quadratic f(x) = 0.5 x^2, grad = x; replicate Adam by hand
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x = np.array([2.0])
        opt = Adam([x], lr=lr)
        xs_hand = 2.0
        m = v = 0.0
        for t in range(1, 4):
            g = xs_hand
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            xs_hand = xs_hand - lr * mhat / (np.sqrt(vhat) + eps)
            opt.step([x], [np.array([x[0]])])
            assert x[0] == pytest.approx(xs_hand, abs=1e-14)
        assert opt.step_count == 3

    @pytest.mark.parametrize("dtype, steps", [(np.float32, 1000), (np.float64, 7000)])
    def test_decayed_moments_reach_zero(self, dtype, steps):
        """``m *= 0.9`` alone would stop at a subnormal fixed point, a few ulps above zero."""
        p = [np.zeros(3, dtype=dtype)]
        opt = Adam(p, lr=1e-3)
        opt.step(p, [np.array([1.0, -1e-3, 1e-20], dtype=dtype)])
        for _ in range(steps):
            opt.step(p, [np.zeros(3, dtype=dtype)])
        assert not np.any(opt.m[0])
        tiny = np.finfo(dtype).tiny
        assert np.all((opt.v[0] == 0) | (opt.v[0] >= tiny))

    def test_nonfinite_gradient_rejected(self):
        p = [np.zeros(2)]
        opt = Adam(p, lr=3e-4)
        with pytest.raises(FloatingPointError):
            opt.step(p, [np.array([1.0, np.nan])])

    def test_optimizer_state_roundtrip(self):
        p = [np.array([1.0, 2.0])]
        opt = Adam(p, lr=0.05)
        opt.step(p, [np.array([0.3, -0.4])])
        restored = Adam.from_state_dict(through_npz(opt.state_dict()), p)
        assert restored.step_count == opt.step_count and restored.lr == opt.lr
        for a, b in zip(restored.m + restored.v, opt.m + opt.v):
            assert a.tobytes() == b.tobytes()
        assert npz_bytes(restored.state_dict()) == npz_bytes(opt.state_dict())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_moments_take_param_dtype(self, dtype):
        p = [np.array([1.0, 2.0], dtype=dtype), np.zeros((2, 3), dtype=dtype)]
        opt = Adam(p, lr=0.05)
        opt.step(p, [np.array([0.3, -0.4], dtype=dtype), np.full((2, 3), 0.1, dtype=dtype)])
        state = through_npz(opt.state_dict())
        restored = Adam.from_state_dict(state, p)
        for a, b, param in zip(restored.m + restored.v, opt.m + opt.v, p + p):
            assert a.dtype == param.dtype and a.tobytes() == b.tobytes()
        assert npz_bytes(restored.state_dict()) == npz_bytes(state)

    @pytest.mark.parametrize("m", [[0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_mismatched_moments_rejected_at_load(self, m):
        p = [np.zeros(3)]
        state = {**Adam(p, lr=3e-4).state_dict(), "m0": m}
        with pytest.raises(ValueError, match="optimizer checkpoint 'm0' must be real numbers of shape"):
            Adam.from_state_dict(state, p)

    def test_negative_second_moment_rejected_at_load(self):
        """The next step would take the square root of -1 and make the param NaN."""
        p = [np.zeros(3)]
        state = {**Adam(p, lr=3e-4).state_dict(), "v0": [-1.0, 0.0, 0.0]}
        with pytest.raises(ValueError, match="'v0' holds a negative second moment"):
            Adam.from_state_dict(state, p)

    def test_v1_checkpoint_rejected(self):
        """v1 also stored beta1, beta2 and eps, the module constants; v3 stores none of them."""
        p = [np.zeros(3)]
        state = Adam(p, lr=3e-4).state_dict()
        assert sorted(state) == ["format", "lr", "m0", "step_count", "v0"]
        v1 = {**state, "format": "mazehrl-adam-v1", "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
        with pytest.raises(ValueError, match="^optimizer checkpoint 'format' must be one of"):
            Adam.from_state_dict(v1, p)

    def test_v2_checkpoint_rejected(self):
        """v2 listed the moments under 'm' and 'v'; v3 keeps one array per key."""
        p = [np.zeros(3)]
        v2 = {**listed(Adam(p, lr=3e-4).state_dict(), m="m", v="v"), "format": "mazehrl-adam-v2"}
        assert sorted(v2) == ["format", "lr", "m", "step_count", "v"]
        with pytest.raises(ValueError, match="^optimizer checkpoint 'format' must be one of"):
            Adam.from_state_dict(v2, p)

    @pytest.mark.parametrize("key", sorted(Adam([np.zeros(3)], lr=3e-4).state_dict()))
    def test_missing_key_rejected(self, key):
        p = [np.zeros(3)]
        state = Adam(p, lr=3e-4).state_dict()
        del state[key]
        with pytest.raises(ValueError, match=key):
            Adam.from_state_dict(state, p)

    @pytest.mark.parametrize("count", [-1, 2.7, 2.0, "2", None])
    def test_bad_step_count_rejected(self, count):
        """-1 makes the next bias correction zero and every parameter NaN;
        2.7 would be truncated to 2."""
        p = [np.zeros(3)]
        state = {**Adam(p, lr=3e-4).state_dict(), "step_count": count}
        with pytest.raises(ValueError, match="step_count"):
            Adam.from_state_dict(state, p)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_bad_lr_rejected(self, lr):
        """A NaN or infinite rate makes every parameter non-finite after one step;
        a rate at or below zero climbs the loss."""
        p = [np.zeros(3)]
        with pytest.raises(ValueError, match="lr must be positive and finite"):
            Adam(p, lr=lr)
        state = {**Adam(p, lr=3e-4).state_dict(), "lr": lr}
        with pytest.raises(ValueError, match="lr must be positive and finite|'lr' holds a NaN or infinite"):
            Adam.from_state_dict(state, p)


class TestPolyak:
    def test_tau_one_copies(self):
        t, o = [np.zeros(3)], [np.array([1.0, 2.0, 3.0])]
        polyak_update(t, o, 1.0)
        np.testing.assert_array_equal(t[0], o[0])

    def test_tau_zero_keeps_target(self):
        t, o = [np.array([5.0, 6.0])], [np.array([1.0, 2.0])]
        polyak_update(t, o, 0.0)
        np.testing.assert_array_equal(t[0], [5.0, 6.0])

    def test_midpoint(self):
        t, o = [np.zeros(2)], [np.full(2, 2.0)]
        polyak_update(t, o, 0.5)
        np.testing.assert_array_equal(t[0], [1.0, 1.0])

    def test_bad_tau_raises(self):
        with pytest.raises(ValueError):
            polyak_update([np.zeros(1)], [np.zeros(1)], 1.5)


STEPPED_CHECKPOINTS = """
import sys
import numpy as np
from mazehrl.nets import Adam, Mlp
for dtype in (np.float32, np.float64):
    rng = np.random.default_rng(0)
    net = Mlp([8, 64, 64, 1], rng=rng, dtype=dtype)
    opt = Adam(net.params, lr=3e-4)
    for _ in range(3):
        cache = net.forward_cache(rng.normal(size=(32, 8)))
        opt.step(net.params, net.grad_params_cached(cache, rng.normal(size=(32, 1))))
    np.savez(f"{sys.argv[1]}-net-{dtype.__name__}.npz", **net.state_dict())
    np.savez(f"{sys.argv[1]}-opt-{dtype.__name__}.npz", **opt.state_dict())
"""


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("head", ["identity", "scaled_tanh"])
    def test_npz_roundtrip_bit_exact(self, head, dtype):
        """Written by ``np.savez`` as it is, read back equal; save -> load -> save gives the same bytes."""
        net = random_small_net(np.random.default_rng(21), head)
        net = Mlp.from_state_dict({**net.state_dict(), "dtype": np.dtype(dtype).name})
        state = through_npz(net.state_dict())
        clone = Mlp.from_state_dict(state)
        assert type(clone.layer_sizes[0]) is int and clone.layer_sizes == net.layer_sizes
        assert clone.output_activation == net.output_activation
        assert clone.dtype == net.dtype
        assert_bit_identical(clone.params, net.params)
        assert npz_bytes(clone.state_dict()) == npz_bytes(state) == npz_bytes(net.state_dict())

    def test_two_processes_write_the_same_bytes(self, tmp_path):
        """A stepped net and its Adam in each dtype, each written by ``np.savez`` as it is."""
        src = os.path.dirname(os.path.dirname(mazehrl.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for run in ("a", "b"):
            cmd = [sys.executable, "-c", STEPPED_CHECKPOINTS, str(tmp_path / run)]
            subprocess.run(cmd, env=env, check=True, timeout=60)
        names = sorted(p.name[2:] for p in tmp_path.glob("a-*.npz"))
        assert names == ["net-float32.npz", "net-float64.npz", "opt-float32.npz", "opt-float64.npz"]
        for name in names:
            assert (tmp_path / f"a-{name}").read_bytes() == (tmp_path / f"b-{name}").read_bytes()

    def test_state_dict_is_a_copy(self):
        net = Mlp([3, 4, 1], rng=np.random.default_rng(0))
        state = net.state_dict()
        state["weight0"][...] = 0.0
        state["bias1"][...] = 1.0
        assert net.weights[0].any() and not net.biases[1].any()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            Mlp.from_state_dict({"format": "something-else"})

    def test_v1_checkpoint_rejected(self):
        """v1 listed the layers under 'weights' and 'biases'; v2 keeps one array per key."""
        state = Mlp([3, 4, 1], rng=np.random.default_rng(0)).state_dict()
        assert [k for k in state if k[-1].isdigit()] == ["weight0", "weight1", "bias0", "bias1"]
        v1 = {**listed(state, weights="weight", biases="bias"), "format": "mazehrl-net-v1"}
        with pytest.raises(ValueError, match="^net checkpoint 'format' must be one of"):
            Mlp.from_state_dict(v1)

    @pytest.mark.parametrize("head", ["identity", "scaled_tanh"])
    def test_v2_checkpoint_rejected(self, head):
        """v2 also stored the tanh head's scale; v3 writes no 'bound' key."""
        state = Mlp([3, 4, 1], head, rng=np.random.default_rng(0)).state_dict()
        assert state["format"] == "mazehrl-net-v3" and "bound" not in state
        with pytest.raises(ValueError, match="^net checkpoint 'format' must be one of"):
            Mlp.from_state_dict({**state, "format": "mazehrl-net-v2", "bound": 1.0})

    def test_same_seed_same_net(self):
        a = Mlp([3, 8, 2], rng=np.random.default_rng(123))
        b = Mlp([3, 8, 2], rng=np.random.default_rng(123))
        for pa, pb in zip(a.params, b.params):
            assert pa.tobytes() == pb.tobytes()

    def test_wrong_fan_in_rejected(self):
        state = Mlp([4, 8, 1], rng=np.random.default_rng(0)).state_dict()
        state["weight0"] = np.zeros((8, 5))
        with pytest.raises(ValueError, match="'weight0' must be real numbers of shape"):
            Mlp.from_state_dict(state)

    def test_missing_layer_rejected(self):
        state = Mlp([4, 8, 1], rng=np.random.default_rng(0)).state_dict()
        del state["weight1"], state["bias1"]
        with pytest.raises(ValueError, match="^net checkpoint has no 'weight1' key"):
            Mlp.from_state_dict(state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_keeps_dtype_bit_exact(self, dtype):
        net = Mlp([3, 8, 2], "scaled_tanh", rng=np.random.default_rng(4), dtype=dtype)
        state = through_npz(net.state_dict())
        assert state["dtype"] == np.dtype(dtype).name and state["weight0"].dtype == dtype
        clone = Mlp.from_state_dict(state)
        assert clone.dtype == dtype
        for a, b in zip(clone.params, net.params):
            assert a.dtype == dtype and a.tobytes() == b.tobytes()
        x = np.random.default_rng(5).normal(size=(4, 3))
        assert clone.forward(x).tobytes() == net.forward(x).tobytes()

    def test_checkpoint_without_dtype_rejected(self):
        state = Mlp([3, 4, 1], rng=np.random.default_rng(0), dtype=np.float64).state_dict()
        del state["dtype"]
        with pytest.raises(ValueError, match="dtype"):
            Mlp.from_state_dict(state)

    @pytest.mark.parametrize("key", sorted(Mlp([3, 1], rng=np.random.default_rng(0)).state_dict()))
    def test_missing_key_rejected(self, key):
        state = Mlp([3, 4, 1], rng=np.random.default_rng(0)).state_dict()
        del state[key]
        with pytest.raises(ValueError, match=key):
            Mlp.from_state_dict(state)

    @pytest.mark.parametrize("key, value", [("dtype", "float16"), ("output_activation", "relu")])
    def test_bad_config_rejected(self, key, value):
        state = {**Mlp([3, 4, 1], rng=np.random.default_rng(0)).state_dict(), key: value}
        with pytest.raises(ValueError):
            Mlp.from_state_dict(state)

    def test_load_draws_no_initialisation(self, monkeypatch):
        state = Mlp([3, 4, 1], rng=np.random.default_rng(0)).state_dict()

        def no_init(*args, **kwargs):
            raise AssertionError("from_state_dict ran the random initialisation")

        monkeypatch.setattr(Mlp, "__init__", no_init)
        Mlp.from_state_dict(state)


class TestRejectedUpdatesWriteNothing:
    @staticmethod
    def snapshot(*arrays):
        return [a.tobytes() for a in arrays]

    @pytest.mark.parametrize(
        "grads, error",
        [
            ([np.ones(2), np.ones(4)], ValueError),  # shape mismatch in slot 1
            ([np.ones(2)], ValueError),  # length mismatch
            ([np.ones(2), np.array([1.0, 2.0, np.nan])], FloatingPointError),
        ],
    )
    def test_adam_rejection_leaves_state(self, grads, error):
        p = [np.zeros(2), np.zeros(3)]
        opt = Adam([np.zeros(2), np.zeros(3)], lr=0.1)
        before = self.snapshot(*p, *opt.m, *opt.v)
        with pytest.raises(error):
            opt.step(p, grads)
        assert self.snapshot(*p, *opt.m, *opt.v) == before
        assert opt.step_count == 0

    def test_adam_read_only_param_leaves_state(self):
        """numpy would raise only at the in-place write, after the moments
        and step_count had moved."""
        p = [np.zeros(2), np.zeros(3)]
        p[1].setflags(write=False)
        opt = Adam(p, lr=0.1)
        before = self.snapshot(*p, *opt.m, *opt.v)
        with pytest.raises(ValueError, match="read-only"):
            opt.step(p, [np.ones(2), np.ones(3)])
        assert self.snapshot(*p, *opt.m, *opt.v) == before
        assert opt.step_count == 0

    def test_polyak_read_only_target_leaves_targets(self):
        t = [np.zeros(2), np.zeros(3)]
        t[1].setflags(write=False)
        before = self.snapshot(*t)
        with pytest.raises(ValueError, match="read-only"):
            polyak_update(t, [np.ones(2), np.ones(3)], 0.5)
        assert self.snapshot(*t) == before

    @pytest.mark.parametrize(
        "n_targets, online, error",
        [
            (2, [np.ones(2), np.ones(4)], ValueError),  # shape mismatch in slot 1
            (1, [np.ones(2), np.ones(4)], ValueError),  # more online slots than targets
            (2, [np.ones(2)], ValueError),  # fewer online slots than targets
            (2, [np.ones(2), np.array([1.0, np.inf, 0.0])], FloatingPointError),
        ],
    )
    def test_polyak_rejection_leaves_targets(self, n_targets, online, error):
        t = [np.zeros(2), np.zeros(3)][:n_targets]
        before = self.snapshot(*t)
        with pytest.raises(error):
            polyak_update(t, online, 0.5)
        assert self.snapshot(*t) == before


# ---- loop references: a full reverse sweep per call, and double backprop layer by layer ----


def reference_head(net, z):
    """The output head at ``z`` and its derivative there: tanh for the scaled-tanh head."""
    if net.output_activation == "identity":
        return z, np.ones_like(z)
    t = np.tanh(z)
    return t, 1.0 - t * t


def reference_forward_cache(net, x):
    acts, zs = [x], []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(net.weights) - 1 else reference_head(net, z)[0])
    return {"acts": acts, "zs": zs, "squeeze": False}


def reference_backward(net, cache, u):
    """One reverse sweep per call: (input grad, param grads, pre-activation grads)."""
    acts, zs = cache["acts"], cache["zs"]
    grads = [None] * (2 * len(net.weights))
    zgrads = [None] * len(net.weights)
    delta = u * reference_head(net, zs[-1])[1]
    for i in range(len(net.weights) - 1, -1, -1):
        zgrads[i] = delta
        grads[2 * i] = delta.T @ acts[i]
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i]
        if i > 0:
            delta = delta * (zs[i - 1] > 0.0)
    return delta, grads, zgrads


def reference_double_backprop(net, cache, zgrads, q):
    grads, r = [], q
    for i, w in enumerate(net.weights):
        grads += [zgrads[i].T @ r, np.zeros_like(net.biases[i])]
        if i < len(net.weights) - 1:
            r = (r @ w.T) * (cache["zs"][i] > 0.0)
    return grads


def assert_bit_identical(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_up_to_order(got, want, magnitude):
    """``got`` and ``want`` sum the same terms in different orders.

    ``magnitude`` is the same computation on absolute values, so it bounds
    the sum of |term| behind every entry. Entries agree to 1e-12 of it, which
    makes an entry exactly zero in both wherever every term is zero.
    """
    assert len(got) == len(want) == len(magnitude)
    for a, b, m in zip(got, want, magnitude):
        assert a.shape == b.shape
        assert np.all(np.abs(a - b) <= 1e-12 * m)


LAYER_SIZES = st.sampled_from([[3, 1], [3, 5, 1], [3, 6, 5, 1], [4, 7, 6, 5, 1]])
UNIT_STATES = st.sampled_from(["live", "live", "dead", "kink"])


@st.composite
def scalar_critic_batches(draw):
    """A scalar identity-head net, a batch, an upstream u and a penalty signal q.

    Hidden units are live (random row), dead (zero row, bias -1, so z < 0)
    or on the kink (zero row and bias, so z == 0 and the mask is off). Some
    inputs and last-layer weights are replaced by +0.0 or -0.0; a signed-zero
    last-layer weight makes a -0.0 product in the first backward step.
    """
    sizes = draw(LAYER_SIZES)
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = Mlp(sizes, rng=rng, dtype=np.float64)
    for i in range(len(net.weights)):
        net.weights[i][...] = rng.normal(0.0, 0.8, size=net.weights[i].shape)
        net.biases[i][...] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
        if i == len(net.weights) - 1:
            signed = draw(st.sampled_from([0.0, 0.5])) > rng.random(net.weights[i].shape)
            net.weights[i][signed] = np.where(rng.random(signed.shape) < 0.5, 0.0, -0.0)[signed]
            continue
        states = draw(st.lists(UNIT_STATES, min_size=sizes[i + 1], max_size=sizes[i + 1]))
        for j, state in enumerate(states):
            if state != "live":
                net.weights[i][j] = 0.0
                net.biases[i][j] = -1.0 if state == "dead" else 0.0
    x = rng.normal(size=(n, sizes[0]))
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0])) > rng.random(x.shape)
    x[zeros] = np.where(rng.random(x.shape) < 0.5, 0.0, -0.0)[zeros]
    return net, x, rng.normal(size=(n, 1)), rng.normal(size=x.shape)


def absolute(net, cache):
    """``net`` and ``cache`` with |weights| and |activations| but the same ReLU masks."""
    abs_net = net.copy()
    for w in abs_net.weights:
        np.abs(w, out=w)
    return abs_net, {"acts": [np.abs(a) for a in cache["acts"]], "zs": cache["zs"]}


class TestSharedUnitSweep:
    @settings(max_examples=300, deadline=None)
    @given(scalar_critic_batches())
    def test_matches_loop_reference(self, case):
        net, x, u, q = case
        cache = net.forward_cache(x)
        ref = reference_forward_cache(net, x)
        assert net.forward(x).tobytes() == ref["acts"][-1].tobytes()
        assert_bit_identical(cache["acts"], ref["acts"])

        td = net.grad_params_cached(cache, u)
        g, zgrads = net.input_grad_scalar(cache)
        pen = net.double_backprop(cache, zgrads, q)

        _, ref_td, _ = reference_backward(net, ref, u)
        ref_g, _, ref_zgrads = reference_backward(net, ref, np.ones_like(u))
        assert_bit_identical([g, *zgrads], [ref_g, *ref_zgrads])
        ref_pen = reference_double_backprop(net, ref, ref_zgrads, q)

        abs_net, abs_ref = absolute(net, ref)
        _, abs_td, _ = reference_backward(abs_net, abs_ref, np.abs(u))
        _, _, abs_zgrads = reference_backward(abs_net, abs_ref, np.ones_like(u))
        abs_pen = reference_double_backprop(abs_net, abs_ref, abs_zgrads, np.abs(q))
        assert_same_up_to_order(td, ref_td, abs_td)
        assert_same_up_to_order(pen, ref_pen, abs_pen)
        # the last two layers' TD gradients keep their summation order
        for got, want in zip(td[-4:], ref_td[-4:]):
            np.testing.assert_array_equal(got, want)
        for b in pen[1::2]:
            assert not np.any(b)
        assert_bit_identical(net.grad_params_cached(net.forward_cache(x), u), td)

    def test_one_reverse_sweep_per_cache(self, monkeypatch):
        sweeps = []
        backward = Mlp._backward

        def counted(self, *args, **kwargs):
            sweeps.append(1)
            return backward(self, *args, **kwargs)

        monkeypatch.setattr(Mlp, "_backward", counted)
        rng = np.random.default_rng(4)
        net = Mlp([8, 16, 16, 1], rng=rng)
        x, u = rng.normal(size=(5, 8)), rng.normal(size=(5, 1))
        cache = net.forward_cache(x)
        net.grad_params_cached(cache, u)
        g, zgrads = net.input_grad_scalar(cache)
        net.double_backprop(cache, zgrads, g)
        assert len(sweeps) == 1
        net.grad_params_cached(net.forward_cache(x), u)
        assert len(sweeps) == 2  # a new cache runs its own sweep

    def test_memoised_arrays_are_shared_and_read_only(self):
        rng = np.random.default_rng(5)
        net = Mlp([4, 6, 5, 1], rng=rng)
        cache = net.forward_cache(rng.normal(size=(3, 4)))
        g, zgrads = net.input_grad_scalar(cache)
        again = net.input_grad_scalar(cache)
        assert again[0] is g and all(a is b for a, b in zip(again[1], zgrads))
        for a in (g, *zgrads):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0

    @pytest.mark.parametrize(
        "sizes, head",
        [
            ([6, 16, 16, 2], "scaled_tanh"),  # actor-shaped
            ([3, 5, 1], "scaled_tanh"),  # scalar tanh head
            ([4, 8, 8, 3], "identity"),  # RND-predictor-shaped
        ],
    )
    def test_other_heads_keep_their_sweep(self, sizes, head):
        rng = np.random.default_rng(6)
        net = Mlp(sizes, output_activation=head, rng=rng, dtype=np.float64)
        for w in net.weights:
            w[...] = rng.normal(0.0, 0.8, size=w.shape)
        x, u = rng.normal(size=(7, sizes[0])), rng.normal(size=(7, sizes[-1]))
        ref = reference_forward_cache(net, x)
        grads = net.grad_params_cached(net.forward_cache(x), u)
        assert_bit_identical(grads, reference_backward(net, ref, u)[1])
        if sizes[-1] == 1:
            g, zgrads = net.input_grad_scalar(net.forward_cache(x))
            ref_g, _, ref_zgrads = reference_backward(net, ref, np.ones_like(u))
            assert_bit_identical([g, *zgrads], [ref_g, *ref_zgrads])


# ---- the net-level dtype ----


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float16, np.int64, "float32", None, float])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="dtype"):
            Mlp([3, 4, 1], rng=np.random.default_rng(0), dtype=dtype)

    def test_rng_is_required(self):
        """Without one, two nets (twin critics, say) would start from the same draws."""
        with pytest.raises(TypeError, match="rng"):
            Mlp([3, 4, 1])

    def test_same_draws_in_either_dtype(self):
        rng32, rng64 = np.random.default_rng(8), np.random.default_rng(8)
        net32 = Mlp([3, 8, 8, 2], rng=rng32)
        net64 = Mlp([3, 8, 8, 2], rng=rng64, dtype=np.float64)
        assert net32.dtype == np.float32 and net64.dtype == np.float64
        for a, b in zip(net32.params, net64.params):
            assert a.tobytes() == b.astype(np.float32).tobytes()
        assert rng32.bit_generator.state == rng64.bit_generator.state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_array_takes_the_net_dtype(self, dtype):
        rng = np.random.default_rng(9)
        critic = Mlp([5, 8, 8, 1], rng=rng, dtype=dtype)
        actor = Mlp([4, 8, 2], "scaled_tanh", rng=rng, dtype=dtype)
        x = rng.normal(size=(6, 5))  # float64 inputs are cast
        cache = critic.forward_cache(x)
        g, zgrads = critic.input_grad_scalar(cache)
        arrays = [
            critic.forward(x), *cache["acts"], g, *zgrads,
            *critic.grad_params_cached(cache, rng.normal(size=(6, 1))),
            *critic.double_backprop(cache, zgrads, rng.normal(size=(6, 5))),
            *actor.grad_params_cached(actor.forward_cache(x[:, :4]), rng.normal(size=(6, 2))),
            actor.grad_input_vjp(x[:, :4], rng.normal(size=(6, 2))),
        ]
        target = critic.copy()
        opt = Adam(critic.params, lr=3e-4)
        opt.step(critic.params, critic.grad_params_cached(critic.forward_cache(x), np.ones((6, 1))))
        polyak_update(target.params, critic.params, 0.5)
        arrays += critic.params + target.params + opt.m + opt.v
        assert all(a.dtype == dtype for a in arrays)


    @pytest.mark.parametrize("made_by", ["init", "copy", "checkpoint"])
    def test_layers_are_replaced_only_in_place(self, made_by):
        net = Mlp([3, 4, 2], rng=np.random.default_rng(2))
        if made_by == "copy":
            net = net.copy()
        elif made_by == "checkpoint":
            net = Mlp.from_state_dict(net.state_dict())
        for layers in (net.weights, net.biases):
            with pytest.raises(TypeError):
                layers[0] = np.zeros(layers[0].shape)
        v = np.random.default_rng(3).normal(size=net.weights[0].shape)
        net.weights[0][...] = v
        net.biases[0][...] = 0.1
        assert net.weights[0].tobytes() == v.astype(np.float32).tobytes()
        assert all(p.dtype == np.float32 for p in net.params)
        assert net.forward(np.ones(3)).dtype == np.float32


class TestFloat32Agreement:
    """float32 and float64 nets from the same weights, run through the penalised TD update."""

    def test_penalised_updates_agree(self):
        rng = np.random.default_rng(0)
        net32 = Mlp([8, 64, 64, 1], rng=rng)
        net64 = Mlp.from_state_dict({**net32.state_dict(), "dtype": "float64"})
        opts = {net: Adam(net.params, lr=1e-3) for net in (net32, net64)}
        bound, n = 1.0, 64
        q = {net: [] for net in opts}
        norms = {net: [] for net in opts}
        active = dict.fromkeys(opts, 0)
        for _ in range(100):
            x = rng.normal(size=(n, 8))
            y = -3.0 * np.linalg.norm(x[:, 4:6], axis=1)
            for net, opt in opts.items():
                cache = net.forward_cache(x)
                out = net.output(cache)[:, 0]
                g_td = net.grad_params_cached(cache, (2.0 / n) * (out - y)[:, None])
                g, zgrads = net.input_grad_scalar(cache)
                norm = np.linalg.norm(g, axis=1)
                excess = np.maximum(norm - bound, 0.0)
                scale = 2.0 / n * excess / np.where(norm > 0, norm, 1.0)
                g_pen = net.double_backprop(cache, zgrads, scale[:, None] * g)
                opt.step(net.params, [a + b for a, b in zip(g_td, g_pen)])
                q[net].append(out)
                norms[net].append(norm)
                active[net] += int(np.count_nonzero(excess))
        q32, q64 = np.concatenate(q[net32]), np.concatenate(q[net64])
        assert q32.dtype == np.float32 and q64.dtype == np.float64
        assert np.max(np.abs(q32 - q64)) <= 1e-3 * np.max(np.abs(q64))
        for p in (0.5, 0.9):
            want = np.quantile(np.concatenate(norms[net64]), p)
            assert np.quantile(np.concatenate(norms[net32]), p) == pytest.approx(want, rel=0.01)
        assert 0 < active[net32] == active[net64] < 100 * n


# ---- column-major weight storage ----

# The JSON of Mlp([8, 16, 16, 1], rng=default_rng(0)) in each dtype, and a
# net and optimizer checkpoint, as written while weights were stored row-major
# and checkpoints were JSON-ready lists (mazehrl-net-v1 and mazehrl-adam-v2).
ROW_MAJOR_JSON_SHA256 = {
    np.float32: "9b74d79696a229ce18a42d6c5ce7e8d50c6e5fb805d4550c1feee2bf025dd897",
    np.float64: "124dddbff6831ebdd1ef68b3b888de97584ccdac605615b296464a44849018c9",
}
ROW_MAJOR_NET = (
    '{"format": "mazehrl-net-v1", "layer_sizes": [2, 3, 1], "output_activation": "identity", '
    '"bound": 1.0, "dtype": "float32", "weights": [[[0.34528419375419617, 0.8213181495666504], '
    "[0.33073705434799194, -1.303457260131836], [0.9050558805465698, 0.44667455554008484]], "
    "[[0.0016662157140672207, -0.0008448052685707808, -2.4378823582082987e-06]]], "
    '"biases": [[-0.0002999984717462212, 0.000299997249385342, -0.0002999949792865664], '
    "[-0.0003000000142492354]]}"
)
ROW_MAJOR_ADAM = (
    '{"format": "mazehrl-adam-v2", "lr": 0.0003, "step_count": 1, "m": [[[0.00039324312820099294, 4.915539102512412e-05], '
    "[-0.0001362012990284711, 4.086039189132862e-05], "
    "[7.439053297275677e-05, -2.2317160983220674e-05]], "
    "[0.00019662156410049647, -0.00010896103776758537, 5.951242565060966e-05], "
    "[[0.08965729176998138, 0.1803460568189621, 0.19286087155342102]], [0.20000000298023224]], "
    '"v": [[[1.546401762198002e-08, 2.416252753434378e-10], '
    "[1.855079312385044e-09, 1.6695715643333386e-10], "
    "[5.53395163027659e-10, 4.9805565921490214e-11]], "
    "[3.866004405495005e-09, 1.1872509642074647e-09, 3.5417291321948596e-10], "
    "[[0.00080384302418679, 0.0032524699345231056, 0.0037195314653217793]], "
    "[0.004000000189989805]]}"
)


def numbered(state, **groups):
    """A list-format ``state`` with each list ``state[name]``, for ``name=stem`` in
    ``groups``, as one array per key: ``stem0``, ``stem1``, ..."""
    out = {k: v for k, v in state.items() if k not in groups}
    for name, stem in groups.items():
        out |= {f"{stem}{i}": np.array(a) for i, a in enumerate(state[name])}
    return out


def listed(state, **groups):
    """The inverse of ``numbered``: the keys ``stem0``, ``stem1``, ... as one list of
    nested lists under ``name``, where the first of them stood, and other arrays as lists."""
    stems = {stem: name for name, stem in groups.items()}
    out = {}
    for key, value in state.items():
        name = stems.get(key.rstrip("0123456789")) if key[-1].isdigit() else None
        if name is None:
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        else:
            out.setdefault(name, []).append(value.tolist())
    return out


def net_v1(state):
    """A net ``state`` listed as v1 wrote it: the layers as lists, and the tanh scale
    1.0, which v1 and v2 stored as 'bound' after the head, where v3 stores nothing."""
    out = {}
    for key, value in listed(state, weights="weight", biases="bias").items():
        out[key] = value
        if key == "output_activation":
            out["bound"] = 1.0
    return {**out, "format": "mazehrl-net-v1"}


def assert_column_major(arrays):
    for a in arrays:
        assert a.flags.f_contiguous


def row_major_copy(net):
    """``net`` with the same weights stored row-major."""
    dup = net.copy()
    dup.weights = tuple(np.ascontiguousarray(w) for w in net.weights)
    assert not any(w.flags.f_contiguous for w in dup.weights if min(w.shape) > 1)
    return dup


class TestColumnMajorWeights:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_weight_is_column_major(self, dtype):
        rng = np.random.default_rng(10)
        net = Mlp([5, 7, 6, 1], rng=rng, dtype=dtype)
        assert not any(w.flags.c_contiguous for w in net.weights[:-1])
        x, u = rng.normal(size=(4, 5)), rng.normal(size=(4, 1))
        target = net.copy()
        loaded = Mlp.from_state_dict(through_npz(net.state_dict()))
        Adam(net.params, lr=3e-4).step(net.params, net.grad_params_cached(net.forward_cache(x), u))
        polyak_update(target.params, net.params, 0.5)
        for made in (net, target, loaded, target.copy()):
            assert_column_major(made.weights)

    @pytest.mark.parametrize("sizes", [[3, 1], [3, 5, 1], [8, 16, 16, 1], [4, 7, 6, 5, 1]])
    def test_gradients_and_moments_share_the_weight_order(self, sizes):
        rng = np.random.default_rng(11)
        net = Mlp(sizes, rng=rng, dtype=np.float64)
        x = rng.normal(size=(6, sizes[0]))
        cache = net.forward_cache(x)
        td = net.grad_params_cached(cache, rng.normal(size=(6, 1)))
        g, zgrads = net.input_grad_scalar(cache)
        pen = net.double_backprop(cache, zgrads, rng.normal(size=x.shape))
        actor = Mlp([sizes[0], 9, 2], "scaled_tanh", rng=rng, dtype=np.float64)
        pi = actor.grad_params_cached(actor.forward_cache(x), rng.normal(size=(6, 2)))
        assert_column_major(td[::2] + pen[::2] + pi[::2])
        opt = Adam(net.params, lr=3e-4)
        opt.step(net.params, [a + b for a, b in zip(td, pen)])
        loaded = Adam.from_state_dict(through_npz(opt.state_dict()), net.params)
        for o in (opt, loaded):
            assert_column_major(o.m[::2] + o.v[::2])
        assert_bit_identical(loaded.m + loaded.v, opt.m + opt.v)

    @pytest.mark.parametrize("n", [1, 2, 31, 256])
    def test_agrees_with_row_major_storage(self, n):
        """Column-major and row-major weights give the same values to 1e-12.

        BLAS picks its kernel per layout, so sums round differently and only
        a tolerance holds: 1e-12 of each entry, or of the array's largest
        entry where an entry is a near-cancelling sum (such entries reach
        ~1e-12 relative at n = 2).
        """
        rng = np.random.default_rng(n)
        critic = Mlp([8, 256, 256, 1], rng=rng, dtype=np.float64)
        actor = Mlp([6, 256, 256, 2], "scaled_tanh", rng=rng, dtype=np.float64)
        for net in (critic, actor):
            for w, b in zip(net.weights, net.biases):
                w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
                b[...] = rng.normal(0.0, 0.1, size=b.shape)
        x, u, q = rng.normal(size=(n, 8)), rng.normal(size=(n, 1)), rng.normal(size=(n, 8))
        got, want = [], []
        for c, a, out in ((critic, actor, got), (row_major_copy(critic), row_major_copy(actor), want)):
            cache = c.forward_cache(x)
            g, zgrads = c.input_grad_scalar(cache)
            out += [c.forward(x), g, *zgrads, *c.grad_params_cached(cache, u)]
            out += c.double_backprop(cache, zgrads, q)
            out += [a.forward(x[:, :6]), *a.grad_params_cached(a.forward_cache(x[:, :6]), q[:, :2])]
            out.append(a.grad_input_vjp(x[:, :6], q[:, :2]))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_checkpoint_json_is_unchanged(self, dtype):
        """Listed as v1 did, the arrays of a v3 checkpoint give the pinned JSON."""
        net = Mlp([8, 16, 16, 1], rng=np.random.default_rng(0), dtype=dtype)
        v1 = net_v1(net.state_dict())
        assert hashlib.sha256(json.dumps(v1).encode()).hexdigest() == ROW_MAJOR_JSON_SHA256[dtype]

    def test_row_major_checkpoint_loads_column_major(self):
        """The arrays of a row-major-era checkpoint load column-major and are written back equal."""
        net_json, adam_v2 = json.loads(ROW_MAJOR_NET), json.loads(ROW_MAJOR_ADAM)
        v3 = {**numbered(net_json, weights="weight", biases="bias"), "format": "mazehrl-net-v3"}
        del v3["bound"]
        net = Mlp.from_state_dict(v3)
        adam_v3 = {**numbered(adam_v2, m="m", v="v"), "format": "mazehrl-adam-v3"}
        opt = Adam.from_state_dict(adam_v3, net.params)
        assert_column_major(net.weights + tuple(opt.m[::2]) + tuple(opt.v[::2]))
        np.testing.assert_array_equal(net.weights[0], np.array(net_json["weights"][0], dtype=np.float32))
        net_state, opt_state = net.state_dict(), opt.state_dict()
        assert_column_major([net_state["weight0"], opt_state["m0"], opt_state["v0"]])
        assert json.dumps(net_v1(net_state)) == ROW_MAJOR_NET
        assert json.dumps({**listed(opt_state, m="m", v="v"), "format": "mazehrl-adam-v2"}) == ROW_MAJOR_ADAM
