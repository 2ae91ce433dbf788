"""Unit and oracle tests for the differentiable-function kernel."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mazehrl.nets import Adam, Mlp, param_epoch, polyak_update


def fd_param_grads(net, x, upstream, h=1e-5):
    """Central finite differences of upstream . forward(x) w.r.t. every parameter."""
    grads = []
    for p in net.params:
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = float(np.dot(upstream, net.forward(x)))
            flat[i] = orig - h
            minus = float(np.dot(upstream, net.forward(x)))
            flat[i] = orig
            gflat[i] = (plus - minus) / (2 * h)
        grads.append(g)
    return grads


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


def rel_err(a, b):
    a = np.concatenate([np.ravel(v) for v in a]) if isinstance(a, list) else np.ravel(a)
    b = np.concatenate([np.ravel(v) for v in b]) if isinstance(b, list) else np.ravel(b)
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-10)


def random_small_net(rng, out_act="identity"):
    n_hidden = int(rng.integers(1, 3))
    sizes = [int(rng.integers(2, 6))] + [int(rng.integers(2, 8)) for _ in range(n_hidden)]
    sizes.append(int(rng.integers(1, 4)))
    net = Mlp(sizes, output_activation=out_act, bound=2.0, rng=rng, dtype=np.float64)
    # randomize everything (incl. biases) so no preactivation sits on a ReLU kink
    for i in range(len(net.weights)):
        net.weights[i] = rng.normal(0.0, 0.6, size=net.weights[i].shape)
        net.biases[i] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
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
        net.weights[0] = np.eye(2)
        net.biases[0][:] = 0.0
        np.testing.assert_allclose(net.forward(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_two_layer_relu_hand_computed(self):
        # z0 = (-1, 1.25) -> relu (0, 1.25); y = 2*0 - 1*1.25 + 0.5 = -0.75
        net = Mlp([2, 2, 1], rng=np.random.default_rng(1))
        net.weights[0] = np.array([[1.0, -1.0], [0.5, 0.5]])
        net.biases[0] = np.array([0.0, -0.25])
        net.weights[1] = np.array([[2.0, -1.0]])
        net.biases[1] = np.array([0.5])
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

    def test_scaled_tanh_within_bound(self):
        rng = np.random.default_rng(11)
        net = Mlp([2, 8, 2], output_activation="scaled_tanh", bound=1.5, rng=rng)
        net.weights[-1] = rng.normal(0.0, 5.0, size=net.weights[-1].shape)
        xs = rng.normal(scale=10.0, size=(200, 2))
        out = net.forward(xs)
        assert np.all(np.abs(out) <= 1.5 + 1e-12)


class TestGradParams:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(2)
        net = random_small_net(rng)
        grads = net.grad_params(rng.normal(size=net.in_dim), np.zeros(net.out_dim))
        for g in grads:
            assert not np.any(g)

    def test_linear_layer_outer_product(self):
        net = Mlp([3, 2], rng=np.random.default_rng(0))
        x = np.array([1.0, -2.0, 3.0])
        u = np.array([0.5, 2.0])
        grads = net.grad_params(x, u)
        np.testing.assert_allclose(grads[0], np.outer(u, x))
        np.testing.assert_allclose(grads[1], u)

    @pytest.mark.parametrize("out_act", ["identity", "scaled_tanh"])
    def test_matches_finite_differences(self, out_act):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_small_net(rng, out_act)
            x = rng.normal(size=net.in_dim)
            u = rng.normal(size=net.out_dim)
            assert rel_err(net.grad_params(x, u), fd_param_grads(net, x, u)) < 1e-4

    def test_batch_sums_per_sample(self):
        rng = np.random.default_rng(5)
        net = random_small_net(rng)
        xs = rng.normal(size=(4, net.in_dim))
        us = rng.normal(size=(4, net.out_dim))
        batch = net.grad_params(xs, us)
        acc = [np.zeros_like(p) for p in net.params]
        for i in range(4):
            for a, g in zip(acc, net.grad_params(xs[i], us[i])):
                a += g
        for a, b in zip(acc, batch):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestGradInput:
    def test_linear_jacobian_is_weight_matrix(self):
        net = Mlp([3, 2], rng=np.random.default_rng(0))
        net.weights[0] = np.array([[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]])
        jac = net.grad_input(np.array([0.3, -0.7, 2.0]))
        np.testing.assert_allclose(jac, net.weights[0])

    def test_dead_relu_zero_jacobian(self):
        net = Mlp([2, 3, 2], rng=np.random.default_rng(0))
        net.weights[0] = np.abs(net.weights[0])
        net.biases[0][:] = -1.0
        # all layer-1 preactivations negative at a strictly negative input
        jac = net.grad_input(np.array([-2.0, -3.0]))
        assert not np.any(jac)

    @pytest.mark.parametrize("out_act", ["identity", "scaled_tanh"])
    def test_matches_finite_differences(self, out_act):
        rng = np.random.default_rng(43)
        for _ in range(20):
            net = random_small_net(rng, out_act)
            x = rng.normal(size=net.in_dim)
            assert rel_err(net.grad_input(x), fd_jacobian(net, x)) < 1e-4

    def test_vjp_matches_jacobian_transpose(self):
        rng = np.random.default_rng(6)
        net = random_small_net(rng)
        x = rng.normal(size=net.in_dim)
        u = rng.normal(size=net.out_dim)
        np.testing.assert_allclose(net.grad_input_vjp(x, u), net.grad_input(x).T @ u, atol=1e-12)

    def test_scaled_tanh_jacobian_finite_on_grid(self):
        rng = np.random.default_rng(9)
        net = Mlp([2, 16, 16, 2], output_activation="scaled_tanh", bound=3.0, rng=rng)
        grid = np.stack(np.meshgrid(np.linspace(-8, 8, 17), np.linspace(-8, 8, 17)), axis=-1).reshape(-1, 2)
        jac = net.grad_input(grid)
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
                net.weights[i] = rng.normal(0.0, 0.8, size=net.weights[i].shape)
                net.biases[i] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
            xs = rng.normal(size=(4, 3))
            bound = 0.1  # low enough that the hinge is active
            _, grads = self.penalty_and_grads(net, xs, bound)
            h = 1e-6
            fd = []
            for p in net.params:
                gp = np.zeros_like(p)
                flat, gflat = p.reshape(-1), gp.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    plus, _ = self.penalty_and_grads(net, xs, bound)
                    flat[i] = orig - h
                    minus, _ = self.penalty_and_grads(net, xs, bound)
                    flat[i] = orig
                    gflat[i] = (plus - minus) / (2 * h)
                fd.append(gp)
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
        opt = Adam([x], lr=lr, beta1=b1, beta2=b2, eps=eps)
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

    def test_nonfinite_gradient_rejected(self):
        p = [np.zeros(2)]
        opt = Adam(p)
        with pytest.raises(FloatingPointError):
            opt.step(p, [np.array([1.0, np.nan])])

    def test_param_epoch_advances_only_on_a_written_step(self):
        p = [np.zeros(2)]
        opt = Adam(p)
        before = param_epoch()
        opt.step(p, [np.array([1.0, -1.0])])
        assert param_epoch() == before + 1
        with pytest.raises(FloatingPointError):
            opt.step(p, [np.array([np.inf, 0.0])])
        assert param_epoch() == before + 1  # the rejected step wrote nothing

    def test_optimizer_state_roundtrip(self):
        p = [np.array([1.0, 2.0])]
        opt = Adam(p, lr=0.05)
        opt.step(p, [np.array([0.3, -0.4])])
        restored = Adam.from_state_dict(json.loads(json.dumps(opt.state_dict())), p)
        assert restored.step_count == opt.step_count
        for a, b in zip(restored.m, opt.m):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_moments_take_param_dtype(self, dtype):
        p = [np.array([1.0, 2.0], dtype=dtype), np.zeros((2, 3), dtype=dtype)]
        opt = Adam(p, lr=0.05)
        opt.step(p, [np.array([0.3, -0.4], dtype=dtype), np.full((2, 3), 0.1, dtype=dtype)])
        restored = Adam.from_state_dict(json.loads(json.dumps(opt.state_dict())), p)
        for a, b, param in zip(restored.m + restored.v, opt.m + opt.v, p + p):
            assert a.dtype == param.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("m", [[[0.0, 0.0]], []])
    def test_mismatched_moments_rejected_at_load(self, m):
        p = [np.zeros(3)]
        state = {**Adam(p).state_dict(), "m": m}
        with pytest.raises(ValueError, match="optimizer checkpoint"):
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

    def test_param_epoch_advances(self):
        before = param_epoch()
        polyak_update([np.zeros(2)], [np.ones(2)], 0.5)
        assert param_epoch() == before + 1
        with pytest.raises(ValueError):
            polyak_update([np.zeros(1)], [np.zeros(1)], -0.1)
        assert param_epoch() == before + 1


class TestCheckpoint:
    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(21)
        net = random_small_net(rng, "scaled_tanh")
        clone = Mlp.from_json(net.to_json())
        assert clone.layer_sizes == net.layer_sizes
        assert clone.output_activation == net.output_activation
        assert clone.bound == net.bound
        for a, b in zip(clone.params, net.params):
            assert a.tobytes() == b.tobytes()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            Mlp.from_state_dict({"format": "something-else"})

    def test_same_seed_same_net(self):
        a = Mlp([3, 8, 2], rng=np.random.default_rng(123))
        b = Mlp([3, 8, 2], rng=np.random.default_rng(123))
        for pa, pb in zip(a.params, b.params):
            assert pa.tobytes() == pb.tobytes()

    def test_wrong_fan_in_rejected(self):
        state = Mlp([4, 8, 1], rng=np.random.default_rng(0)).state_dict()
        state["weights"][0] = np.zeros((8, 5)).tolist()
        with pytest.raises(ValueError, match="checkpoint layer shapes inconsistent"):
            Mlp.from_state_dict(state)

    def test_missing_layer_rejected(self):
        state = Mlp([4, 8, 1], rng=np.random.default_rng(0)).state_dict()
        del state["weights"][-1], state["biases"][-1]
        with pytest.raises(ValueError, match="checkpoint layer shapes inconsistent"):
            Mlp.from_state_dict(state)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roundtrip_keeps_dtype_bit_exact(self, dtype):
        net = Mlp([3, 8, 2], "scaled_tanh", bound=1.5, rng=np.random.default_rng(4), dtype=dtype)
        state = json.loads(net.to_json())
        assert state["dtype"] == np.dtype(dtype).name
        clone = Mlp.from_state_dict(state)
        assert clone.dtype == dtype
        for a, b in zip(clone.params, net.params):
            assert a.dtype == dtype and a.tobytes() == b.tobytes()
        x = np.random.default_rng(5).normal(size=(4, 3))
        assert clone.forward(x).tobytes() == net.forward(x).tobytes()

    def test_checkpoint_without_dtype_loads_as_float64(self):
        net = Mlp([3, 4, 1], rng=np.random.default_rng(0), dtype=np.float64)
        state = net.state_dict()
        del state["dtype"]
        clone = Mlp.from_state_dict(state)
        assert clone.dtype == np.float64
        for a, b in zip(clone.params, net.params):
            assert a.tobytes() == b.tobytes()

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
        epoch = param_epoch()
        with pytest.raises(error):
            opt.step(p, grads)
        assert self.snapshot(*p, *opt.m, *opt.v) == before
        assert opt.step_count == 0
        assert param_epoch() == epoch

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
        epoch = param_epoch()
        with pytest.raises(error):
            polyak_update(t, online, 0.5)
        assert self.snapshot(*t) == before
        assert param_epoch() == epoch


# ---- loop references: a full reverse sweep per call, and double backprop layer by layer ----


def reference_forward_cache(net, x):
    acts, zs = [x], []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[-1] @ w.T + b
        zs.append(z)
        acts.append(np.maximum(z, 0.0) if i < len(net.weights) - 1 else net._head(z))
    return {"acts": acts, "zs": zs, "squeeze": False}


def reference_backward(net, cache, u):
    """One reverse sweep per call: (input grad, param grads, pre-activation grads)."""
    acts, zs = cache["acts"], cache["zs"]
    grads = [None] * (2 * len(net.weights))
    zgrads = [None] * len(net.weights)
    delta = u * net._head_deriv(zs[-1])
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
    inputs are replaced by +0.0 or -0.0.
    """
    sizes = draw(LAYER_SIZES)
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = Mlp(sizes, rng=rng, dtype=np.float64)
    for i in range(len(net.weights)):
        net.weights[i] = rng.normal(0.0, 0.8, size=net.weights[i].shape)
        net.biases[i] = rng.normal(0.0, 0.3, size=net.biases[i].shape)
        if i == len(net.weights) - 1:
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
    abs_net.weights = [np.abs(w) for w in net.weights]
    return abs_net, {"acts": [np.abs(a) for a in cache["acts"]], "zs": cache["zs"]}


class TestSharedUnitSweep:
    @settings(max_examples=300, deadline=None)
    @given(scalar_critic_batches())
    def test_matches_loop_reference(self, case):
        net, x, u, q = case
        cache = net.forward_cache(x)
        ref = reference_forward_cache(net, x)
        assert net.forward(x).tobytes() == ref["acts"][-1].tobytes()
        assert_bit_identical(cache["acts"] + cache["zs"], ref["acts"] + ref["zs"])

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
        assert_bit_identical(net.grad_params(x, u), td)

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
        net = Mlp(sizes, output_activation=head, bound=1.5, rng=rng, dtype=np.float64)
        for w in net.weights:
            w[...] = rng.normal(0.0, 0.8, size=w.shape)
        x, u = rng.normal(size=(7, sizes[0])), rng.normal(size=(7, sizes[-1]))
        ref = reference_forward_cache(net, x)
        assert_bit_identical(net.grad_params(x, u), reference_backward(net, ref, u)[1])
        if sizes[-1] == 1:
            g, zgrads = net.input_grad_scalar(net.forward_cache(x))
            ref_g, _, ref_zgrads = reference_backward(net, ref, np.ones_like(u))
            assert_bit_identical([g, *zgrads], [ref_g, *ref_zgrads])


# ---- the net-level dtype ----


class TestDtype:
    @pytest.mark.parametrize("dtype", [np.float16, np.int64, "float32", None, float])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="dtype"):
            Mlp([3, 4, 1], dtype=dtype)

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
            critic.forward(x), *cache["acts"], *cache["zs"], g, *zgrads,
            *critic.grad_params_cached(cache, rng.normal(size=(6, 1))),
            *critic.double_backprop(cache, zgrads, rng.normal(size=(6, 5))),
            *actor.grad_params(x[:, :4], rng.normal(size=(6, 2))),
            actor.grad_input(x[:, :4]), actor.grad_input_vjp(x[:, :4], rng.normal(size=(6, 2))),
        ]
        target = critic.copy()
        opt = Adam(critic.params)
        opt.step(critic.params, critic.grad_params(x, np.ones((6, 1))))
        polyak_update(target.params, critic.params, 0.5)
        arrays += critic.params + target.params + opt.m + opt.v
        assert all(a.dtype == dtype for a in arrays)


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
