"""Unit and oracle tests for the differentiable-function kernel."""

import json

import numpy as np
import pytest

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
    net = Mlp(sizes, output_activation=out_act, bound=2.0, rng=rng)
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
            net = Mlp(sizes, rng=rng)
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
