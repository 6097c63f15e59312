"""Neural-network tests, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.rl.nn import MLP, Adam


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x (flat array walk)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


class TestConstruction:
    def test_shapes(self):
        net = MLP([4, 8, 3], rng=0)
        assert net.in_dim == 4
        assert net.out_dim == 3
        assert net.layers[0].weights.shape == (4, 8)
        assert net.layers[1].weights.shape == (8, 3)

    def test_default_activations(self):
        net = MLP([4, 8, 8, 2], rng=0)
        assert [l.activation for l in net.layers] == ["relu", "relu", "linear"]

    def test_final_layer_small_init(self):
        net = MLP([4, 64, 2], rng=0, final_init_scale=3e-3)
        assert np.abs(net.layers[-1].weights).max() <= 3e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            MLP([4])
        with pytest.raises(ValueError):
            MLP([4, 0, 2])
        with pytest.raises(ValueError):
            MLP([4, 8, 2], ["relu"])
        with pytest.raises(ValueError):
            MLP([4, 8, 2], ["relu", "softplus"])


class TestForward:
    def test_batch_and_single_agree(self):
        net = MLP([3, 6, 2], rng=1)
        x = np.random.default_rng(0).normal(size=(5, 3))
        batch = net.forward(x)
        singles = np.stack([net.forward(xi)[0] for xi in x])
        assert np.allclose(batch, singles)

    def test_tanh_output_bounded(self):
        net = MLP([3, 6, 2], ["relu", "tanh"], rng=1)
        x = np.random.default_rng(0).normal(size=(50, 3)) * 100
        out = net.forward(x)
        assert np.all(np.abs(out) <= 1.0)

    def test_wrong_input_dim(self):
        net = MLP([3, 4, 2], rng=0)
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 5)))


class TestGradients:
    @pytest.mark.parametrize("acts", [None, ["tanh", "tanh"], ["relu", "tanh"]])
    def test_param_grads_match_finite_difference(self, acts):
        rng = np.random.default_rng(42)
        net = MLP([4, 7, 2], acts, rng=3, final_init_scale=0.5)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 2))

        def loss():
            out = net.forward(x, cache=False)
            return 0.5 * float(np.sum((out - target) ** 2))

        out = net.forward(x, cache=True)
        param_grads, _ = net.backward(out - target)
        for layer, (dw, db) in zip(net.layers, param_grads):
            gw = numeric_grad(loss, layer.weights)
            gb = numeric_grad(loss, layer.bias)
            assert np.allclose(dw, gw, atol=1e-5), "weight grads mismatch"
            assert np.allclose(db, gb, atol=1e-5), "bias grads mismatch"

    def test_input_grads_match_finite_difference(self):
        rng = np.random.default_rng(0)
        net = MLP([3, 5, 1], ["tanh", "linear"], rng=2, final_init_scale=0.5)
        x = rng.normal(size=(4, 3))

        def f():
            return float(np.sum(net.forward(x, cache=False)))

        # dL/dx of L = sum(outputs): backward from a gradient of ones.
        _, gin = net.backward(np.ones_like(net.forward(x, cache=True)))
        gnum = numeric_grad(f, x)
        assert np.allclose(gin, gnum, atol=1e-6)

    def test_backward_requires_cache(self):
        net = MLP([3, 4, 1], rng=0)
        net.forward(np.zeros((1, 3)), cache=False)
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 1)))

    def test_backward_shape_check(self):
        net = MLP([3, 4, 1], rng=0)
        net.forward(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            net.backward(np.zeros((1, 2)))


class TestParams:
    def test_roundtrip(self):
        a = MLP([3, 5, 2], rng=0)
        b = MLP([3, 5, 2], rng=1)
        b.set_params(a.copy_params())
        x = np.random.default_rng(0).normal(size=(4, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_set_params_shape_check(self):
        a = MLP([3, 5, 2], rng=0)
        bad = a.copy_params()
        bad[0] = np.zeros((3, 4))
        with pytest.raises(ValueError):
            a.set_params(bad)
        with pytest.raises(ValueError):
            a.set_params(bad[:1])

    def test_clone_is_deep(self):
        a = MLP([3, 5, 2], rng=0)
        b = a.clone()
        b.layers[0].weights += 1.0
        assert not np.allclose(a.layers[0].weights, b.layers[0].weights)

    def test_soft_update(self):
        a = MLP([2, 3, 1], rng=0)
        b = MLP([2, 3, 1], rng=1)
        w_a = a.layers[0].weights.copy()
        w_b = b.layers[0].weights.copy()
        b.soft_update_from(a, tau=0.1)
        assert np.allclose(b.layers[0].weights, 0.1 * w_a + 0.9 * w_b)

    def test_soft_update_tau_one_copies(self):
        a = MLP([2, 3, 1], rng=0)
        b = MLP([2, 3, 1], rng=1)
        b.soft_update_from(a, tau=1.0)
        assert np.allclose(b.layers[0].weights, a.layers[0].weights)

    def test_soft_update_bad_tau(self):
        a = MLP([2, 3, 1], rng=0)
        with pytest.raises(ValueError):
            a.soft_update_from(a, tau=1.5)


class TestAdam:
    def test_minimizes_quadratic(self):
        # Fit y = Wx with a linear net; Adam should drive the loss down.
        rng = np.random.default_rng(0)
        net = MLP([2, 1], ["linear"], rng=0, final_init_scale=0.1)
        opt = Adam(net, lr=0.05)
        w_true = np.array([[1.5], [-2.0]])
        x = rng.normal(size=(64, 2))
        y = x @ w_true

        def loss_val():
            return float(np.mean((net.forward(x, cache=False) - y) ** 2))

        first = loss_val()
        for _ in range(300):
            out = net.forward(x, cache=True)
            grads, _ = net.backward(2 * (out - y) / len(x))
            opt.step(grads)
        assert loss_val() < first * 1e-3

    def test_grad_clip(self):
        net = MLP([2, 1], ["linear"], rng=0)
        opt = Adam(net, lr=1.0, grad_clip=1e-9)
        w0 = net.layers[0].weights.copy()
        out = net.forward(np.ones((1, 2)), cache=True)
        grads, _ = net.backward(np.full((1, 1), 1e6))
        opt.step(grads)
        # Update magnitude bounded despite the huge gradient.
        assert np.abs(net.layers[0].weights - w0).max() < 2.0

    def test_validation(self):
        net = MLP([2, 1], rng=0)
        with pytest.raises(ValueError):
            Adam(net, lr=0.0)
        opt = Adam(net)
        with pytest.raises(ValueError):
            opt.step([])
