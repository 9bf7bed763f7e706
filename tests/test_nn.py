import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.special

from xbartrain import nn

from test_cli import SRC


def random_net(seed, sizes=(2, 8, 1)):
    return nn.DenseNet.init(sizes, np.random.default_rng(seed))


def zero_net(sizes=(2, 8, 1)):
    layers = [
        nn.LayerParams(np.zeros((o, i)), np.zeros(o)) for i, o in zip(sizes[:-1], sizes[1:])
    ]
    return nn.DenseNet(layers)


def relative_gradient_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (fw, fb) in zip(analytic, numeric):
        for a, f in ((aw, fw), (ab, fb)):
            worst = max(worst, np.max(np.abs(a - f) / np.maximum(np.abs(f), 1e-6)))
    return worst


class TestForward:
    def test_zero_net_outputs_half(self):
        net = zero_net()
        y_hat, cache = nn.forward(net, np.array([[0.3, -1.2], [5.0, 2.0]]))
        assert np.all(y_hat == 0.5)
        assert np.all(cache[1] == 0.5)  # hidden activations too

    def test_hand_computed_chain(self):
        # 1-1-1 net evaluated against the explicit sigmoid chain.
        net = nn.DenseNet([
            nn.LayerParams(np.array([[2.0]]), np.array([-1.0])),
            nn.LayerParams(np.array([[1.5]]), np.array([0.5])),
        ])
        y_hat, _ = nn.forward(net, np.array([[0.8]]))
        sig = lambda z: 1.0 / (1.0 + np.exp(-z))
        expected = sig(1.5 * sig(2.0 * 0.8 - 1.0) + 0.5)
        assert y_hat[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_outputs_in_open_unit_interval(self):
        net = random_net(0)
        X = np.random.default_rng(1).uniform(-5, 5, size=(200, 2))
        y_hat, _ = nn.forward(net, X)
        assert np.all((y_hat > 0.0) & (y_hat < 1.0))

    def test_rejects_non_batch_input(self):
        with pytest.raises(ValueError):
            nn.forward(random_net(0), np.array([1.0, 2.0]))


# In a fresh interpreter: nn._expit() on the points in argv[1], saved to
# argv[2], with the scipy modules loaded by then; then whether it is the
# ``expit`` of a later ``import scipy.special``.
EXPIT_SCRIPT = """
import json, sys
import numpy as np
from xbartrain import nn

expit = nn._expit()
np.save(sys.argv[2], expit(np.load(sys.argv[1])))
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import scipy.special
print(json.dumps({"loaded": loaded, "same": expit is scipy.special.expit}))
"""


class TestExpit:
    def test_is_scipy_special_expit_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, tiny, -tiny,
                 np.finfo(float).tiny / 2, -np.finfo(float).tiny / 2]
        points = np.concatenate([
            edges,
            rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(float),  # any double
            rng.normal(0.0, 40.0, size=50_000),  # where the sigmoid bends and saturates
        ])
        np.save(tmp_path / "x.npy", points)
        proc = subprocess.run(
            [sys.executable, "-c", EXPIT_SCRIPT, str(tmp_path / "x.npy"), str(tmp_path / "y.npy")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"loaded": ["scipy.special._special_ufuncs"],
                                           "same": True}
        reference = scipy.special.expit(points)
        assert np.array_equal(np.load(tmp_path / "y.npy").view(np.uint64),
                              reference.view(np.uint64))
        assert nn._expit() is scipy.special.expit

    def test_falls_back_to_scipy_special_without_the_module_file(self, tmp_path, monkeypatch):
        # A scipy whose directory holds no ``special/_special_ufuncs``, as
        # scipy releases that keep ``expit`` in ``_ufuncs``.
        name = "scipy.special._special_ufuncs"
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations.append(str(tmp_path))
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda module, *a: scipy_spec if module == "scipy"
                            else find_spec(module, *a))
        monkeypatch.delitem(sys.modules, name)
        nn._expit.cache_clear()
        try:
            assert nn._expit() is scipy.special.expit
            assert name not in sys.modules  # the module file was not loaded
        finally:
            nn._expit.cache_clear()


class TestBceLoss:
    def test_analytic_value(self):
        assert nn.bce_loss(np.array([[0.5]]), np.array([1.0])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_near_zero(self):
        y = np.array([0.0, 1.0])
        loss = nn.bce_loss(np.array([[0.0], [1.0]]), y)
        assert 0.0 <= loss < 1e-6  # bounded by the clamp floor

    def test_batch_mean_property(self):
        rng = np.random.default_rng(2)
        y_hat = rng.uniform(0.05, 0.95, size=(16, 1))
        y = rng.integers(0, 2, size=16).astype(float)
        per_sample = [nn.bce_loss(y_hat[i : i + 1], y[i : i + 1]) for i in range(16)]
        assert nn.bce_loss(y_hat, y) == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        y_hat = rng.uniform(size=(50, 1))
        y = rng.integers(0, 2, size=50)
        assert nn.bce_loss(y_hat, y) >= 0.0


def finite_difference_gradients(net, X, y, h=1e-5):
    """Central-difference gradients of the loss; the independent oracle for
    ``nn.backward``.  O(parameters) forward passes, test-scale only."""
    grads = [(np.zeros_like(layer.weights), np.zeros_like(layer.bias)) for layer in net.layers]
    for layer, pair in zip(net.layers, grads):
        for param, d in zip((layer.weights, layer.bias), pair):
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + h
                up = nn.bce_loss(nn.forward(net, X)[0], y)
                param[idx] = orig - h
                down = nn.bce_loss(nn.forward(net, X)[0], y)
                param[idx] = orig
                d[idx] = (up - down) / (2.0 * h)
    return grads


class TestBackward:
    def test_matches_finite_differences(self):
        for seed in range(3):
            net = random_net(seed)
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(-2, 2, size=(12, 2))
            y = rng.integers(0, 2, size=12)
            _, cache = nn.forward(net, X)
            analytic = nn.backward(net, cache, y)
            numeric = finite_difference_gradients(net, X, y)
            assert relative_gradient_error(analytic, numeric) <= 1e-5

    def test_zero_gradient_at_stationary_point(self):
        # Zero net on a balanced batch with identical inputs: the output
        # deltas cancel and the hidden path is cut by zero weights.
        net = zero_net()
        X = np.array([[0.4, -0.2], [0.4, -0.2]])
        y = np.array([0.0, 1.0])
        _, cache = nn.forward(net, X)
        grads = nn.backward(net, cache, y)
        for gw, gb in grads:
            assert np.allclose(gw, 0.0, atol=1e-15)
            assert np.allclose(gb, 0.0, atol=1e-15)

    def test_duplicated_batch_same_gradient(self):
        net = random_net(4)
        X = np.random.default_rng(5).uniform(-1, 1, size=(8, 2))
        y = np.random.default_rng(6).integers(0, 2, size=8)
        _, cache1 = nn.forward(net, X)
        g1 = nn.backward(net, cache1, y)
        _, cache2 = nn.forward(net, np.tile(X, (2, 1)))
        g2 = nn.backward(net, cache2, np.tile(y, 2))
        for (aw, ab), (bw, bb) in zip(g1, g2):
            assert np.allclose(aw, bw, atol=1e-14)
            assert np.allclose(ab, bb, atol=1e-14)


def reference_adam(params, grad_seq, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence, kept independent of nn.adam_step."""
    theta = params.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grad_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def per_array_adam(net, grad_seq, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """The in-place update of every weight and bias array in turn that
    nn.adam_step's flat-vector update must reproduce bit for bit."""
    m = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    v = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    for t, grads in enumerate(grad_seq, start=1):
        c1 = 1.0 - beta1**t
        c2 = 1.0 - beta2**t
        for layer, (gw, gb), mom, var in zip(net.layers, grads, m, v):
            for param, g, mm, vv in ((layer.weights, gw, mom[0], var[0]),
                                     (layer.bias, gb, mom[1], var[1])):
                mm *= beta1
                mm += (1.0 - beta1) * g
                vv *= beta2
                vv += (1.0 - beta2) * g * g
                param -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)
    return net


def random_grads(net, seed, steps):
    rng = np.random.default_rng(seed)
    return [[(rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape)) for l in net.layers]
            for _ in range(steps)]


class TestLayoutIndependence:
    @pytest.mark.parametrize("batch", [1, 2, 107])
    def test_bits_do_not_depend_on_the_weight_layout(self, batch):
        # AdamState.for_net rebinds the copy's arrays to views of one flat
        # vector in crossbar order, so its weights are transposed views.
        for seed in range(20):
            net = random_net(seed, sizes=(2, 5, 3, 1))
            flat_net = net.copy()
            nn.AdamState.for_net(flat_net)
            rng = np.random.default_rng(100 + seed)
            X = rng.uniform(-2, 2, size=(batch, 2))
            y = rng.integers(0, 2, size=batch)
            _, cache_a = nn.forward(net, X)
            _, cache_b = nn.forward(flat_net, X)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(cache_a, cache_b))
            for (aw, ab), (bw, bb) in zip(nn.backward(net, cache_a, y),
                                          nn.backward(flat_net, cache_b, y)):
                assert aw.tobytes() == bw.tobytes() and ab.tobytes() == bb.tobytes()


class TestFlatAdam:
    @pytest.mark.parametrize("hyperparameters", [{}, {"lr": 0.05}])
    def test_bitwise_equal_to_per_array_update(self, hyperparameters):
        net = random_net(20, sizes=(2, 5, 3, 1))
        grad_seq = random_grads(net, 21, 20)
        expected = per_array_adam(net.copy(), grad_seq, **hyperparameters)
        state = nn.AdamState.for_net(net, **hyperparameters)
        for grads in grad_seq:
            nn.adam_step(net, grads, state)
        for a, b in zip(net.layers, expected.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_state_from_its_defaults_takes_steps(self):
        net = random_net(24, sizes=(2, 5, 3, 1))
        grad_seq = random_grads(net, 25, 20)
        expected = per_array_adam(net.copy(), grad_seq, lr=0.05)
        state = nn.AdamState(lr=0.05)
        for grads in grad_seq:
            nn.adam_step(net, grads, state)
        for a, b in zip(net.layers, expected.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_replaced_arrays_are_adopted(self):
        net = random_net(22, sizes=(2, 5, 3, 1))
        grad_seq = random_grads(net, 23, 6)
        expected = per_array_adam(net.copy(), grad_seq)
        state = nn.AdamState.for_net(net)
        for step, grads in enumerate(grad_seq):
            if step == 3:
                net.layers[1].weights = net.layers[1].weights.copy()
            nn.adam_step(net, grads, state)
        for a, b in zip(net.layers, expected.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()


class TestAdam:
    def _wrap(self, value):
        net = nn.DenseNet([nn.LayerParams(np.array([[value]]), np.array([0.0]))])
        return net

    def test_first_step_is_signed_lr(self):
        for g in (0.37, -0.002, 12.0):
            net = self._wrap(1.0)
            state = nn.AdamState.for_net(net)
            nn.adam_step(net, [(np.array([[g]]), np.array([0.0]))], state)
            # |g| >> eps: the first bias-corrected step is -lr * sign(g).
            assert net.layers[0].weights[0, 0] == pytest.approx(1.0 - 0.01 * np.sign(g), rel=1e-6)

    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(7)
        grads = [rng.normal(size=(3, 2)) for _ in range(5)]
        net = nn.DenseNet([nn.LayerParams(np.ones((3, 2)), np.zeros(3))])
        state = nn.AdamState.for_net(net)
        for g in grads:
            nn.adam_step(net, [(g, np.zeros(3))], state)
        expected = reference_adam(np.ones((3, 2)), grads)
        assert np.allclose(net.layers[0].weights, expected, atol=1e-12)

    def test_zero_gradient_no_update(self):
        net = random_net(8)
        before = [l.weights.copy() for l in net.layers]
        state = nn.AdamState.for_net(net)
        zeros = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
        for _ in range(3):
            nn.adam_step(net, zeros, state)
        for b, l in zip(before, net.layers):
            assert np.array_equal(b, l.weights)

    def test_deterministic_across_runs(self):
        def run():
            net = random_net(9)
            state = nn.AdamState.for_net(net)
            rng = np.random.default_rng(10)
            for _ in range(20):
                grads = [(rng.normal(size=l.weights.shape), rng.normal(size=l.bias.shape))
                         for l in net.layers]
                nn.adam_step(net, grads, state)
            return net

        a, b = run(), run()
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(11)
        X = np.concatenate([rng.normal(-2, 0.3, size=(32, 2)), rng.normal(2, 0.3, size=(32, 2))])
        y = np.concatenate([np.zeros(32), np.ones(32)])
        net = random_net(12)
        state = nn.AdamState.for_net(net)
        losses = []
        for _ in range(50):
            y_hat, cache = nn.forward(net, X)
            losses.append(nn.bce_loss(y_hat, y))
            nn.adam_step(net, nn.backward(net, cache, y), state)
        assert losses[-1] < losses[0]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = random_net(13, sizes=(2, 5, 3, 1))
        path = tmp_path / "net.json"
        nn.save_checkpoint(net, path)
        loaded = nn.load_checkpoint(path)
        assert loaded.sizes == net.sizes
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.__setitem__("layer_sizes", [2, 5, 1]), "layer_sizes"),
        (lambda doc: doc.__setitem__("layers", []), "at least one layer"),
        (lambda doc: doc["layers"][0]["weights"].__setitem__(0, True), "weights: expected a number"),
        (lambda doc: doc["layers"][0]["bias"].__setitem__(0, "1.5"), "bias: expected a number"),
        (lambda doc: doc["layers"][0].__setitem__("shape", [-1, 2]), "shape"),
        (lambda doc: doc["layers"][1].pop("bias"), "missing key 'bias'"),
        (lambda doc: doc.__setitem__("epochs", 3), "unknown keys"),
    ])
    def test_fields_are_read_strictly(self, tmp_path, edit, message):
        path = tmp_path / "net.json"
        nn.save_checkpoint(random_net(13, sizes=(2, 5, 3, 1)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: .*{message}"):
            nn.load_checkpoint(path)

    def test_malformed_checkpoint(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{broken")
        with pytest.raises(ValueError, match="JSON"):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("build, message", [
        (lambda: nn.LayerParams(np.ones(3), np.ones(3)), "weights must be 2-D and bias 1-D"),
        (lambda: nn.DenseNet.init([2], np.random.default_rng(0)),
         "architecture needs at least two sizes, got [2]"),
        (lambda: nn.unflatten([2, 8, 1], np.zeros(32)),
         "32 parameters do not match layer sizes [2, 8, 1]"),
    ], ids=["one-dimensional-weights", "one-size", "unflatten-size"])
    def test_malformed_parts_name_the_fault(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_validation(self):
        with pytest.raises(ValueError):
            nn.LayerParams(np.ones((2, 2)), np.ones(3))
        with pytest.raises(ValueError):
            nn.LayerParams(np.array([[np.inf]]), np.zeros(1))
        with pytest.raises(ValueError):
            nn.DenseNet([
                nn.LayerParams(np.ones((3, 2)), np.zeros(3)),
                nn.LayerParams(np.ones((1, 4)), np.zeros(1)),
            ])
