import hashlib

import numpy as np
import pytest

from xbartrain import nn
from xbartrain.datasets import LabeledSet, make_half_moons
from xbartrain.training import (
    EpsilonSample,
    SourceToggles,
    TrainingConfig,
    effective_net,
    hw_forward,
    masked_backward,
    sample_epsilon,
    train_hardware_aware,
    train_regular,
)
from xbartrain.transfer import WeightRangeSnapshot, layer_to_crossbar, layouts_for_architecture
from xbartrain.variability import make_synthetic_model

LAYOUTS = layouts_for_architecture([2, 8, 1])


def symmetric_net(scale=0.9):
    """2-8-1 net whose per-layer crossbar matrices have min = -max, so the
    zero-noise conversion round trip is exact."""
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.5, 0.5, size=(8, 2))
    w1[0, 0], w1[1, 0] = scale, -scale
    w2 = rng.uniform(-0.3, 0.3, size=(1, 8))
    w2[0, 0], w2[0, 1] = 0.7, -0.7
    return nn.DenseNet([nn.LayerParams(w1, np.zeros(8)), nn.LayerParams(w2, np.zeros(1))])


def zero_sample(net):
    return EpsilonSample(
        weight_eps=[np.zeros_like(l.weights) for l in net.layers],
        bias_eps=[np.zeros_like(l.bias) for l in net.layers],
        weight_mask=[np.zeros_like(l.weights, dtype=bool) for l in net.layers],
        bias_mask=[np.zeros_like(l.bias, dtype=bool) for l in net.layers],
        snapshots=[],
    )


class TestSampleEpsilon:
    def test_zero_noise_symmetric_epsilon_vanishes(self, zero_model):
        net = symmetric_net()
        sample = sample_epsilon(net, LAYOUTS, zero_model, 0.0, 0.0, np.random.default_rng(0))
        for ew, eb, mw, mb in zip(sample.weight_eps, sample.bias_eps,
                                  sample.weight_mask, sample.bias_mask):
            assert np.max(np.abs(ew)) <= 1e-12
            assert np.max(np.abs(eb)) <= 1e-12
            assert not mw.any() and not mb.any()

    def test_all_stuck_masks_everything(self, zero_model):
        net = symmetric_net()
        sample = sample_epsilon(net, LAYOUTS, zero_model, 1.0, 0.0, np.random.default_rng(1))
        assert all(m.all() for m in sample.weight_mask)
        assert all(m.all() for m in sample.bias_mask)

    def test_fixed_seed_reproducible(self, synthetic_model):
        net = symmetric_net()
        a = sample_epsilon(net, LAYOUTS, synthetic_model, 0.005, 0.005, np.random.default_rng(2))
        b = sample_epsilon(net, LAYOUTS, synthetic_model, 0.005, 0.005, np.random.default_rng(2))
        for ea, eb in zip(a.weight_eps, b.weight_eps):
            assert ea.tobytes() == eb.tobytes()

    def test_all_zero_layer_rejected(self, zero_model):
        net = symmetric_net()
        net.layers[1].weights[:] = 0.0
        with pytest.raises(ValueError, match="zero"):
            sample_epsilon(net, LAYOUTS, zero_model, 0.0, 0.0, np.random.default_rng(0))

    def test_snapshots_cover_bias_row(self, synthetic_model):
        net = symmetric_net()
        net.layers[0].bias[3] = 5.0  # bias dominates the layer range
        sample = sample_epsilon(net, LAYOUTS, synthetic_model, 0.0, 0.0, np.random.default_rng(3))
        assert sample.snapshots[0].phi_max == 5.0

    def test_golden_stream(self):
        # Pins the training draws: 50 successive samples at fixed seeds hash
        # to the value of the original per-matrix pipeline, and leave the
        # generator in the same state.  Elementwise arithmetic only, so the
        # digest does not depend on the BLAS build.
        net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(5))
        model = make_synthetic_model(0)
        rng = np.random.default_rng(11)
        digest = hashlib.sha256()
        for _ in range(50):
            sample = sample_epsilon(net, LAYOUTS, model, 0.05, 0.05, rng)
            for arr in (*sample.weight_eps, *sample.bias_eps, *sample.weight_mask, *sample.bias_mask):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == "c7ec622d885afd83f64db8aea65b035db2c20229bbdf462ead4b361dea7235b2"
        assert rng.random() == 0.5947888517166273


class TestHwForward:
    def test_zero_epsilon_equals_plain_forward(self):
        net = symmetric_net()
        X = np.random.default_rng(4).uniform(-1, 2, size=(16, 2))
        y_plain, _ = nn.forward(net, X)
        y_hw, _ = hw_forward(net, zero_sample(net), X)
        assert np.array_equal(y_plain, y_hw)

    def test_epsilon_cancelling_weights_gives_half(self):
        net = symmetric_net()
        sample = zero_sample(net)
        sample.weight_eps = [-l.weights for l in net.layers]
        sample.bias_eps = [-l.bias for l in net.layers]
        y_hw, _ = hw_forward(net, sample, np.array([[0.2, -0.4]]))
        assert np.all(y_hw == 0.5)

    def test_equivalent_to_shifted_net(self, synthetic_model):
        net = symmetric_net()
        sample = sample_epsilon(net, LAYOUTS, synthetic_model, 0.005, 0.005,
                                np.random.default_rng(5))
        X = np.random.default_rng(6).uniform(-1, 2, size=(8, 2))
        y_hw, _ = hw_forward(net, sample, X)
        shifted = nn.DenseNet([
            nn.LayerParams(l.weights + ew, l.bias + eb)
            for l, ew, eb in zip(net.layers, sample.weight_eps, sample.bias_eps)
        ])
        y_ref, _ = nn.forward(shifted, X)
        assert np.array_equal(y_hw, y_ref)


class TestMaskedBackward:
    def _setup(self, seed):
        net = symmetric_net()
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 2, size=(12, 2))
        y = rng.integers(0, 2, size=12)
        return net, X, y

    def test_no_mask_equals_backward(self):
        net, X, y = self._setup(7)
        sample = zero_sample(net)
        _, cache = nn.forward(net, X)
        plain = nn.backward(net, cache, y)
        masked = masked_backward(net, cache, y, sample)
        for (aw, ab), (bw, bb) in zip(plain, masked):
            assert np.array_equal(aw, bw) and np.array_equal(ab, bb)

    def test_full_mask_zeroes_everything(self):
        net, X, y = self._setup(8)
        sample = zero_sample(net)
        sample.weight_mask = [np.ones_like(m) for m in sample.weight_mask]
        sample.bias_mask = [np.ones_like(m) for m in sample.bias_mask]
        _, cache = nn.forward(net, X)
        grads = masked_backward(net, cache, y, sample)
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_single_masked_entry(self):
        net, X, y = self._setup(9)
        sample = zero_sample(net)
        sample.weight_mask[0][3, 1] = True
        _, cache = nn.forward(net, X)
        plain = nn.backward(net, cache, y)
        masked = masked_backward(net, cache, y, sample)
        diff = plain[0][0] != masked[0][0]
        assert diff.sum() == 1 and diff[3, 1]
        assert masked[0][0][3, 1] == 0.0
        assert np.array_equal(plain[1][0], masked[1][0])

    def test_frozen_epsilon_gradients_match_finite_differences(self, synthetic_model):
        # Loss as a function of the clean weights with epsilon held fixed.
        net, X, y = self._setup(10)
        sample = sample_epsilon(net, LAYOUTS, synthetic_model, 0.05, 0.05,
                                np.random.default_rng(11))
        eff = effective_net(net, sample)
        _, cache = nn.forward(eff, X)
        grads = masked_backward(eff, cache, y, sample)

        def loss_at(phi_net):
            out, _ = hw_forward(phi_net, sample, X)
            return nn.bce_loss(out, y)

        h = 1e-5
        for l, (gw, gb) in enumerate(grads):
            for arr, grad, mask in (
                (net.layers[l].weights, gw, sample.weight_mask[l]),
                (net.layers[l].bias, gb, sample.bias_mask[l]),
            ):
                for idx in np.ndindex(arr.shape):
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss_at(net)
                    arr[idx] = orig - h
                    down = loss_at(net)
                    arr[idx] = orig
                    fd = (up - down) / (2 * h)
                    if mask[idx]:
                        assert grad[idx] == 0.0
                    else:
                        assert abs(grad[idx] - fd) <= 1e-5 * max(abs(fd), 1e-6)


def tiny_moons(n=96, seed=21):
    return make_half_moons(n, noise_std=0.1, seed=seed)


class TestTrainingLoops:
    def test_zero_variability_bitwise_equivalence(self):
        cfg = TrainingConfig(epochs=25, seed=3, batch_size=32,
                             sources=SourceToggles(False, False, False))
        data = tiny_moons()
        hw = train_hardware_aware(cfg, data)
        reg = train_regular(cfg, data)
        for a, b in zip(hw.layers, reg.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_stuck_only_toggle_with_zero_fractions_degenerates(self):
        cfg = TrainingConfig(epochs=5, seed=4, batch_size=32, hrs_fraction=0.0,
                             lrs_fraction=0.0, sources=SourceToggles(False, False, True))
        data = tiny_moons()
        hw = train_hardware_aware(cfg, data)
        reg = train_regular(cfg, data)
        assert hw.layers[0].weights.tobytes() == reg.layers[0].weights.tobytes()

    def test_deterministic_under_seed(self, synthetic_model):
        cfg = TrainingConfig(epochs=8, seed=5, batch_size=32)
        data = tiny_moons()
        a = train_hardware_aware(cfg, data, model=synthetic_model)
        b = train_hardware_aware(cfg, data, model=synthetic_model)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()

    def test_consecutive_batches_see_fresh_epsilon(self, synthetic_model):
        cfg = TrainingConfig(epochs=2, seed=6, batch_size=16)
        data = tiny_moons()
        digests = []

        def hook(epoch, step, net, sample, loss):
            blob = b"".join(e.tobytes() for e in sample.weight_eps)
            digests.append(hashlib.sha256(blob).hexdigest())

        train_hardware_aware(cfg, data, model=synthetic_model, batch_hook=hook)
        assert len(digests) == 2 * 6
        assert len(set(digests)) == len(digests)

    def test_range_reevaluated_every_batch(self, synthetic_model):
        cfg = TrainingConfig(epochs=2, seed=7, batch_size=32)
        data = tiny_moons()
        seen = []

        def hook(epoch, step, net, sample, loss):
            # The snapshot in the sample must equal one freshly taken from
            # the weights entering this batch (i.e. after the previous
            # batch's update).
            for l, layer in enumerate(net.layers):
                snap = WeightRangeSnapshot.of_matrix(layer_to_crossbar(layer.weights, layer.bias))
                assert sample.snapshots[l] == snap
            seen.append(sample.snapshots[0])

        train_hardware_aware(cfg, data, model=synthetic_model, batch_hook=hook)
        assert len(seen) > 2
        assert len({s.phi_absmax for s in seen}) > 1  # the range actually moves

    def test_first_layer_affected_fraction(self, synthetic_model):
        x = y = 0.005
        cfg = TrainingConfig(epochs=4, seed=8, batch_size=16,
                             hrs_fraction=x, lrs_fraction=y)
        data = tiny_moons(n=512)
        hits, total = 0, 0

        def hook(epoch, step, net, sample, loss):
            nonlocal hits, total
            hits += sample.weight_mask[0].sum() + sample.bias_mask[0].sum()
            total += sample.weight_mask[0].size + sample.bias_mask[0].size

        train_hardware_aware(cfg, data, model=synthetic_model, batch_hook=hook)
        p = 1.0 - (1.0 - (x + y)) ** 2
        se = np.sqrt(p * (1 - p) / total)
        assert abs(hits / total - p) < 3 * se

    def test_divergence_aborts_with_diagnostic(self):
        pts = np.array([[0.1, 0.2], [np.nan, 0.3]])
        data = LabeledSet.__new__(LabeledSet)
        object.__setattr__(data, "points", pts)
        object.__setattr__(data, "labels", np.array([0, 1]))
        cfg = TrainingConfig(epochs=1, seed=9, batch_size=2)
        with pytest.raises(RuntimeError, match="non-finite"):
            train_regular(cfg, data)

    def test_empty_training_set_rejected(self):
        data = LabeledSet(np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            train_regular(TrainingConfig(epochs=1), data)

    def test_regular_loss_decreases_smoothed(self):
        cfg = TrainingConfig(epochs=100, seed=0, batch_size=256)
        data = make_half_moons(512, noise_std=0.1, seed=30)
        epoch_losses = {}

        def hook(epoch, step, net, sample, loss):
            epoch_losses.setdefault(epoch, []).append(loss)

        train_regular(cfg, data, batch_hook=hook)
        means = np.array([np.mean(epoch_losses[e]) for e in sorted(epoch_losses)])
        assert means[-10:].mean() < means[:10].mean()
        smooth = np.convolve(means, np.ones(10) / 10, mode="valid")
        assert smooth[-1] <= smooth[0]


class TestDeskScaleAccuracy:
    # Trained once per session (default config: 2-8-1, batch 256, lr 0.01,
    # synthetic variability model, half moons 875/200).

    def test_regular_reaches_95_percent_clean_test_accuracy(self, trained_regular, moons_split):
        _, test_set = moons_split
        assert nn.accuracy(trained_regular, test_set.points, test_set.labels) >= 0.95

    def test_hardware_aware_reaches_90_percent_clean_train_accuracy(self, trained_hann, moons_split):
        train_set, _ = moons_split
        assert nn.accuracy(trained_hann, train_set.points, train_set.labels) >= 0.90

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainingConfig(hrs_fraction=0.7, lrs_fraction=0.6)
        with pytest.raises(ValueError):
            TrainingConfig(hrs_fraction=-0.1)
