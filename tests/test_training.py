import hashlib
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from xbartrain import nn, training
from xbartrain.datasets import LabeledSet, make_half_moons
from xbartrain.training import (
    EffectiveParams,
    ProducerReport,
    SourceToggles,
    TrainingConfig,
    TrainingDiverged,
    sample_epsilon,
    train_hardware_aware,
    train_regular,
)
from xbartrain.transfer import (
    TransferPlan,
    WeightRangeSnapshot,
    layer_to_crossbar,
    layouts_for_architecture,
)
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


def effective(net):
    """Zero-noise, unmasked effective parameters over the parameters of
    ``net``, whose arrays become views of the clean flat vector."""
    params = EffectiveParams(net.sizes, nn.AdamState.for_net(net).params)
    params.update()
    return params


def per_layer(params):
    """The transfer held by the flat buffers of ``params`` (an
    ``EffectiveParams``), per layer: the weight and bias noise and masks as
    views, and the weight-range snapshots."""
    sizes = params.net.sizes
    eps, mask = nn.unflatten(sizes, params.eps), nn.unflatten(sizes, params.mask)
    return SimpleNamespace(weight_eps=[w for w, _ in eps], bias_eps=[b for _, b in eps],
                           weight_mask=[w for w, _ in mask], bias_mask=[b for _, b in mask],
                           snapshots=[WeightRangeSnapshot(*map(float, r)) for r in params.ranges.T])


def transferred(net, model, x, seed):
    """Effective parameters of ``net`` after one transfer drawn at ``seed``."""
    params = effective(net)
    plan = TransferPlan(LAYOUTS, model, x, x)
    params.transfer(plan, plan.draw(1, np.random.default_rng(seed)))
    return params


class TestSampleEpsilon:
    def test_zero_noise_symmetric_epsilon_vanishes(self, zero_model):
        net = symmetric_net()
        rng = np.random.default_rng(0)
        sample = per_layer(sample_epsilon(net, LAYOUTS, zero_model, 0.0, 0.0, rng))
        for ew, eb, mw, mb in zip(sample.weight_eps, sample.bias_eps,
                                  sample.weight_mask, sample.bias_mask):
            assert np.max(np.abs(ew)) <= 1e-12
            assert np.max(np.abs(eb)) <= 1e-12
            assert not mw.any() and not mb.any()

    def test_all_stuck_masks_everything(self, zero_model):
        net = symmetric_net()
        rng = np.random.default_rng(1)
        sample = per_layer(sample_epsilon(net, LAYOUTS, zero_model, 1.0, 0.0, rng))
        assert all(m.all() for m in sample.weight_mask)
        assert all(m.all() for m in sample.bias_mask)

    def test_fixed_seed_reproducible(self, synthetic_model):
        net = symmetric_net()
        a, b = (per_layer(sample_epsilon(net, LAYOUTS, synthetic_model, 0.005, 0.005,
                                         np.random.default_rng(2))) for _ in range(2))
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
        rng = np.random.default_rng(3)
        sample = per_layer(sample_epsilon(net, LAYOUTS, synthetic_model, 0.0, 0.0, rng))
        assert sample.snapshots[0].phi_max == 5.0

    def test_net_is_the_transferred_net(self, synthetic_model):
        net = nn.DenseNet.init([2, 8, 1], np.random.default_rng(1))
        sample = sample_epsilon(net, LAYOUTS, synthetic_model, 0.05, 0.05, np.random.default_rng(1))
        assert np.abs(sample.eps).max() > 0
        seen = nn.flatten((l.weights, l.bias) for l in sample.net.layers)
        assert seen.tobytes() == (sample.params + sample.eps).tobytes()

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
            sample = per_layer(sample_epsilon(net, LAYOUTS, model, 0.05, 0.05, rng))
            for arr in (*sample.weight_eps, *sample.bias_eps, *sample.weight_mask, *sample.bias_mask):
                digest.update(arr.tobytes())
        assert digest.hexdigest() == "c7ec622d885afd83f64db8aea65b035db2c20229bbdf462ead4b361dea7235b2"
        assert rng.random() == 0.5947888517166273


class TestHwForward:
    def test_zero_epsilon_equals_plain_forward(self):
        net = symmetric_net()
        X = np.random.default_rng(4).uniform(-1, 2, size=(16, 2))
        y_plain, _ = nn.forward(net, X)
        y_hw, _ = nn.forward(effective(net).net, X)
        assert np.array_equal(y_plain, y_hw)

    def test_epsilon_cancelling_weights_gives_half(self):
        net = symmetric_net()
        params = effective(net)
        params.eps[:] = -params.params
        params.update()
        y_hw, _ = nn.forward(params.net, np.array([[0.2, -0.4]]))
        assert np.all(y_hw == 0.5)

    def test_equivalent_to_shifted_net(self, synthetic_model):
        net = symmetric_net()
        params = transferred(net, synthetic_model, 0.005, 5)
        sample = per_layer(params)
        X = np.random.default_rng(6).uniform(-1, 2, size=(8, 2))
        y_hw, _ = nn.forward(params.net, X)
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

    @staticmethod
    def layer_gradients(params, cache, y):
        return nn.unflatten(params.net.sizes, params.gradient(cache, y))

    def test_no_mask_equals_backward(self):
        net, X, y = self._setup(7)
        params = effective(net)
        _, cache = nn.forward(net, X)
        plain = nn.backward(net, cache, y)
        masked = self.layer_gradients(params, cache, y)
        for (aw, ab), (bw, bb) in zip(plain, masked):
            assert np.array_equal(aw, bw) and np.array_equal(ab, bb)

    def test_full_mask_zeroes_everything(self):
        net, X, y = self._setup(8)
        params = effective(net)
        params.mask[:] = True
        _, cache = nn.forward(net, X)
        grads = self.layer_gradients(params, cache, y)
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_single_masked_entry(self):
        net, X, y = self._setup(9)
        params = effective(net)
        weight_mask = nn.unflatten(net.sizes, params.mask)[0][0]
        weight_mask[3, 1] = True
        _, cache = nn.forward(net, X)
        plain = nn.backward(net, cache, y)
        masked = self.layer_gradients(params, cache, y)
        diff = plain[0][0] != masked[0][0]
        assert diff.sum() == 1 and diff[3, 1]
        assert masked[0][0][3, 1] == 0.0
        assert np.array_equal(plain[1][0], masked[1][0])

    def test_frozen_epsilon_gradients_match_finite_differences(self, synthetic_model):
        # Loss as a function of the clean weights with epsilon held fixed.
        # The net's arrays are views of params.params, so perturbing them
        # moves the clean parameters under the fixed epsilon.
        net, X, y = self._setup(10)
        params = transferred(net, synthetic_model, 0.05, 11)
        sample = per_layer(params)
        _, cache = nn.forward(params.net, X)
        grads = self.layer_gradients(params, cache, y)

        def loss_at(phi_net):
            params.update()
            out, _ = nn.forward(params.net, X)
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


# Whether training at workers 2 forks a noise producer here.
TWO_CPUS = len(os.sched_getaffinity(0)) >= 2


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTrainingLoops:
    def test_zero_variability_bitwise_equivalence(self, synthetic_model):
        cfg = TrainingConfig(epochs=25, seed=3, batch_size=32,
                             sources=SourceToggles(False, False, False))
        data = tiny_moons()
        hw = train_hardware_aware(cfg, data, model=synthetic_model)
        reg = train_regular(cfg, data)
        for a, b in zip(hw.layers, reg.layers):
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.bias.tobytes() == b.bias.tobytes()

    def test_stuck_only_toggle_with_zero_fractions_degenerates(self, synthetic_model):
        cfg = TrainingConfig(epochs=5, seed=4, batch_size=32, hrs_fraction=0.0,
                             lrs_fraction=0.0, sources=SourceToggles(False, False, True))
        data = tiny_moons()
        hw = train_hardware_aware(cfg, data, model=synthetic_model)
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

        def hook(epoch, step, net, params, loss):
            sample = per_layer(params)
            blob = b"".join(e.tobytes() for e in sample.weight_eps)
            digests.append(hashlib.sha256(blob).hexdigest())

        train_hardware_aware(cfg, data, model=synthetic_model, batch_hook=hook)
        assert len(digests) == 2 * 6
        assert len(set(digests)) == len(digests)

    @pytest.mark.parametrize("kind, sources, noisy", [
        ("regular", SourceToggles(), False),
        ("hardware_aware", SourceToggles(False, False, False), False),
        ("hardware_aware", SourceToggles(), True),
    ], ids=["regular", "every_source_off", "hardware_aware"])
    def test_hook_receives_the_step_effective_params(self, synthetic_model, kind, sources, noisy):
        cfg, data = TrainingConfig(epochs=2, seed=6, batch_size=32, sources=sources), tiny_moons()
        payloads = []

        def hook(epoch, step, net, params, loss):
            payloads.append(params)

        if kind == "regular":
            train_regular(cfg, data, batch_hook=hook)
        else:
            train_hardware_aware(cfg, data, model=synthetic_model, batch_hook=hook)
        assert len(payloads) == cfg.steps(len(data))
        if noisy:
            # One object whose buffers every step reuses.
            assert isinstance(payloads[0], EffectiveParams)
            assert all(params is payloads[0] for params in payloads)
        else:
            assert all(params is None for params in payloads)

    def test_range_reevaluated_every_batch(self, synthetic_model):
        cfg = TrainingConfig(epochs=2, seed=7, batch_size=32)
        data = tiny_moons()
        seen = []

        def hook(epoch, step, net, params, loss):
            sample = per_layer(params)
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

        def hook(epoch, step, net, params, loss):
            nonlocal hits, total
            sample = per_layer(params)
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

        def hook(epoch, step, net, params, loss):
            epoch_losses.setdefault(epoch, []).append(loss)

        train_regular(cfg, data, batch_hook=hook)
        means = np.array([np.mean(epoch_losses[e]) for e in sorted(epoch_losses)])
        assert means[-10:].mean() < means[:10].mean()
        smooth = np.convolve(means, np.ones(10) / 10, mode="valid")
        assert smooth[-1] <= smooth[0]


class TestGoldenTraining:
    # sha256 of the trained parameters, recorded with the per-matrix
    # transfer pipeline and per-array Adam update that the batched ones
    # replaced (numpy 2.4.6, OpenBLAS, x86-64).  Any change of a bit of
    # the training arithmetic or of a draw changes them.  Forward and
    # backward use BLAS matmuls, so another BLAS build may round them
    # differently.
    SMALL = TrainingConfig(epochs=40, batch_size=32, seed=13)
    STUCK_HEAVY = TrainingConfig(epochs=20, batch_size=32, seed=13, hrs_fraction=0.05,
                                 lrs_fraction=0.05)

    @staticmethod
    def digest(net):
        h = hashlib.sha256()
        for layer in net.layers:
            h.update(layer.weights.tobytes())
            h.update(layer.bias.tobytes())
        return h.hexdigest()

    HARDWARE_AWARE = {
        "SMALL": "b5573c1343d2ad7a932cea176c1ae9c74106893939fa3df089910654284f16dd",
        "STUCK_HEAVY": "83d7b92f5527cc8ceb888c6f0059546090bd24cff2d8476a433757adcc27408b",
    }

    def test_hardware_aware(self, moons_split, synthetic_model):
        net = train_hardware_aware(self.SMALL, moons_split[0], model=synthetic_model)
        assert self.digest(net) == self.HARDWARE_AWARE["SMALL"]

    def test_hardware_aware_stuck_heavy(self, moons_split, synthetic_model):
        net = train_hardware_aware(self.STUCK_HEAVY, moons_split[0], model=synthetic_model)
        assert self.digest(net) == self.HARDWARE_AWARE["STUCK_HEAVY"]

    @pytest.mark.parametrize("name", list(HARDWARE_AWARE))
    def test_hardware_aware_with_producer(self, moons_split, synthetic_model, name):
        config, report = getattr(self, name), ProducerReport()
        net = train_hardware_aware(config, moons_split[0], model=synthetic_model, workers=2,
                                   report=report)
        assert self.digest(net) == self.HARDWARE_AWARE[name]
        if TWO_CPUS:
            assert report.blocks == -(-config.steps(len(moons_split[0])) // training._BLOCK_STEPS)
            assert report.cpu_s > 0
        assert_no_children()

    def test_stalled_producer_is_taken_over(self, monkeypatch, moons_split, synthetic_model):
        # The producer draws its first block and then never sends it.
        monkeypatch.setattr(training, "_send", lambda pipe, message: time.sleep(3600))
        report = ProducerReport()
        net = train_hardware_aware(self.SMALL, moons_split[0], model=synthetic_model, workers=2,
                                   report=report)
        assert self.digest(net) == self.HARDWARE_AWARE["SMALL"]
        assert report.drawn_here == report.blocks == (35 if TWO_CPUS else 0)
        assert_no_children()

    def test_producer_that_stops_is_taken_over(self, monkeypatch, moons_split,
                                               synthetic_model):
        # The trainer waits as long as it takes for each block; the producer
        # sends 5 blocks and exits, so the trainer draws the other 13 itself,
        # from its generator as the producer's last block left it.
        send, sent = training._send, []

        def five_blocks(pipe, message):
            if len(sent) == 5:
                os._exit(0)
            sent.append(message)
            send(pipe, message)

        monkeypatch.setattr(training, "_send", five_blocks)
        monkeypatch.setattr(training, "_WAIT_MS", 60_000)
        report = ProducerReport()
        net = train_hardware_aware(self.STUCK_HEAVY, moons_split[0], model=synthetic_model,
                                   workers=2, report=report)
        assert self.digest(net) == self.HARDWARE_AWARE["STUCK_HEAVY"]
        assert (report.blocks, report.drawn_here) == ((18, 13) if TWO_CPUS else (0, 0))
        assert_no_children()

    def test_producer_late_on_one_block_is_taken_over_for_good(self, monkeypatch, moons_split,
                                                                synthetic_model):
        # The producer sleeps 0.6 s before it sends block 2, which the trainer
        # reaches after about 0.13 s and waits 0.1 s for.  Then it sends the
        # rest, and the slow hook would let it catch up long before the run
        # ends, but the trainer draws every step from block 2 on itself.
        send, sent = training._send, []

        def late_block_2(pipe, message):
            if len(sent) == 2:
                time.sleep(0.6)
            sent.append(None)
            send(pipe, message)

        monkeypatch.setattr(training, "_send", late_block_2)
        monkeypatch.setattr(training, "_WAIT_MS", 100)
        report = ProducerReport()
        net = train_hardware_aware(self.STUCK_HEAVY, moons_split[0], model=synthetic_model,
                                   workers=2, report=report,
                                   batch_hook=lambda *args: time.sleep(0.002))
        assert self.digest(net) == self.HARDWARE_AWARE["STUCK_HEAVY"]
        assert (report.blocks, report.drawn_here) == ((18, 18 - 2) if TWO_CPUS else (0, 0))
        assert_no_children()

    def test_one_cpu_mask_forks_nothing(self, monkeypatch, moons_split, synthetic_model):
        def fork():
            raise AssertionError("forked on a one-CPU mask")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", fork)
        report = ProducerReport()
        net = train_hardware_aware(self.SMALL, moons_split[0], model=synthetic_model, workers=2,
                                   report=report)
        assert self.digest(net) == self.HARDWARE_AWARE["SMALL"]
        assert report == ProducerReport()

    def test_regular(self, moons_split):
        net = train_regular(self.SMALL, moons_split[0])
        assert self.digest(net) == "9ee2c8ef232116cda92f36a795b8a82cff1569b9c7393b4a8b1a7656071349e9"

    # Recorded with the per-layer apply, EpsilonSample, effective_net and
    # masked_backward step that the flat-vector step replaced.
    DEFAULT_BATCH = TrainingConfig(epochs=30, seed=13)  # 875 points: the last batch holds 107
    THREE_LAYERS = TrainingConfig(architecture=(2, 5, 3, 1), epochs=20, batch_size=32, seed=13)
    MULTI_TILE = TrainingConfig(architecture=(2, 16, 1), tile=(4, 4), epochs=20, batch_size=32,
                                seed=13, hrs_fraction=0.05, lrs_fraction=0.05)

    SHAPES = {
        "DEFAULT_BATCH": "826b218a714f82dd7e50c332503042f15eb263bdf8d666b5f961b46cb9f487ca",
        "THREE_LAYERS": "055a553323186ba0b626f38c3833ecbfa7381882077ce95d8c2d05bf76fd191d",
        "MULTI_TILE": "a5c3c4636fad9e9fc8f2edc5456e0e3d3bbd156755c9205ec495d663fc47bd7a",
    }

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_hardware_aware_shapes(self, moons_split, synthetic_model, name):
        net = train_hardware_aware(getattr(self, name), moons_split[0], model=synthetic_model)
        assert self.digest(net) == self.SHAPES[name]

    def test_batch_hook_samples(self, moons_split, synthetic_model):
        # Every step's transfer as the hook sees it, over a stuck-heavy
        # run: noise, both masks and the snapshots.
        h = hashlib.sha256()
        steps = []

        def hook(epoch, step, net, params, loss):
            sample = per_layer(params)
            steps.append(step)
            for arr in (*sample.weight_eps, *sample.bias_eps, *sample.weight_mask,
                        *sample.bias_mask):
                h.update(arr.tobytes())
            for snap in sample.snapshots:
                h.update(np.array([snap.phi_min, snap.phi_max, snap.phi_absmax]).tobytes())

        config = TrainingConfig(epochs=5, batch_size=32, seed=13, hrs_fraction=0.05,
                                lrs_fraction=0.05)
        net = train_hardware_aware(config, moons_split[0], model=synthetic_model, batch_hook=hook)
        assert len(steps) == 5 * 28
        assert h.hexdigest() == "9bfaf67a8fd22a640c34a193c32a1939ec28aef8d304a0d858691f0e44f90597"
        assert self.digest(net) == "1ba3fe70ea601afa46748a267511e3fa45fda40938eca7847f8ef02a4b6d5e79"


def init_then(change):
    """A ``DenseNet.init`` replacement that applies ``change`` to the
    initialised net."""
    init = nn.DenseNet.init.__func__

    def changed(cls, sizes, rng):
        net = init(cls, sizes, rng)
        change(net)
        return net

    return classmethod(changed)


def zero_output_layer(net):
    net.layers[1].weights[:] = 0.0


def overflowing_first_layer(net):
    # A finite range whose max - min overflows, so the transferred and
    # effective weights are not finite.
    net.layers[0].weights[0] = [1e308, -1e308]


def overflowing_output_layer(net):
    net.layers[1].weights[0, :2] = [1e308, -1e308]


class TestErrorPaths:
    @pytest.mark.parametrize("change, error, message", [
        (zero_output_layer, ValueError, "cannot snapshot an all-zero weight matrix"),
        (overflowing_first_layer, TrainingDiverged,
         "^training diverged: the transferred parameters of layer 1 of 2 are not finite$"),
        (overflowing_output_layer, TrainingDiverged,
         "^training diverged: the transferred parameters of layer 2 of 2 are not finite$"),
    ], ids=["all_zero", "non_finite", "non_finite_output"])
    def test_bad_weights_raise_through_training(self, monkeypatch, synthetic_model, change,
                                                error, message):
        monkeypatch.setattr(nn.DenseNet, "init", init_then(change))
        with pytest.raises(error, match=message):
            train_hardware_aware(TrainingConfig(epochs=1, batch_size=32), tiny_moons(),
                                 model=synthetic_model)

    def test_input_width_other_than_two_is_rejected(self):
        with pytest.raises(ValueError, match=r"^architecture must start with 2, the half-moons "
                                             r"input, and end with 1, the one output, "
                                             r"got \[3, 8, 1\]$"):
            train_regular(TrainingConfig(architecture=(3, 8, 1), epochs=1),
                          make_half_moons(20, seed=0))

    @pytest.mark.parametrize("hardware_aware", [False, True], ids=["regular", "hardware_aware"])
    def test_infinite_final_parameters_raise(self, synthetic_model, hardware_aware):
        # The hook of the last step makes a weight infinite; Adam keeps it
        # so, and no forward follows that could turn it into a NaN output.
        cfg, data = TrainingConfig(epochs=2, batch_size=32), tiny_moons()
        steps = cfg.steps(len(data))
        calls = 0

        def poison(epoch, step, net, sample, loss):
            nonlocal calls
            calls += 1
            if calls == steps:
                net.layers[0].weights[0, 0] = np.inf

        extra = {"model": synthetic_model} if hardware_aware else {}
        train = train_hardware_aware if hardware_aware else train_regular
        with pytest.raises(TrainingDiverged, match="^training diverged: the final parameters "
                                                   "are not finite$"):
            train(cfg, data, batch_hook=poison, **extra)
        assert calls == steps


class TestProducerLifetime:
    @pytest.mark.parametrize("error", [ValueError, TrainingDiverged, KeyboardInterrupt])
    def test_error_mid_run_leaves_no_producer(self, capfd, synthetic_model, error):
        mask, masks = os.sched_getaffinity(0), []

        def stop(epoch, step, net, noisy, loss):
            masks.append(os.sched_getaffinity(0))
            if epoch == 3:
                raise error("stopped")

        with pytest.raises(error, match="^stopped$"):
            train_hardware_aware(TrainingConfig(epochs=10, batch_size=32), tiny_moons(),
                                 model=synthetic_model, batch_hook=stop, workers=2)
        assert_no_children()
        assert os.sched_getaffinity(0) == mask
        # While it trained, the producer held the mask's last CPU.
        assert masks[0] == (mask - {max(mask)} if TWO_CPUS else mask)
        # The killed producer, which shares fd 2, wrote nothing there.
        assert capfd.readouterr().err == ""

    def test_producer_with_a_broken_pipe_writes_nothing(self, capfd, monkeypatch,
                                                         synthetic_model):
        # The producer leaves through os._exit, so the error prints no
        # traceback on the shared fd 2.  The trainer waits until the pipe
        # closes, then draws every block.
        def broken(pipe, message):
            raise BrokenPipeError("closed")

        monkeypatch.setattr(training, "_send", broken)
        monkeypatch.setattr(training, "_WAIT_MS", 60_000)
        report = ProducerReport()
        train_hardware_aware(TrainingConfig(epochs=2, batch_size=32), tiny_moons(),
                             model=synthetic_model, workers=2, report=report)
        assert report.drawn_here == report.blocks == (1 if TWO_CPUS else 0)
        assert capfd.readouterr().err == ""
        assert_no_children()

    def test_workers_1_stays_in_process(self, monkeypatch, synthetic_model):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked at workers 1"))
        report = ProducerReport()
        train_hardware_aware(TrainingConfig(epochs=2, batch_size=32), tiny_moons(),
                             model=synthetic_model, report=report)
        assert report == ProducerReport()


    @pytest.mark.parametrize("workers, cpus", [(1, None), (2, {0})], ids=["workers-1", "one-cpu"])
    def test_forked_without_a_helper_yields_nothing(self, monkeypatch, workers, cpus):
        mask, reaped = os.sched_getaffinity(0), []
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pytest.fail("mask set"))
        with training._forked(workers, lambda: pytest.fail("work ran"),
                              reaped=reaped.append) as sent:
            assert list(sent) == []
        assert reaped == []
        monkeypatch.undo()
        assert os.sched_getaffinity(0) == mask


class TestCrossbarOrder:
    @pytest.mark.parametrize("arch", [[2, 8, 1], [2, 5, 3, 1], [3, 1]])
    def test_params_are_each_crossbar_row_major(self, arch):
        net = nn.DenseNet.init(arch, np.random.default_rng(1))
        crossbars = [layer_to_crossbar(l.weights, l.bias).ravel() for l in net.layers]
        params = nn.AdamState.for_net(net).params
        assert np.array_equal(params, np.concatenate(crossbars))
        assert all(l.weights.base is params and l.bias.base is params for l in net.layers)


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
