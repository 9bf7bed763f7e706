import errno
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from xbartrain import experiments, nn
from xbartrain.cli import main
from xbartrain.datasets import LabeledSet, make_half_moons
from xbartrain.experiments import (
    _Z0,
    CHUNK,
    GRID_TILE,
    MAX_GRID_POINTS,
    POINT_BLOCK,
    ConfigError,
    GridSpec,
    RobustnessReport,
    _GridTiles,
    _margin,
    _predict_transferred,
    evaluate_transfers,
    experiment_config_from_dict,
    experiment_dataset,
    heatmap,
    load_experiment_config,
    robustness_curve,
    robustness_table,
    write_heatmap_csv,
)
from xbartrain.training import TrainingConfig, _stream, train_hardware_aware
from xbartrain.transfer import TransferPlan, layouts_for_architecture

from conftest import crossbars, layer_stacks, reference_predict
from test_training import TWO_CPUS, assert_no_children

LAYOUTS = layouts_for_architecture([2, 8, 1])

# The benchmark's frozen HA net of the default run, read only.
CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench/inputs/ha_default_seed0.json"


def symmetric_net():
    rng = np.random.default_rng(17)
    w1 = rng.uniform(-0.5, 0.5, size=(8, 2))
    w1[0, 0], w1[1, 0] = 0.9, -0.9
    w2 = rng.uniform(-0.3, 0.3, size=(1, 8))
    w2[0, 0], w2[0, 1] = 0.7, -0.7
    return nn.DenseNet([nn.LayerParams(w1, np.zeros(8)), nn.LayerParams(w2, np.zeros(1))])


TINY_CONFIG = {
    "seed": 5,
    "epochs": 30,
    "batch_size": 64,
    "dataset": {"n_train": 120, "n_test": 40, "noise_std": 0.1},
    "transfers": 25,
    "heatmap": {"nx": 8, "ny": 6, "repetitions": 10},
}


# The config of acceptance criterion 9 (determinism).
CRITERION_9_CONFIG = {
    "seed": 13,
    "epochs": 40,
    "batch_size": 64,
    "dataset": {"n_train": 150, "n_test": 50, "noise_std": 0.1},
    "transfers": 50,
    "heatmap": {"nx": 10, "ny": 10, "repetitions": 20},
}


class TestEvaluateTransfers:
    def test_variability_off_fractions_are_binary_and_match_accuracy(self, zero_model):
        net = symmetric_net()
        test_set = make_half_moons(80, noise_std=0.1, seed=20)
        report = evaluate_transfers(net, zero_model, LAYOUTS, 0.0, 0.0, test_set, 50, seed=1)
        fractions = report.fractions
        assert set(np.unique(fractions)) <= {0.0, 1.0}
        clean_acc = nn.accuracy(net, test_set.points, test_set.labels)
        assert np.mean(fractions == 1.0) == pytest.approx(clean_acc, abs=1e-12)

    def test_single_transfer_counts_binary(self, synthetic_model):
        net = symmetric_net()
        test_set = make_half_moons(30, noise_std=0.1, seed=21)
        report = evaluate_transfers(net, synthetic_model, LAYOUTS, 0.005, 0.005, test_set, 1, seed=2)
        assert set(np.unique(report.counts)) <= {0, 1}

    def test_reproducible_and_worker_independent(self, synthetic_model):
        net = symmetric_net()
        test_set = make_half_moons(40, noise_std=0.1, seed=22)
        kwargs = dict(x=0.005, y=0.005, test_set=test_set, transfers=60, seed=3)
        r1 = evaluate_transfers(net, synthetic_model, LAYOUTS, **kwargs, workers=1)
        r2 = evaluate_transfers(net, synthetic_model, LAYOUTS, **kwargs, workers=1)
        r4 = evaluate_transfers(net, synthetic_model, LAYOUTS, **kwargs, workers=4)
        assert r1.counts.tobytes() == r2.counts.tobytes()
        assert r1.counts.tobytes() == r4.counts.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("transfers", [1, CHUNK - 1, CHUNK, CHUNK + 3, 2 * CHUNK + 5])
    def test_chunks_equal_reference_forward(self, synthetic_model, transfers, workers):
        net = symmetric_net()
        test_set = make_half_moons(30, noise_std=0.1, seed=27)
        plan = TransferPlan(LAYOUTS, synthetic_model, 0.01, 0.01)
        counts = np.zeros(len(test_set), dtype=np.int64)
        for k in range(-(-transfers // CHUNK)):
            n = min(CHUNK, transfers - k * CHUNK)
            outcomes = plan.apply(crossbars(net), plan.draw(n, _stream(10, 100, k)))
            counts += np.sum(reference_predict(layer_stacks(outcomes), test_set.points)
                             == test_set.labels, axis=0)
        report = evaluate_transfers(net, synthetic_model, LAYOUTS, 0.01, 0.01, test_set,
                                    transfers, seed=10, workers=workers)
        assert report.counts.tobytes() == counts.tobytes()

    def test_partial_chunk_counts_worker_independent(self, synthetic_model):
        net = symmetric_net()
        test_set = make_half_moons(40, noise_std=0.1, seed=27)
        kwargs = dict(x=0.005, y=0.005, test_set=test_set, transfers=CHUNK + 3, seed=4)
        reports = [evaluate_transfers(net, synthetic_model, LAYOUTS, **kwargs, workers=w)
                   for w in (1, 2, 3)]
        assert reports[0].counts.max() <= CHUNK + 3
        for r in reports[1:]:
            assert r.counts.tobytes() == reports[0].counts.tobytes()

    def test_invalid_transfers(self, synthetic_model):
        net = symmetric_net()
        test_set = make_half_moons(10, seed=23)
        with pytest.raises(ValueError):
            evaluate_transfers(net, synthetic_model, LAYOUTS, 0.0, 0.0, test_set, 0, seed=0)

    @pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_stuck_fraction_rejected(self, synthetic_model, x, y):
        # A NaN fraction used to pass both range checks and count as 0.
        net, test_set = symmetric_net(), make_half_moons(10, seed=23)
        with pytest.raises(ValueError, match="stuck fractions"):
            evaluate_transfers(net, synthetic_model, LAYOUTS, x, y, test_set, 64, seed=0)


def overflowing_net():
    """symmetric_net with a finite first layer whose max - min overflows."""
    net = symmetric_net()
    net.layers[0].weights[0] = [1e308, -1e308]
    return net


class TestOverflowingRange:
    @pytest.fixture
    def no_draws(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("drew transfers of a net that cannot be transferred")

        monkeypatch.setattr(TransferPlan, "draw", draw)

    def test_evaluation_rejects_it_before_any_draw(self, synthetic_model, no_draws):
        test_set = make_half_moons(10, seed=23)
        with pytest.raises(ValueError, match=r"layer 1 of 2: the weight range \[-1e\+308, "
                                             r"1e\+308\] overflows"):
            evaluate_transfers(overflowing_net(), synthetic_model, LAYOUTS, 0.005, 0.005,
                               test_set, 40, seed=0)

    def test_heatmap_rejects_it_before_any_draw(self, synthetic_model, no_draws):
        with pytest.raises(ValueError, match="layer 1 of 2: .* max - min is not finite"):
            heatmap(overflowing_net(), synthetic_model, LAYOUTS, 0.005, 0.005,
                    GridSpec(nx=4, ny=3), repetitions=20, seed=0)

    @pytest.mark.parametrize("count", ["evaluate", "heatmap"])
    def test_all_zero_layer_is_named_before_any_draw(self, synthetic_model, no_draws, count):
        net = symmetric_net()
        net.layers[1].weights[:] = 0.0  # its bias is zero too
        with pytest.raises(ValueError, match="^layer 2 of 2: cannot snapshot an all-zero "
                                             "weight matrix$"):
            if count == "evaluate":
                evaluate_transfers(net, synthetic_model, LAYOUTS, 0.005, 0.005,
                                   make_half_moons(10, seed=23), 40, seed=0)
            else:
                heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005, GridSpec(nx=4, ny=3),
                        repetitions=20, seed=0)

    @pytest.mark.parametrize("count", ["evaluate", "heatmap"])
    def test_non_finite_layer_is_named_before_any_draw(self, synthetic_model, no_draws, count):
        net = symmetric_net()
        net.layers[0].weights[3, 1] = np.nan
        with pytest.raises(ValueError, match="^layer 1 of 2: cannot snapshot a non-finite "
                                             "weight matrix$"):
            if count == "evaluate":
                evaluate_transfers(net, synthetic_model, LAYOUTS, 0.005, 0.005,
                                   make_half_moons(10, seed=23), 40, seed=0)
            else:
                heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005, GridSpec(nx=4, ny=3),
                        repetitions=20, seed=0)

    def test_wide_finite_range_is_accepted(self, synthetic_model):
        net = symmetric_net()
        net.layers[1].weights[0, :2] = [8e307, -8e307]
        report = evaluate_transfers(net, synthetic_model, LAYOUTS, 0.0, 0.0,
                                    make_half_moons(10, seed=23), 3, seed=0)
        assert report.counts.shape == (10,)


class TestPredictTransferred:
    @pytest.mark.parametrize("points", [1, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1, 40_000])
    @pytest.mark.parametrize("n", [1, 32])
    def test_bitwise_equal_to_unblocked_forward(self, synthetic_model, n, points):
        rng = np.random.default_rng(points + n)
        plan = TransferPlan(LAYOUTS, synthetic_model, 0.01, 0.01)
        layers = layer_stacks(plan.apply(crossbars(symmetric_net()), plan.draw(n, rng)))
        X = rng.uniform([-1.5, -1.0], [2.5, 1.5], size=(points, 2))
        labels = _predict_transferred(layers, X)
        assert labels.shape == (n, points) and labels.dtype == bool
        assert np.array_equal(labels, reference_predict(layers, X))

    def test_deeper_network(self, synthetic_model):
        rng = np.random.default_rng(3)
        arch = [2, 5, 3, 1]
        plan = TransferPlan(layouts_for_architecture(arch), synthetic_model, 0.01, 0.01)
        layers = layer_stacks(plan.apply(crossbars(nn.DenseNet.init(arch, rng)), plan.draw(7, rng)))
        X = rng.normal(size=(POINT_BLOCK + 17, 2))
        assert np.array_equal(_predict_transferred(layers, X), reference_predict(layers, X))

    def test_label_threshold_is_the_smallest_logit_above_one_half(self):
        assert expit(_Z0) > 0.5
        assert expit(np.nextafter(_Z0, -np.inf)) == 0.5

    def test_pre_activation_at_the_threshold(self):
        # A 2-1 net with zero weights: the output pre-activation is the bias.
        w, b = np.zeros((2, 2, 1)), np.zeros((2, 1, 1))
        b[:, 0, 0] = _Z0, np.nextafter(_Z0, -np.inf)
        layers = [(w, b)]
        X = np.random.default_rng(0).normal(size=(5, 2))
        labels = _predict_transferred(layers, X)
        assert labels[0].all() and not labels[1].any()
        assert np.array_equal(labels, reference_predict(layers, X))


class CountingExpit:
    """scipy's expit, counting its calls: the forward calls it only in the
    exact step, once per hidden layer and block."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return expit(*args, **kwargs)


def boundary_net_layers(n=1):
    """``n`` transfers of a symmetric 2-2-1 net as ``(w, b)`` stacks: the
    hidden units are expit(x0) and expit(-x0) and the output is their
    difference, so z == 0 on the line x0 == 0 and |z| is far from _Z0
    elsewhere."""
    w1, w2 = np.array([[[1.0, -1.0], [0.0, 0.0]]]), np.array([[[4.0], [-4.0]]])
    return [(np.repeat(w, n, axis=0), np.zeros((n, 1, w.shape[2]))) for w in (w1, w2)]


class TestExactStep:
    @pytest.fixture
    def counting(self, monkeypatch):
        counter = CountingExpit()
        monkeypatch.setattr("xbartrain.experiments.expit", counter)
        return counter

    def test_points_on_the_decision_boundary_take_the_exact_step(self, counting):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.zeros(50), rng.normal(size=50)])
        layers = boundary_net_layers(n=3)
        labels = _predict_transferred(layers, X)
        assert counting.calls == 1
        assert np.array_equal(labels, reference_predict(layers, X))

    def test_only_the_blocks_near_the_boundary_take_the_exact_step(self, counting):
        X = np.column_stack([np.linspace(1.0, 2.0, 3 * POINT_BLOCK), np.zeros(3 * POINT_BLOCK)])
        X[POINT_BLOCK + 7, 0] = 0.0
        layers = boundary_net_layers()
        labels = _predict_transferred(layers, X)
        assert counting.calls == 1
        assert np.array_equal(labels, reference_predict(layers, X))

    def test_points_off_the_boundary_take_the_fast_step(self, counting):
        X = np.column_stack([np.linspace(-2.0, -0.5, 40), np.zeros(40)])
        layers = boundary_net_layers()
        labels = _predict_transferred(layers, X)
        assert counting.calls == 0
        assert np.array_equal(labels, reference_predict(layers, X))

    def test_nan_gap_takes_the_exact_step(self, counting):
        layers = boundary_net_layers(n=2)
        layers[1][1][1, 0, 0] = np.nan
        X = np.column_stack([np.linspace(1.0, 2.0, 10), np.zeros(10)])
        labels = _predict_transferred(layers, X)
        assert counting.calls == 1
        assert labels[0].all() and not labels[1].any()
        assert np.array_equal(labels, reference_predict(layers, X))

    # ``evaluate`` and ``heatmap`` load no scipy (tests/test_imports.py)
    # only as long as the exact step stays unused on nets like the default
    # run's.  These take the benchmark's inputs: its checkpoint, the
    # default config at the program seed, 2000 transfers for an evaluation
    # and 100 repetitions for a heatmap.
    @staticmethod
    def benchmark_inputs(seed):
        config = experiment_config_from_dict({"seed": seed})
        net = nn.load_checkpoint(CHECKPOINT)
        tc = config.training
        return config, net, (config.resolve_model(),
                             layouts_for_architecture(net.sizes, *tc.tile),
                             tc.hrs_fraction, tc.lrs_fraction)

    @pytest.mark.parametrize("seed", [0, 3, 17, 42])
    def test_benchmark_evaluation_takes_no_exact_step(self, counting, seed):
        config, net, plan_args = self.benchmark_inputs(seed)
        evaluate_transfers(net, *plan_args, experiment_dataset(config)[1], 2000, seed)
        assert counting.calls == 0

    @pytest.mark.parametrize("seed", [0, 503])
    def test_benchmark_heatmap_takes_no_exact_step(self, counting, seed):
        config, net, plan_args = self.benchmark_inputs(seed)
        heatmap(net, *plan_args, config.grid, 100, seed)
        assert counting.calls == 0


class RecordingForward:
    """_predict_transferred, recording the transfer count and the points
    of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, layers, X, margin=None):
        self.calls.append((len(layers[0][0]), np.array(X)))
        return _predict_transferred(layers, X, margin=margin)


class TestTiles:
    # 40 x 16 cells of 0.1 x 0.125: five columns of tiles, of which the
    # middle one, cells -0.35 <= x0 <= 0.35, holds the line x0 = 0.
    GRID = GridSpec(extent=(-2.0, 2.0, -1.0, 1.0), nx=40, ny=16)

    @pytest.fixture
    def forward(self, monkeypatch):
        recorder = RecordingForward()
        monkeypatch.setattr("xbartrain.experiments._predict_transferred", recorder)
        return recorder

    def test_only_the_tiles_on_the_boundary_are_forwarded(self, forward):
        layers = boundary_net_layers(n=3)
        ones = _GridTiles(self.GRID).count_ones(layers)
        points = self.GRID.points()
        middle = points[np.abs(points[:, 0]) < 0.4]
        assert len(middle) == GRID_TILE * self.GRID.ny
        assert [n for n, _ in forward.calls] == [1, 1, 1]
        for _, X in forward.calls:
            assert sorted(map(tuple, X)) == sorted(map(tuple, middle))
        assert np.array_equal(ones, reference_predict(layers, points).sum(axis=0))

    @pytest.mark.parametrize("multiple, forwarded", [(0.5, True), (2.0, False)])
    def test_a_bound_within_the_margin_is_forwarded(self, forward, multiple, forwarded):
        # Zero first-layer weights: the output is the output bias b
        # everywhere, and both bounds are b.
        layers = boundary_net_layers()
        for a in layers[0]:
            a[:] = 0.0
        margin = _margin(layers, _GridTiles(self.GRID).x_max)[0]
        assert 0 < margin < 1e-12
        layers[1][1][0, 0, 0] = _Z0 + multiple * margin
        ones = _GridTiles(self.GRID).count_ones(layers)
        assert len(forward.calls) == int(forwarded)
        if forwarded:
            assert len(forward.calls[0][1]) == self.GRID.nx * self.GRID.ny
        assert ones.all()
        assert np.array_equal(ones, reference_predict(layers, self.GRID.points()).sum(axis=0))

    def test_nan_weight_forwards_every_tile(self, forward):
        layers = boundary_net_layers(n=2)
        layers[1][1][1, 0, 0] = np.nan
        ones = _GridTiles(self.GRID).count_ones(layers)
        assert [(n, len(X)) for n, X in forward.calls] == [
            (1, GRID_TILE * self.GRID.ny), (1, self.GRID.nx * self.GRID.ny)]
        assert np.array_equal(ones, reference_predict(layers, self.GRID.points()).sum(axis=0))


class TestRobustnessTable:
    @pytest.mark.parametrize("counts", [[-1, 3], [3, 11]])
    def test_counts_outside_zero_to_transfers_rejected(self, counts):
        with pytest.raises(ValueError, match=r"^counts must lie in \[0, transfers\]$"):
            RobustnessReport(counts=np.array(counts), transfers=10)

    def test_all_perfect_goes_to_top_bin(self):
        report = RobustnessReport(counts=np.full(20, 50), transfers=50)
        table = robustness_table(report)
        assert table[0].label == "100"
        assert table[0].count == 20
        assert sum(b.count for b in table[1:]) == 0

    def test_hand_binning(self):
        report = RobustnessReport(counts=np.array([96, 91, 45]), transfers=100)
        by_label = {b.label: b.count for b in robustness_table(report)}
        assert by_label["95<=x<100"] == 1
        assert by_label["90<=x<95"] == 1
        assert by_label["x<50"] == 1

    def test_boundary_goes_to_half_open_bin(self):
        report = RobustnessReport(counts=np.array([50, 95, 100, 49]), transfers=100)
        by_label = {b.label: b.count for b in robustness_table(report)}
        assert by_label["50<=x<60"] == 1
        assert by_label["95<=x<100"] == 1
        assert by_label["100"] == 1
        assert by_label["x<50"] == 1

    def test_counts_sum_to_test_size(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            counts = rng.integers(0, 201, size=137)
            table = robustness_table(RobustnessReport(counts=counts, transfers=200))
            assert sum(b.count for b in table) == 137
            assert sum(b.percent for b in table) == pytest.approx(100.0)

    def test_reference_table_shape(self):
        # Format check against the published comparison table: 159/200
        # points in [95, 100) is reported as 79.5%.
        counts = np.concatenate([np.full(159, 9800), np.full(41, 5000)])
        table = robustness_table(RobustnessReport(counts=counts, transfers=10_000))
        by_label = {b.label: b for b in table}
        assert by_label["95<=x<100"].count == 159
        assert by_label["95<=x<100"].percent == pytest.approx(79.5)


class TestRobustnessCurve:
    def test_flat_at_one(self):
        report = RobustnessReport(counts=np.full(10, 40), transfers=40)
        thresholds, shares = robustness_curve(report)
        assert thresholds[0] == 0.0 and thresholds[-1] == 1.0
        assert len(thresholds) == 201
        assert np.all(shares == 1.0)

    def test_single_point_step(self):
        report = RobustnessReport(counts=np.array([70]), transfers=100)
        thresholds, shares = robustness_curve(report)
        assert np.all(shares[thresholds <= 0.7] == 1.0)
        assert np.all(shares[thresholds > 0.7] == 0.0)

    def test_monotone_non_increasing(self):
        counts = np.random.default_rng(25).integers(0, 101, size=64)
        _, shares = robustness_curve(RobustnessReport(counts=counts, transfers=100))
        assert np.all(np.diff(shares) <= 0)

    def test_consistent_with_table_at_95(self):
        counts = np.random.default_rng(26).integers(0, 101, size=200)
        report = RobustnessReport(counts=counts, transfers=100)
        thresholds, shares = robustness_curve(report)
        table = {b.label: b.count for b in robustness_table(report)}
        share_at_95 = shares[np.where(thresholds == 0.95)[0][0]]
        assert share_at_95 == pytest.approx((table["95<=x<100"] + table["100"]) / 200.0)


class TestHeatmap:
    def test_variability_off_std_zero(self, zero_model):
        net = symmetric_net()
        grid = GridSpec(nx=10, ny=8)
        hm = heatmap(net, zero_model, LAYOUTS, 0.0, 0.0, grid, repetitions=20, seed=4)
        assert np.all(hm.std == 0.0)
        assert set(np.unique(hm.mean)) <= {0.0, 1.0}

    def test_bernoulli_identity_exact(self, synthetic_model):
        net = symmetric_net()
        grid = GridSpec(nx=12, ny=9)
        hm = heatmap(net, synthetic_model, LAYOUTS, 0.01, 0.01, grid, repetitions=50, seed=5)
        assert np.array_equal(hm.std, np.sqrt(hm.mean * (1.0 - hm.mean)))
        assert hm.mean.min() >= 0.0 and hm.mean.max() <= 1.0
        assert hm.std.max() <= 0.5

    def test_worker_independence(self, synthetic_model):
        net = symmetric_net()
        grid = GridSpec(nx=6, ny=5)
        a = heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005, grid, repetitions=30, seed=6)
        b = heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005, grid, repetitions=30, seed=6,
                    workers=3)
        assert a.mean.tobytes() == b.mean.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("repetitions", sorted(
        {1, 3, 4, 5, 15, 16, 17, CHUNK - 1, CHUNK, CHUNK + 1}))
    def test_groups_equal_repetitions_forwarded_alone(self, synthetic_model, repetitions,
                                                      workers):
        net = symmetric_net()
        grid = GridSpec(nx=9, ny=7)
        plan = TransferPlan(LAYOUTS, synthetic_model, 0.01, 0.01)
        ones = np.zeros(grid.nx * grid.ny, dtype=np.int64)
        for i in range(repetitions):
            outcomes = plan.apply(crossbars(net), plan.draw(1, _stream(8, 101, i)))
            ones += reference_predict(layer_stacks(outcomes), grid.points())[0]
        hm = heatmap(net, synthetic_model, LAYOUTS, 0.01, 0.01, grid,
                     repetitions=repetitions, seed=8, workers=workers)
        assert hm.mean.tobytes() == (ones / repetitions).reshape(grid.ny, grid.nx).tobytes()

    def test_hann_less_variable_in_class_cores(self, trained_hann, trained_regular,
                                               synthetic_model):
        grid = GridSpec(nx=40, ny=25)
        common = dict(model=synthetic_model, layouts=LAYOUTS, x=0.005, y=0.005, grid=grid,
                      repetitions=200, seed=0)
        hm_h = heatmap(trained_hann, **common)
        hm_r = heatmap(trained_regular, **common)
        pts = grid.points()
        for cx, cy in [(0.0, 1.0), (1.0, -0.5)]:
            core = (((pts[:, 0] - cx) ** 2 + (pts[:, 1] - cy) ** 2) < 0.35**2).reshape(grid.ny, grid.nx)
            assert hm_h.std[core].mean() <= hm_r.std[core].mean()

    def test_csv_fields_are_plain_floats(self, synthetic_model, tmp_path):
        net = symmetric_net()
        grid = GridSpec(nx=7, ny=4)
        hm = heatmap(net, synthetic_model, LAYOUTS, 0.01, 0.01, grid, repetitions=9, seed=7)
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,mean,std"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 7 * 4
        for row in rows:
            assert len(row) == 4
            assert not any(field.startswith("np.") for field in row)
        values = np.array([[float(field) for field in row] for row in rows])
        assert np.array_equal(values[:, 2], hm.mean.ravel())
        assert np.array_equal(values[:, 3], hm.std.ravel())

    def test_invalid_repetitions(self, synthetic_model):
        with pytest.raises(ValueError, match="^repetitions must be >= 1, got 0$"):
            heatmap(symmetric_net(), synthetic_model, LAYOUTS, 0.0, 0.0, GridSpec(nx=4, ny=3),
                    repetitions=0, seed=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(extent=(1.0, 0.0, -1.0, 1.5))
        with pytest.raises(ValueError):
            GridSpec(nx=0)


class TestGoldenHeatmap:
    # sha256 of write_heatmap_csv's bytes, recorded with the unblocked
    # forward and the per-cell CSV writer they replaced (numpy 2.4.6,
    # scipy 1.17.1, OpenBLAS, x86-64).  73 x 59 = 4307 points, one full
    # point block and a partial one.
    def test_csv_digest(self, synthetic_model, tmp_path):
        grid = GridSpec(nx=73, ny=59)
        hm = heatmap(symmetric_net(), synthetic_model, LAYOUTS, 0.01, 0.01, grid,
                     repetitions=30, seed=11)
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "307c2560322ab6d011cd285368b88d48e2575dc7e2348f7fd2927d3e609383fd"


class TestGoldenDefaultHeatmap:
    # sha256 of write_heatmap_csv's bytes on the default 200 x 200 grid for
    # the HA checkpoint of the benchmark, recorded with the heatmap that
    # forwarded every cell (numpy 2.4.6, scipy 1.17.1, OpenBLAS, x86-64).
    CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench/inputs/ha_default_seed0.json"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_digest(self, synthetic_model, tmp_path, workers):
        hm = heatmap(nn.load_checkpoint(self.CHECKPOINT), synthetic_model, LAYOUTS, 0.005, 0.005,
                     GridSpec(), repetitions=20, seed=12, workers=workers)
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "84728d6ef2651a0818bf748e7101747115829ab46035ab1601d45ef1e48fd767"


class TestCountSplit:
    # 37 x 23 cells, so the last row and column of tiles are partial, and
    # 41 repetitions, so each half of the split ends in a short job.  The
    # benchmark's net leaves the tiles on its class boundary undecided.
    GRID = GridSpec(nx=37, ny=23)

    def heatmap(self, model, workers=1, repetitions=41):
        return heatmap(nn.load_checkpoint(CHECKPOINT), model, LAYOUTS, 0.005, 0.005, self.GRID,
                       repetitions, seed=4, workers=workers).mean.tobytes()

    @staticmethod
    def count_forks(monkeypatch):
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_split_counts_equal_serial_counts(self, monkeypatch, synthetic_model):
        forward = RecordingForward()
        monkeypatch.setattr("xbartrain.experiments._predict_transferred", forward)
        serial = self.heatmap(synthetic_model)
        assert forward.calls  # some tiles went through the forward
        forks = self.count_forks(monkeypatch)
        assert self.heatmap(synthetic_model, workers=2) == serial
        assert len(forks) == int(TWO_CPUS)
        assert_no_children()

    def test_helper_that_writes_nothing_leaves_serial_counts(self, capfd, monkeypatch,
                                                             synthetic_model):
        serial = self.heatmap(synthetic_model)
        here, count_ones = os.getpid(), _GridTiles.count_ones

        def only_here(tiles, layers):
            if os.getpid() != here:
                raise RuntimeError("the helper fails before it writes")
            return count_ones(tiles, layers)

        monkeypatch.setattr(_GridTiles, "count_ones", only_here)
        assert self.heatmap(synthetic_model, workers=2) == serial
        # The helper left through os._exit: it printed no traceback.
        assert capfd.readouterr().err == ""
        assert_no_children()

    # Evaluation draws a stream per chunk, the heatmap one per repetition.
    @pytest.mark.parametrize("per_stream", [CHUNK, 1], ids=["evaluate_transfers", "heatmap"])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK + 5])
    def test_jobs_hold_up_to_chunk_transfers(self, monkeypatch, synthetic_model, per_stream, n):
        count_transfers, sizes = experiments._count_transfers, []

        def counted(plan, net, tally, *args):
            def recorded(layers):
                sizes.append(len(layers[0][0]))
                return tally(layers)
            return count_transfers(plan, net, recorded, *args)

        monkeypatch.setattr(experiments, "_count_transfers", counted)
        net, common = nn.load_checkpoint(CHECKPOINT), (synthetic_model, LAYOUTS, 0.005, 0.005)
        if per_stream == 1:
            heatmap(net, *common, GridSpec(nx=5, ny=4), n, seed=4, workers=1)
        else:
            evaluate_transfers(net, *common, make_half_moons(20, seed=3), n, seed=4, workers=1)

        def jobs(m):
            return [CHUNK] * (m // CHUNK) + [m % CHUNK] * (m % CHUNK > 0)

        # At workers 1 this thread counts both halves of the split, each in
        # jobs of CHUNK from its first stream; a half ends in a shorter job.
        first = -(-n // per_stream) // 2 * per_stream
        assert sizes == jobs(first) + jobs(n - first)

    @pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
    def test_error_in_the_caller_leaves_no_helper(self, monkeypatch, synthetic_model, error):
        mask, here, masks = os.sched_getaffinity(0), os.getpid(), []
        count_ones = _GridTiles.count_ones

        def stop(tiles, layers):
            if os.getpid() == here:
                masks.append(os.sched_getaffinity(0))
                if len(masks) == 2:
                    raise error("stopped")
            return count_ones(tiles, layers)

        monkeypatch.setattr(_GridTiles, "count_ones", stop)
        # The caller's half of the split holds more than CHUNK repetitions: two jobs.
        with pytest.raises(error, match="^stopped$"):
            self.heatmap(synthetic_model, workers=2, repetitions=2 * CHUNK + 5)
        assert_no_children()
        assert os.sched_getaffinity(0) == mask
        # While it counted, the helper held the mask's last CPU.
        assert masks[0] == (mask - {max(mask)} if TWO_CPUS else mask)

    @pytest.mark.parametrize("cpus, repetitions", [({0}, 41), (None, 1)],
                             ids=["one-cpu", "one-stream"])
    def test_forks_nothing(self, monkeypatch, synthetic_model, cpus, repetitions):
        serial = self.heatmap(synthetic_model, repetitions=repetitions)
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert self.heatmap(synthetic_model, workers=2, repetitions=repetitions) == serial


@pytest.mark.skipif(not TWO_CPUS, reason="a one-CPU mask forks nothing")
class TestForkFailure:
    @pytest.mark.parametrize("job", ["heatmap", "hardware_aware_training"])
    def test_failed_fork_leaves_no_fd_child_or_mask(self, monkeypatch, synthetic_model, job):
        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        net, data = nn.load_checkpoint(CHECKPOINT), make_half_moons(96, noise_std=0.1, seed=21)
        calls = {
            "heatmap": lambda: heatmap(net, synthetic_model, LAYOUTS, 0.005, 0.005,
                                       GridSpec(nx=37, ny=23), 41, seed=4, workers=2),
            "hardware_aware_training": lambda: train_hardware_aware(
                TrainingConfig(epochs=2, batch_size=32), data, model=synthetic_model, workers=2),
        }
        fds, mask = len(os.listdir("/proc/self/fd")), os.sched_getaffinity(0)
        monkeypatch.setattr(os, "fork", fork)
        for _ in range(3):
            with pytest.raises(OSError, match="Resource temporarily unavailable"):
                calls[job]()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert os.sched_getaffinity(0) == mask
        assert_no_children()


class TestGoldenEvaluation:
    # sha256 of evaluate_transfers' int64 counts, recorded with the
    # per-chunk count job (numpy 2.4.6, scipy 1.17.1, OpenBLAS, x86-64):
    # one transfer, a short chunk, a full chunk plus a short one, and two
    # full chunks plus a short one.  At workers 2 on two CPUs, the last two
    # count their later chunks in a helper process.
    DIGESTS = {
        1: "083718eaf9fd4cd1f143de0d1db6226d55ccb40e51ab67c160f3f17f8f4884dd",
        CHUNK - 1: "45904929ead9a8529d8133f5fc05d8da74d8c1e13daf8f87e9120eff8779d07e",
        CHUNK + 3: "7c92ca132d5d3e1a8360eeefb3ebc2a28180b135ea378fb04fb90e6ee5d57ea6",
        2 * CHUNK + 5: "0377100d1b5fdde1ded86d88b89b16c40dfdb7c951726a3b43b69e3dabaef31f",
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("transfers", list(DIGESTS))
    def test_counts_digest(self, synthetic_model, transfers, workers):
        test_set = make_half_moons(50, noise_std=0.1, seed=23)
        report = evaluate_transfers(symmetric_net(), synthetic_model, LAYOUTS, 0.01, 0.01,
                                    test_set, transfers, seed=9, workers=workers)
        digest = hashlib.sha256(report.counts.tobytes()).hexdigest()
        assert digest == self.DIGESTS[transfers]


class TestConfig:
    def test_defaults(self):
        config = experiment_config_from_dict({})
        assert config.training.architecture == (2, 8, 1)
        assert config.training.epochs == 4000
        assert config.transfers == 10000
        assert config.grid.nx == 200

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            experiment_config_from_dict({"epoch": 5})

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"batch_size": "many"})

    @pytest.mark.parametrize("doc, where", [
        ({"sources": {"tuning": "false"}}, "sources: tuning"),
        ({"sources": {"stuck": 0}}, "sources: stuck"),
        ({"epochs": 1.7}, "epochs"),
        ({"epochs": True}, "epochs"),
        ({"batch_size": "64"}, "batch_size"),
        ({"dataset": {"n_train": 87.5}}, "dataset: n_train"),
        ({"heatmap": {"nx": False}}, "heatmap: nx"),
        ({"architecture": [2, 8.5, 1]}, "architecture"),
    ])
    def test_scalars_are_not_coerced(self, doc, where):
        with pytest.raises(ConfigError, match=f"config: {where}: expected"):
            experiment_config_from_dict(doc)

    def test_integral_numbers_and_booleans_accepted(self):
        config = experiment_config_from_dict({"epochs": 5.0, "sources": {"bias": False}})
        assert config.training.epochs == 5 and isinstance(config.training.epochs, int)
        assert config.training.sources.bias is False

    @pytest.mark.parametrize("doc, key", [
        ({"transfers": 0}, "transfers"),
        ({"heatmap": {"repetitions": 0}}, "heatmap.repetitions"),
        ({"threads": 0}, "threads"),
        ({"architecture": [2, 8, 3]}, "architecture"),
        ({"architecture": [2, 0, 1]}, "architecture"),
        ({"heatmap": {"nx": 1001, "ny": 1000}}, r"heatmap\.nx \* heatmap\.ny"),
        pytest.param({"heatmap": {"nx": 0}}, r"^config: heatmap\.nx must be >= 1, got 0$",
                     id="nx-zero"),
        pytest.param({"heatmap": {"ny": -1}}, r"^config: heatmap\.ny must be >= 1, got -1$",
                     id="ny-negative"),
    ])
    def test_out_of_range_values_rejected(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            experiment_config_from_dict(doc)

    def test_grid_at_the_size_bound_accepted(self):
        config = experiment_config_from_dict({"heatmap": {"nx": MAX_GRID_POINTS, "ny": 1}})
        assert config.grid.nx * config.grid.ny == MAX_GRID_POINTS

    @pytest.mark.parametrize("doc, key", [
        ({"learning_rate": 0}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"dataset": {"noise_std": -0.1}}, "noise_std"),
        ({"dataset": {"noise_std": float("inf")}}, "noise_std"),
        ({"seed": -1}, "seed"),
        ({"model_seed": -1}, "model_seed"),
        ({"dataset": {"n_train": 0}}, "n_train"),
        ({"dataset": {"n_test": 0}}, "n_test"),
        ({"hrs_fraction": float("nan")}, "hrs_fraction"),
        ({"lrs_fraction": 1.5}, "lrs_fraction"),
        ({"model_path": 5}, "model_path"),
        ({"model_path": None}, "model_path"),
        ({"heatmap": {"extent": "wide"}}, "extent"),
    ])
    def test_range_and_type_checks_name_the_key(self, doc, key):
        with pytest.raises(ConfigError, match=key):
            experiment_config_from_dict(doc)

    def test_file_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_experiment_config(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{)")
        with pytest.raises(ConfigError, match="line"):
            load_experiment_config(bad)

    def test_dataset_split(self):
        config = experiment_config_from_dict(dict(TINY_CONFIG))
        train_set, test_set = experiment_dataset(config)
        assert len(train_set) == 120 and len(test_set) == 40


class TestRunExperiment:
    def test_end_to_end_artifacts(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        names = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert {"report.json", "manifest.json"} <= names
        for net in ("hardware_aware", "regular"):
            for f in ("checkpoint.json", "table.csv", "curve.csv", "heatmap.csv"):
                assert (out / net / f).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["transfers"] == 25
        assert len(report["networks"]["regular"]["counts"]) == 40
        table_lines = (out / "regular" / "table.csv").read_text().strip().splitlines()
        assert table_lines[0] == "bin,label,count,percent"
        assert sum(int(l.split(",")[2]) for l in table_lines[1:]) == 40
        curve_lines = (out / "regular" / "curve.csv").read_text().strip().splitlines()
        assert curve_lines[0] == "threshold,share"
        assert len(curve_lines) == 202
        heat_lines = (out / "regular" / "heatmap.csv").read_text().strip().splitlines()
        assert heat_lines[0] == "x,y,mean,std"
        assert len(heat_lines) == 1 + 8 * 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "xbartrain"
        assert "hardware_aware/table.csv" in manifest["artifacts"]

    def test_byte_identical_reruns(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(TINY_CONFIG))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_one_and_two_processes_write_the_same_tree(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(CRITERION_9_CONFIG))
        trees, stages = {}, {}
        for threads in (1, 2):
            out = tmp_path / str(threads)
            assert main(["run", "--config", str(config_path), "--out", str(out),
                         "--threads", str(threads)]) == 0
            trees[threads] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                              if p.is_file()}
            *lines, _ = capsys.readouterr().err.splitlines()
            stages[threads] = [line.split(": ", 1)[0] for line in lines]
        assert len(trees[1]) == 10
        assert trees[1] == trees[2]
        assert stages[1] == stages[2] == [
            "hardware_aware training", "regular training", "hardware_aware evaluation",
            "hardware_aware heatmap", "regular evaluation", "regular heatmap"]
