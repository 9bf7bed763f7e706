import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from xbartrain import nn
from xbartrain.datasets import LabeledSet, make_half_moons
from xbartrain.experiments import (
    _Z0,
    CHUNK,
    GRID_TILE,
    HEATMAP_GROUP,
    MAX_GRID_POINTS,
    POINT_BLOCK,
    ConfigError,
    GridSpec,
    RobustnessReport,
    _GridTiles,
    _predict_transferred,
    _tile_margin,
    _transfer_rng,
    evaluate_transfers,
    experiment_config_from_dict,
    experiment_dataset,
    heatmap,
    load_experiment_config,
    robustness_curve,
    robustness_table,
    run_experiment,
    write_heatmap_csv,
)
from xbartrain.transfer import TransferOutcome, TransferPlan, layouts_for_architecture

from conftest import reference_predict

LAYOUTS = layouts_for_architecture([2, 8, 1])


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
            outcomes = plan.apply_net(net, plan.draw(n, _transfer_rng(10, 100, k)))
            counts += np.sum(reference_predict(outcomes, test_set.points) == test_set.labels,
                             axis=0)
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


class TestPredictTransferred:
    @pytest.mark.parametrize("points", [1, POINT_BLOCK - 1, POINT_BLOCK, POINT_BLOCK + 1, 40_000])
    @pytest.mark.parametrize("n", [1, 32])
    def test_bitwise_equal_to_unblocked_forward(self, synthetic_model, n, points):
        rng = np.random.default_rng(points + n)
        plan = TransferPlan(LAYOUTS, synthetic_model, 0.01, 0.01)
        outcomes = plan.apply_net(symmetric_net(), plan.draw(n, rng))
        X = rng.uniform([-1.5, -1.0], [2.5, 1.5], size=(points, 2))
        labels = _predict_transferred(outcomes, X)
        assert labels.shape == (n, points) and labels.dtype == bool
        assert np.array_equal(labels, reference_predict(outcomes, X))

    def test_deeper_network(self, synthetic_model):
        rng = np.random.default_rng(3)
        arch = [2, 5, 3, 1]
        plan = TransferPlan(layouts_for_architecture(arch), synthetic_model, 0.01, 0.01)
        outcomes = plan.apply_net(nn.DenseNet.init(arch, rng), plan.draw(7, rng))
        X = rng.normal(size=(POINT_BLOCK + 17, 2))
        assert np.array_equal(_predict_transferred(outcomes, X), reference_predict(outcomes, X))

    def test_label_threshold_is_the_smallest_logit_above_one_half(self):
        assert expit(_Z0) > 0.5
        assert expit(np.nextafter(_Z0, -np.inf)) == 0.5

    def test_pre_activation_at_the_threshold(self):
        # A 2-1 net with zero weights: the output pre-activation is the bias.
        m = np.zeros((2, 3, 1))
        m[:, 2, 0] = _Z0, np.nextafter(_Z0, -np.inf)
        outcomes = [TransferOutcome(m, np.zeros(m.shape, dtype=bool))]
        X = np.random.default_rng(0).normal(size=(5, 2))
        labels = _predict_transferred(outcomes, X)
        assert labels[0].all() and not labels[1].any()
        assert np.array_equal(labels, reference_predict(outcomes, X))


class CountingExpit:
    """scipy's expit, counting its calls: the forward calls it only in the
    exact step, once per hidden layer and block."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return expit(*args, **kwargs)


def boundary_net_outcomes(n=1):
    """A symmetric 2-2-1 net: the hidden units are expit(x0) and
    expit(-x0) and the output is their difference, so z == 0 on the line
    x0 == 0 and |z| is far from _Z0 elsewhere."""
    m1 = np.array([[[1.0, -1.0], [0.0, 0.0], [0.0, 0.0]]])
    m2 = np.array([[[4.0], [-4.0], [0.0]]])
    return [TransferOutcome(np.repeat(m, n, axis=0), np.zeros((n, *m.shape[1:]), dtype=bool))
            for m in (m1, m2)]


class TestExactStep:
    @pytest.fixture
    def counting(self, monkeypatch):
        counter = CountingExpit()
        monkeypatch.setattr("xbartrain.experiments.expit", counter)
        return counter

    def test_points_on_the_decision_boundary_take_the_exact_step(self, counting):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.zeros(50), rng.normal(size=50)])
        outcomes = boundary_net_outcomes(n=3)
        labels = _predict_transferred(outcomes, X)
        assert counting.calls == 1
        assert np.array_equal(labels, reference_predict(outcomes, X))

    def test_only_the_blocks_near_the_boundary_take_the_exact_step(self, counting):
        X = np.column_stack([np.linspace(1.0, 2.0, 3 * POINT_BLOCK), np.zeros(3 * POINT_BLOCK)])
        X[POINT_BLOCK + 7, 0] = 0.0
        outcomes = boundary_net_outcomes()
        labels = _predict_transferred(outcomes, X)
        assert counting.calls == 1
        assert np.array_equal(labels, reference_predict(outcomes, X))

    def test_points_off_the_boundary_take_the_fast_step(self, counting):
        X = np.column_stack([np.linspace(-2.0, -0.5, 40), np.zeros(40)])
        outcomes = boundary_net_outcomes()
        labels = _predict_transferred(outcomes, X)
        assert counting.calls == 0
        assert np.array_equal(labels, reference_predict(outcomes, X))

    def test_nan_gap_takes_the_exact_step(self, counting):
        outcomes = boundary_net_outcomes(n=2)
        outcomes[1].phi_prime[1, 2, 0] = np.nan
        X = np.column_stack([np.linspace(1.0, 2.0, 10), np.zeros(10)])
        labels = _predict_transferred(outcomes, X)
        assert counting.calls == 1
        assert labels[0].all() and not labels[1].any()
        assert np.array_equal(labels, reference_predict(outcomes, X))


class RecordingForward:
    """_predict_transferred, recording the transfer count and the points
    of each call."""

    def __init__(self):
        self.calls = []

    def __call__(self, outcomes, X):
        self.calls.append((outcomes[0].phi_prime.shape[0], np.array(X)))
        return _predict_transferred(outcomes, X)


class TestTiles:
    # 40 x 16 cells of 0.1 x 0.125: five columns of tiles, of which the
    # middle one, cells -0.35 <= x0 <= 0.35, holds the line x0 = 0.
    GRID = GridSpec(x_min=-2.0, x_max=2.0, y_min=-1.0, y_max=1.0, nx=40, ny=16)

    @pytest.fixture
    def forward(self, monkeypatch):
        recorder = RecordingForward()
        monkeypatch.setattr("xbartrain.experiments._predict_transferred", recorder)
        return recorder

    def test_only_the_tiles_on_the_boundary_are_forwarded(self, forward):
        outcomes = boundary_net_outcomes(n=3)
        ones = _GridTiles(self.GRID).count_ones(outcomes)
        points = self.GRID.points()
        middle = points[np.abs(points[:, 0]) < 0.4]
        assert len(middle) == GRID_TILE * self.GRID.ny
        assert [n for n, _ in forward.calls] == [1, 1, 1]
        for _, X in forward.calls:
            assert sorted(map(tuple, X)) == sorted(map(tuple, middle))
        assert np.array_equal(ones, reference_predict(outcomes, points).sum(axis=0))

    @pytest.mark.parametrize("multiple, forwarded", [(0.5, True), (2.0, False)])
    def test_a_bound_within_the_margin_is_forwarded(self, forward, multiple, forwarded):
        # Zero first-layer weights: the output is the output bias b
        # everywhere, and both bounds are b.
        outcomes = boundary_net_outcomes()
        outcomes[0].phi_prime[:] = 0.0
        layers = [(o.phi_prime[:, :-1], o.phi_prime[:, -1:]) for o in outcomes]
        margin = _tile_margin(layers, _GridTiles(self.GRID).x_max)[0]
        assert 0 < margin < 1e-12
        outcomes[1].phi_prime[0, 2, 0] = _Z0 + multiple * margin
        ones = _GridTiles(self.GRID).count_ones(outcomes)
        assert len(forward.calls) == int(forwarded)
        if forwarded:
            assert len(forward.calls[0][1]) == self.GRID.nx * self.GRID.ny
        assert ones.all()
        assert np.array_equal(ones, reference_predict(outcomes, self.GRID.points()).sum(axis=0))

    def test_nan_weight_forwards_every_tile(self, forward):
        outcomes = boundary_net_outcomes(n=2)
        outcomes[1].phi_prime[1, 2, 0] = np.nan
        ones = _GridTiles(self.GRID).count_ones(outcomes)
        assert [(n, len(X)) for n, X in forward.calls] == [
            (1, GRID_TILE * self.GRID.ny), (1, self.GRID.nx * self.GRID.ny)]
        assert np.array_equal(ones, reference_predict(outcomes, self.GRID.points()).sum(axis=0))


class TestRobustnessTable:
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

    def test_bad_edges_rejected(self):
        report = RobustnessReport(counts=np.array([10]), transfers=10)
        with pytest.raises(ValueError):
            robustness_table(report, bin_edges=(50, 90, 100))


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
        {1, 3, 4, 5, HEATMAP_GROUP - 1, HEATMAP_GROUP, HEATMAP_GROUP + 1}))
    def test_groups_equal_repetitions_forwarded_alone(self, synthetic_model, repetitions,
                                                      workers):
        net = symmetric_net()
        grid = GridSpec(nx=9, ny=7)
        plan = TransferPlan(LAYOUTS, synthetic_model, 0.01, 0.01)
        ones = np.zeros(grid.nx * grid.ny, dtype=np.int64)
        for i in range(repetitions):
            outcomes = plan.apply_net(net, plan.draw(1, _transfer_rng(8, 101, i)))
            ones += reference_predict(outcomes, grid.points())[0]
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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(x_min=1.0, x_max=0.0)
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


class TestGoldenEvaluation:
    # sha256 of evaluate_transfers' int64 counts, recorded with the
    # per-chunk count job (numpy 2.4.6, scipy 1.17.1, OpenBLAS, x86-64):
    # one transfer, a short chunk, a full chunk plus a short one, and two
    # full chunks plus a short one.
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
        written = run_experiment(config_path, out)
        names = {p.relative_to(out).as_posix() for p in written}
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
        run_experiment(config_path, out1)
        run_experiment(config_path, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_one_and_two_processes_write_the_same_tree(self, tmp_path, capsys):
        config = experiment_config_from_dict(CRITERION_9_CONFIG)
        trees, stages = {}, {}
        for threads in (1, 2):
            out = tmp_path / str(threads)
            run_experiment(replace(config, threads=threads), out, config_doc=CRITERION_9_CONFIG)
            trees[threads] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                              if p.is_file()}
            *lines, _ = capsys.readouterr().err.splitlines()
            stages[threads] = [line.split(": ", 1)[0] for line in lines]
        assert len(trees[1]) == 10
        assert trees[1] == trees[2]
        assert stages[1] == stages[2] == [
            "hardware_aware training", "regular training", "hardware_aware evaluation",
            "hardware_aware heatmap", "regular evaluation", "regular heatmap"]
