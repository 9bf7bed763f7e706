import json

import numpy as np
import pytest

from xbartrain import nn
from xbartrain.datasets import LabeledSet, make_half_moons
from xbartrain.experiments import (
    CHUNK,
    ConfigError,
    GridSpec,
    RobustnessReport,
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
from xbartrain.transfer import layouts_for_architecture

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
