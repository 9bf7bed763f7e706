import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xbartrain import cli, experiments, nn
from xbartrain.cli import main
from xbartrain.transfer import TransferPlan
from xbartrain.variability import ConductanceRange, load_model, save_model

from conftest import zero_noise_model
from test_experiments import CHECKPOINT, CRITERION_9_CONFIG
from test_training import (
    TWO_CPUS,
    assert_no_children,
    init_then,
    overflowing_first_layer,
    zero_output_layer,
)

SRC = Path(__file__).resolve().parent.parent / "src"

TINY_CONFIG = {
    "seed": 9,
    "epochs": 20,
    "batch_size": 64,
    "dataset": {"n_train": 96, "n_test": 32, "noise_std": 0.1},
    "transfers": 10,
    "heatmap": {"nx": 6, "ny": 4, "repetitions": 5},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def write_raw_csvs(tmp_path):
    rng = np.random.default_rng(0)
    tuning = tmp_path / "tuning.csv"
    lines = ["device_id,g_target_uS,read_uS"]
    for device in ("d0", "d1"):
        for target in (125.0, 250.0, 375.0):
            for read in rng.normal(target * 0.995, target * 0.01, size=12):
                lines.append(f"{device},{target},{read}")
    tuning.write_text("\n".join(lines) + "\n")
    bias = tmp_path / "bias.csv"
    lines = ["n_d,delta_g_uS"]
    for n_d in range(1, 11):
        for delta in rng.normal(-0.3 * n_d, 1.0, size=30):
            lines.append(f"{n_d},{delta}")
    lines.append("3,75.0")  # beyond the cap, must be dropped
    bias.write_text("\n".join(lines) + "\n")
    stuck = tmp_path / "stuck.csv"
    lines = ["kind,g_uS"]
    for g in rng.uniform(15, 95, size=20):
        lines.append(f"HRS,{g}")
    for g in rng.uniform(450, 1100, size=20):
        lines.append(f"LRS,{g}")
    stuck.write_text("\n".join(lines) + "\n")
    return tuning, bias, stuck


class TestFitModel:
    def test_fit_and_reload(self, tmp_path, capsys):
        tuning, bias, stuck = write_raw_csvs(tmp_path)
        out = tmp_path / "model.json"
        rc = main(["fit-model", "--tuning", str(tuning), "--bias", str(bias),
                   "--stuck", str(stuck), "--out", str(out)])
        assert rc == 0
        model = load_model(out)
        assert set(model.bias_db.groups) == set(range(1, 11))
        assert all(len(v) == 30 for v in model.bias_db.groups.values())
        assert len(model.stuck_model.lrs_samples) == 20
        stdout = capsys.readouterr().out
        assert "fitted std line" in stdout
        assert "Shapiro-Wilk" in stdout

    def test_unset_window_bound_keeps_the_range_default(self, tmp_path):
        tuning, bias, stuck = write_raw_csvs(tmp_path)
        out = tmp_path / "model.json"
        assert main(["fit-model", "--tuning", str(tuning), "--bias", str(bias),
                     "--stuck", str(stuck), "--g-max", "440", "--out", str(out)]) == 0
        assert load_model(out).range == ConductanceRange(100.0, 440.0)

    def test_fit_without_lrs_fails(self, tmp_path):
        tuning, bias, _ = write_raw_csvs(tmp_path)
        stuck = tmp_path / "hrs_only.csv"
        stuck.write_text("kind,g_uS\nHRS,40.0\n")
        rc = main(["fit-model", "--tuning", str(tuning), "--bias", str(bias),
                   "--stuck", str(stuck), "--out", str(tmp_path / "m.json")])
        assert rc == 2


class TestGenSyntheticModel:
    def test_writes_loadable_model(self, tmp_path):
        out = tmp_path / "model.json"
        assert main(["gen-synthetic-model", "--out", str(out), "--seed", "3"]) == 0
        model = load_model(out)
        assert model.range.g_max == 400.0


class TestTrainEvaluateHeatmap:
    def test_train_regular_writes_checkpoint(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["train", "--regular", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        net = nn.load_checkpoint(out / "regular.json")
        assert net.sizes == [2, 8, 1]
        assert "test accuracy" in capsys.readouterr().out

    def test_train_hardware_aware_writes_checkpoint(self, config_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--hardware-aware", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        assert (out / "hardware_aware.json").exists()

    def test_evaluate_checkpoint(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--regular", "--config", str(config_path), "--out", str(out)])
        rc = main(["evaluate", "--config", str(config_path), "--checkpoint",
                   str(out / "regular.json"), "--out", str(out / "eval"), "--threads", "2"])
        assert rc == 0
        report = json.loads((out / "eval" / "report.json").read_text())
        assert report["transfers"] == 10
        assert len(report["counts"]) == 32
        assert (out / "eval" / "table.csv").exists()
        assert (out / "eval" / "curve.csv").exists()

    def test_heatmap_checkpoint(self, config_path, tmp_path):
        out = tmp_path / "run"
        main(["train", "--regular", "--config", str(config_path), "--out", str(out)])
        rc = main(["heatmap", "--config", str(config_path), "--checkpoint",
                   str(out / "regular.json"), "--out", str(out / "hm"), "--transfers", "4"])
        assert rc == 0
        lines = (out / "hm" / "heatmap.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6 * 4

    def test_rates_go_to_stderr(self, config_path, tmp_path, capsys):
        out = tmp_path / "run"
        for flag, name in (("--hardware-aware", "hardware_aware"), ("--regular", "regular")):
            assert main(["train", flag, "--config", str(config_path), "--out", str(out)]) == 0
            captured = capsys.readouterr()
            # At the default threads 2 an HA run on two CPUs has a producer.
            producer = (r"noise producer: \d+\.\d\d s CPU, trainer drew \d+ of \d+ blocks\n"
                        if name == "hardware_aware" and len(os.sched_getaffinity(0)) >= 2 else "")
            assert re.fullmatch(rf"{name} training: \d+\.\d\d s, \d+ steps/s\n{producer}",
                                captured.err)
            assert re.fullmatch(rf"{name}: train accuracy \d\.\d{{4}}, test accuracy \d\.\d{{4}}\n"
                                rf"wrote \S+{name}\.json\n", captured.out)
        common = ["--config", str(config_path), "--checkpoint", str(out / "regular.json")]
        assert main(["evaluate", *common, "--out", str(out / "eval")]) == 0
        assert re.fullmatch(r"evaluation: \d+\.\d\d s, \d+ transfers/s\n", capsys.readouterr().err)
        assert main(["heatmap", *common, "--out", str(out / "hm"), "--transfers", "4"]) == 0
        assert re.fullmatch(r"heatmap: \d+\.\d\d s, \d+ repetitions/s\n", capsys.readouterr().err)
        assert sorted(p.name for p in (out / "eval").iterdir()) == ["curve.csv", "report.json",
                                                                    "table.csv"]
        assert [p.name for p in (out / "hm").iterdir()] == ["heatmap.csv"]

    def test_hardware_aware_checkpoint_is_the_same_at_any_threads(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, epochs=200)))  # 400 steps, 13 blocks
        written = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert main(["train", "--hardware-aware", "--config", str(path), "--out", str(out),
                         "--threads", threads]) == 0
            written[threads] = (out / "hardware_aware.json").read_bytes()
            produced = "noise producer: " in capsys.readouterr().err
            assert produced == (threads == "2" and TWO_CPUS)
        assert written["1"] == written["2"]
        assert_no_children()

    def test_seed_override_changes_result(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--regular", "--config", str(config_path), "--out", str(out1),
              "--seed", "123"])
        main(["train", "--regular", "--config", str(config_path), "--out", str(out2)])
        a = nn.load_checkpoint(out1 / "regular.json")
        b = nn.load_checkpoint(out2 / "regular.json")
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


class TestRun:
    def test_full_pipeline(self, config_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        rc = main(["run", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        for rel in ("report.json", "manifest.json", "hardware_aware/table.csv",
                    "regular/curve.csv", "regular/heatmap.csv"):
            assert (out / rel).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 9
        assert len(manifest["config_sha256"]) == 64

    def test_stage_times_go_to_stderr(self, config_path, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        *lines, rss = capsys.readouterr().err.splitlines()
        assert re.fullmatch(r"peak rss: parent \d+\.\d MB, child \d+\.\d MB", rss)
        stages = [line.split(": ", 1)[0] for line in lines]
        assert stages == ["hardware_aware training", "regular training",
                          "hardware_aware evaluation", "hardware_aware heatmap",
                          "regular evaluation", "regular heatmap"]
        assert all(re.fullmatch(r"[a-z_ ]+: \d+\.\d\d s, \d+ [a-z]+/s", line) for line in lines)

    def test_one_thread_reports_no_child_rss(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"),
                     "--threads", "1"]) == 0
        assert re.fullmatch(r"peak rss: parent \d+\.\d MB",
                            capsys.readouterr().err.splitlines()[-1])

    def test_evaluation_and_heatmap_rates_go_to_stderr(self, config_path, tmp_path, capsys):
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
        *lines, _ = capsys.readouterr().err.splitlines()  # the last is the peak RSS line
        rates = [line.split(", ")[1:] for line in lines]
        units = [rate[0].split(" ", 1)[1] if rate else None for rate in rates]
        assert units == ["steps/s", "steps/s", "transfers/s", "repetitions/s",
                         "transfers/s", "repetitions/s"]


class TestErrorPaths:
    @pytest.mark.parametrize("change, message", [
        (zero_output_layer, "layer 2 of 2: cannot snapshot an all-zero weight matrix"),
        (overflowing_first_layer,
         "training diverged: the transferred parameters of layer 1 of 2 are not finite"),
    ], ids=["all_zero", "non_finite"])
    def test_bad_weights_in_training_exit_2(self, config_path, tmp_path, capsys, monkeypatch,
                                            change, message):
        monkeypatch.setattr(nn.DenseNet, "init", init_then(change))
        rc = main(["train", "--hardware-aware", "--config", str(config_path),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_failed_hardware_aware_training_leaves_no_producer(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, learning_rate=1e308)))
        rc = main(["train", "--hardware-aware", "--config", str(path), "--out",
                   str(tmp_path / "out"), "--threads", "2"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: training diverged: the transferred "
                                           "parameters of layer 1 of 2 are not finite\n")
        assert_no_children()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_hardware_aware_failure_in_run_exits_2(self, tmp_path, capsys, threads):
        # At this learning rate the HA net's effective parameters overflow
        # in its first steps.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, learning_rate=1e308)))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
                   "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: training diverged: the transferred parameters of layer 1 of 2 are not finite")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_regular_failure_in_run_exits_2(self, config_path, tmp_path, capsys, monkeypatch,
                                            threads):
        # At 2 threads the regular pipeline, and so this error, is in the
        # child process.
        def fail(*args, **kwargs):
            raise ValueError("regular training failed")

        monkeypatch.setattr(experiments, "train_regular", fail)
        rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"),
                   "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == "error: regular training failed"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("epochs, message", [
        (1, "the final parameters are not finite"),
        (3, "non-finite loss at epoch 1, batch 0"),
    ], ids=["final_parameters", "step"])
    def test_diverged_training_exits_2(self, tmp_path, capsys, epochs, message):
        # On criterion 9's config at this learning rate, one epoch leaves
        # infinite parameters behind and no NaN output; by the second epoch
        # an output is NaN.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CRITERION_9_CONFIG, epochs=epochs, learning_rate=1e308)))
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            rc = main(["train", "--regular", "--config", str(path), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: training diverged: {message}\n"
        assert not (out / "regular.json").exists()

    def test_diverged_training_prints_no_numpy_warning(self, tmp_path):
        # A fresh interpreter, whose warning registry has shown nothing yet.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(CRITERION_9_CONFIG, epochs=3, learning_rate=1e308)))
        proc = subprocess.run(
            [sys.executable, "-m", "xbartrain.cli", "train", "--regular", "--config", str(path),
             "--out", str(tmp_path / "o")], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"})
        assert proc.returncode == 2
        assert proc.stderr == "error: training diverged: non-finite loss at epoch 1, batch 0\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_regular_divergence_in_run_exits_2(self, config_path, tmp_path, capsys, monkeypatch,
                                               threads):
        train = experiments.train_regular
        monkeypatch.setattr(experiments, "train_regular",
                            lambda config, *a, **k: train(replace(config, lr=1e308), *a, **k))
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(config_path), "--out", str(tmp_path / "out"),
                       "--threads", threads])
        assert rc == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: training diverged: non-finite loss at epoch 1, batch 1")
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    def test_overflowing_weight_range_exits_2(self, tmp_path, capsys, command):
        doc = json.loads(CHECKPOINT.read_text())
        doc["layers"][0]["weights"][:2] = [1e308, -1e308]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"transfers": 40, "heatmap": {"repetitions": 20}}))
        out = tmp_path / "o"
        rc = main([command, "--checkpoint", str(checkpoint), "--config", str(config),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: layer 1 of 2: the weight range "
                                           "[-1e+308, 1e+308] overflows: max - min is not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    def test_all_zero_layer_exits_2_before_any_draw(self, tmp_path, capsys, monkeypatch, command):
        def draw(*args, **kwargs):
            raise AssertionError("drew transfers of a net that cannot be transferred")

        monkeypatch.setattr(TransferPlan, "draw", draw)
        doc = json.loads(CHECKPOINT.read_text())
        doc["layers"][1]["weights"] = [0.0] * len(doc["layers"][1]["weights"])
        doc["layers"][1]["bias"] = [0.0]
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"transfers": 40, "heatmap": {"repetitions": 20}}))
        out = tmp_path / "o"
        rc = main([command, "--checkpoint", str(checkpoint), "--config", str(config),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("error: layer 2 of 2: cannot snapshot an all-zero "
                                           "weight matrix\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "heatmap"])
    @pytest.mark.parametrize("sizes", [[2, 8, 2], [3, 8, 1]], ids=["two_outputs", "three_inputs"])
    def test_checkpoint_of_another_width_exits_2_before_any_draw(self, config_path, tmp_path,
                                                                 capsys, monkeypatch, command,
                                                                 sizes):
        def draw(*args, **kwargs):
            raise AssertionError("drew transfers of a net of the wrong width")

        monkeypatch.setattr(TransferPlan, "draw", draw)
        checkpoint = tmp_path / "net.json"
        nn.save_checkpoint(nn.DenseNet.init(sizes, np.random.default_rng(0)), checkpoint)
        out = tmp_path / "o"
        rc = main([command, "--checkpoint", str(checkpoint), "--config", str(config_path),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {checkpoint}: layer_sizes must start with 2, the half-moons "
            f"input, and end with 1, the one output, got {sizes}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train", "--regular"], ["train", "--hardware-aware"],
                                         ["run"]], ids=["regular", "hardware_aware", "run"])
    @pytest.mark.parametrize("update, message", [
        ({"architecture": [3, 8, 1]},
         "architecture must start with 2, the half-moons input, got [3, 8, 1]"),
        ({"tile": [0, 8]}, "tile must be two positive sizes (rows, cols), got [0, 8]"),
    ], ids=["three_inputs", "empty_tile"])
    def test_config_field_exits_2_before_training(self, tmp_path, capsys, trained, command,
                                                  update, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, **update)))
        rc = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: config file {path}: {message}\n"
        assert trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_regular_divergence_is_raised_at_any_thread_count(self, config_path, tmp_path,
                                                              monkeypatch, threads):
        train = experiments.train_regular
        monkeypatch.setattr(experiments, "train_regular",
                            lambda config, *a, **k: train(replace(config, lr=1e308), *a, **k))
        config = replace(experiments.load_experiment_config(config_path), threads=threads)
        with pytest.raises(RuntimeError, match="training diverged: non-finite loss at epoch 1, "
                                               "batch 1"):
            experiments.run_experiment(config, tmp_path / "out")
        assert multiprocessing.active_children() == []

    def test_child_that_dies_is_reported(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "train_regular", lambda *a, **k: os._exit(3))
        config = replace(experiments.load_experiment_config(config_path), threads=2)
        with pytest.raises(BrokenProcessPool):
            experiments.run_experiment(config, tmp_path / "out")
        assert multiprocessing.active_children() == []

    def test_missing_model_file_exits_2_and_names_path(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, model_path=str(tmp_path / "ghost_model.json"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "ghost_model.json" in capsys.readouterr().err

    def test_invalid_config_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{nope")
        rc = main(["train", "--regular", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"epoch": 10}))
        rc = main(["evaluate", "--config", str(path), "--checkpoint", "x.json",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("update, key", [
        ({"heatmap": [1]}, "heatmap"),
        ({"dataset": "x"}, "dataset"),
        ({"heatmap": {"extent": [1, 2]}}, "extent"),
        ({"heatmap": {"repetition": 3}}, "repetition"),
        ({"tile": [8]}, "tile"),
    ])
    def test_malformed_config_exits_2_and_names_key(self, tmp_path, capsys, update, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, **update)))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def trained(self, monkeypatch):
        """Records every training call instead of training."""
        calls = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "train_hardware_aware", lambda *a, **k: calls.append("ha"))
            monkeypatch.setattr(module, "train_regular", lambda *a, **k: calls.append("regular"))
        return calls

    @pytest.mark.parametrize("update, key", [
        ({"transfers": 0}, "transfers"),
        ({"heatmap": {"repetitions": 0}}, "heatmap.repetitions"),
        ({"threads": 0}, "threads"),
        ({"architecture": [2, 8, 3]}, "architecture"),
        ({"sources": {"tuning": "false"}}, "tuning"),
        ({"epochs": 1.7}, "epochs"),
        ({"heatmap": {"nx": 100000, "ny": 100000}}, "heatmap.nx * heatmap.ny"),
        ({"heatmap": {"extent": [-1.5, math.inf, -1.0, 1.5]}}, "heatmap.extent"),
        ({"heatmap": {"extent": [-1e308, 1e308, -1.0, 1.5]}}, "heatmap.extent"),
        pytest.param({"heatmap": {"nx": 0}}, "heatmap.nx must be >= 1, got 0\n", id="nx-zero"),
        pytest.param({"heatmap": {"ny": -3}}, "heatmap.ny must be >= 1, got -3\n",
                     id="ny-negative"),
    ])
    def test_invalid_value_exits_2_before_training(self, tmp_path, capsys, trained, update, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, **update)))
        rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["train", "--regular"], ["run"]], ids=["train", "run"])
    def test_noise_that_overflows_the_points_exits_2_before_training(self, tmp_path, command):
        # 1e308 passes the reader, being finite and >= 0, but scales some
        # normal draws past the largest double.  A fresh interpreter, whose
        # warning registry has shown nothing yet.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(TINY_CONFIG, dataset={"noise_std": 1e308})))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "xbartrain.cli", *command, "--config", str(path),
             "--out", str(out)], cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"})
        assert proc.returncode == 2
        assert proc.stderr == ("error: dataset.noise_std must leave the points finite, "
                               "got 1e+308\n")
        assert not out.exists()

    def test_zero_transfers_override_exits_2_before_training(self, config_path, tmp_path, capsys,
                                                              trained):
        rc = main(["run", "--config", str(config_path), "--transfers", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "transfers" in capsys.readouterr().err
        assert trained == []

    @pytest.mark.parametrize("extent", [[-1.5, math.inf, -1.0, 1.5], [-1e308, 1e308, -1.0, 1.5]],
                             ids=["infinite", "overflowing_width"])
    def test_heatmap_rejects_an_extent_that_is_not_finite(self, tmp_path, capsys, extent):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"heatmap": {"extent": extent, "repetitions": 3}}))
        out = tmp_path / "o"
        rc = main(["heatmap", "--checkpoint", str(CHECKPOINT), "--config", str(config),
                   "--out", str(out)])
        assert rc == 2
        assert "heatmap.extent" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def config_case(**update):
        def build(tmp_path):
            doc = json.loads(json.dumps(TINY_CONFIG))
            for key, value in update.items():
                (doc["dataset"] if key in doc["dataset"] else doc)[key] = value
            path = tmp_path / "config.json"
            path.write_text(json.dumps(doc))
            return ["run", "--config", str(path), "--out", str(tmp_path / "out")]
        return build

    @staticmethod
    def model_case(edit):
        def build(tmp_path):
            model = tmp_path / "model.json"
            save_model(zero_noise_model(), model)
            doc = json.loads(model.read_text())
            edit(doc)
            model.write_text(json.dumps(doc))
            return TestErrorPaths.config_case(model_path=str(model))(tmp_path)
        return build

    @staticmethod
    def checkpoint_case(edit):
        def build(tmp_path):
            checkpoint = tmp_path / "net.json"
            nn.save_checkpoint(nn.DenseNet.init([2, 8, 1], np.random.default_rng(0)), checkpoint)
            doc = json.loads(checkpoint.read_text())
            edit(doc)
            checkpoint.write_text(json.dumps(doc))
            argv = TestErrorPaths.config_case()(tmp_path)
            return ["evaluate", "--checkpoint", str(checkpoint), *argv[1:]]
        return build

    @staticmethod
    def csv_case(name, row):
        def build(tmp_path):
            paths = dict(zip(("tuning", "bias", "stuck"), write_raw_csvs(tmp_path)))
            with paths[name].open("a") as fh:
                fh.write(row + "\n")
            return ["fit-model", *(f"--{k}={v}" for k, v in paths.items()),
                    "--out", str(tmp_path / "model.json")]
        return build

    @pytest.mark.parametrize("build, key", [
        (config_case(learning_rate=float("nan")), "learning_rate"),
        (config_case(learning_rate=-1), "learning_rate"),
        (config_case(noise_std=float("nan")), "noise_std"),
        (config_case(seed=-1), "seed"),
        (config_case(model_seed=-1), "model_seed"),
        (config_case(n_train=0), "n_train"),
        (config_case(n_test=0), "n_test"),
        (config_case(model_path=5), "model_path"),
        (model_case(lambda doc: doc["bias_db"]["0"].__setitem__(0, "1.5")), "bias_db"),
        (model_case(lambda doc: doc["bias_db"]["0"].__setitem__(0, True)), "bias_db"),
        (model_case(lambda doc: doc["stuck_model"]["lrs_samples"].__setitem__(0, "1.5")),
         "lrs_samples"),
        (model_case(lambda doc: doc["stuck_model"]["lrs_samples"].__setitem__(0, True)),
         "lrs_samples"),
        (model_case(lambda doc: doc["std_model"].__setitem__("slop", 1.0)), "slop"),
        (model_case(lambda doc: doc.__setitem__("extra", {})), "extra"),
        (checkpoint_case(lambda doc: doc["layers"][0]["weights"].__setitem__(0, True)), "weights"),
        (checkpoint_case(lambda doc: doc["layers"][1]["weights"].__setitem__(0, "1.5")),
         "weights"),
        (checkpoint_case(lambda doc: doc.__setitem__("layer_sizes", [2, 7, 1])), "layer_sizes"),
        (csv_case("bias", "3,nan"), "bias.csv:303: delta_g_uS"),
        (csv_case("bias", "3,abc"), "bias.csv:303: delta_g_uS"),
        (csv_case("bias", "x,1.0"), "bias.csv:303: n_d"),
        (csv_case("tuning", "d0,125.0,inf"), "tuning.csv:74: read_uS"),
        (csv_case("stuck", "LRS,"), "stuck.csv:42: g_uS"),
    ], ids=["learning_rate-nan", "learning_rate-negative", "noise_std-nan", "seed-negative",
            "model_seed-negative", "n_train-zero", "n_test-zero", "model_path-number",
            "bias_db-string", "bias_db-bool", "lrs_samples-string", "lrs_samples-bool",
            "model-unknown-key", "model-unknown-section", "weights-bool", "weights-string",
            "layer_sizes-mismatch", "bias-csv-nan", "bias-csv-text", "bias-csv-n_d",
            "tuning-csv-inf", "stuck-csv-empty"])
    def test_malformed_input_exits_2_and_names_key(self, tmp_path, capsys, trained, monkeypatch,
                                                     build, key):
        for name in ("evaluate_transfers", "heatmap"):
            monkeypatch.setattr(cli, name, lambda *a, **k: trained.append("evaluate"))
        argv = build(tmp_path)
        rc = main(argv)
        assert rc == 2
        assert key in capsys.readouterr().err
        assert trained == []
        assert not Path(argv[argv.index("--out") + 1]).exists()

    def test_directory_as_config_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "none.json" in capsys.readouterr().err
