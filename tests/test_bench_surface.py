"""The package surface that the benchmark in ``perfbench/`` relies on.

``perfbench/child.py`` wraps the workload entry points where
``xbartrain.cli`` binds them and marks the end of set-up at their first
call; ``perfbench/layers.py`` times the other names directly.  A cleanup
that renames or bypasses one of them breaks the benchmark, and fails here.
"""

import functools
import json
import re
from pathlib import Path

import pytest

from xbartrain import cli, datasets, experiments, nn, training, transfer, variability

from test_cli import TINY_CONFIG

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

NAMES = {
    cli: ["evaluate_transfers", "heatmap", "train_hardware_aware", "train_regular",
          "load_experiment_config", "main"],
    experiments: ["experiment_dataset", "evaluate_transfers", "heatmap", "write_heatmap_csv",
                  "robustness_table", "robustness_curve", "ExperimentConfig.resolve_model",
                  "GridSpec.points"],
    transfer: ["simulate_transfer", "perturb_conductance", "to_conductance", "split_signed",
               "layer_to_crossbar", "layouts_for_architecture", "WeightRangeSnapshot.of_matrix"],
    training: ["sample_epsilon", "train_hardware_aware", "train_regular"],
    variability: ["make_synthetic_model", "BiasDisturbanceDb.sample_matrix",
                  "StuckModel.sample_hrs", "StuckModel.sample_lrs"],
    datasets: ["make_half_moons"],
    nn: ["forward", "backward", "adam_step", "predict", "load_checkpoint", "AdamState.for_net",
         "DenseNet.copy"],
}


@pytest.mark.parametrize("module", list(NAMES), ids=lambda m: m.__name__)
def test_benchmarked_names_exist(module):
    for dotted in NAMES[module]:
        obj = module
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{module.__name__}.{dotted}"


def test_benchmarked_names_are_used_by_the_benchmark():
    # Once the benchmark stops calling a name, its pin above has outlived
    # its use, and the name may be code that only tests still call.
    source = "".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    for module, names in NAMES.items():
        for dotted in names:
            name = dotted.rsplit(".", 1)[-1]
            assert re.search(rf"\b{name}\b", source), f"{module.__name__}.{dotted}"


def test_commands_call_through_cli_bindings(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    called = []

    def record(name):
        fn = getattr(cli, name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)

    for name in ("evaluate_transfers", "heatmap", "train_hardware_aware", "train_regular"):
        record(name)
    out = tmp_path / "out"
    common = ["--config", str(config), "--out", str(out)]
    assert cli.main(["train", "--hardware-aware", *common]) == 0
    assert cli.main(["train", "--regular", *common]) == 0
    checkpoint = ["--checkpoint", str(out / "hardware_aware.json"), "--threads", "1"]
    assert cli.main(["evaluate", *checkpoint, "--config", str(config), "--out", str(out / "e")]) == 0
    assert cli.main(["heatmap", *checkpoint, "--config", str(config), "--out", str(out / "h")]) == 0
    assert called == ["train_hardware_aware", "train_regular", "evaluate_transfers", "heatmap"]
    called.clear()
    assert cli.main(["run", *common, "--threads", "1"]) == 0
    assert called == ["train_hardware_aware", "train_regular", "evaluate_transfers", "heatmap",
                      "evaluate_transfers", "heatmap"]
