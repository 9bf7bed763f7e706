"""Tests of the benchmark itself: tiny workloads pass, corrupted outputs fail.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


def tiny_config(workload: str, tmp_path: Path, references: dict) -> Path:
    doc = run.workload_config(workload, SEED, references)
    if workload == "mc_eval":
        doc["transfers"] = 40
    elif workload == "heatmap":
        doc["heatmap"]["repetitions"] = 4
    else:
        doc["epochs"] = 5
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def operation(workload, tmp_path, references):
    config = tiny_config(workload, tmp_path, references)
    return run.run_operation(workload, tmp_path, 0, config, references)


def corrupting(monkeypatch, corrupt):
    """Make every CLI call of an operation pass its output directory to ``corrupt``."""
    real = run.cli_call

    def call(work, tag, workload, cli_args, spans=False):
        result = real(work, tag, workload, cli_args, spans)
        corrupt(Path(cli_args[cli_args.index("--out") + 1]))
        return result

    monkeypatch.setattr(run, "cli_call", call)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload, tmp_path, references):
    op = operation(workload, tmp_path, references)
    assert op["problems"] == []
    assert op["failed"] == 0 and op["attempted"] == (2 if workload == "train_pair" else 1)
    assert op["wall_s"] > 0 and op["transfers_per_s"] > 0
    assert all(c["setup_s"] > 0 for c in op["calls"])


def _rewrite_report(out: Path, edit):
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit(report)
    report["fractions"] = [c / report["transfers"] for c in report["counts"]]
    path.write_text(json.dumps(report))


def _lose_robust_points(report):
    # Twenty points that every transfer got right now fail half the time.
    n = report["transfers"]
    hit = [i for i, c in enumerate(report["counts"]) if c == n][:20]
    for i in hit:
        report["counts"][i] = n // 2


def _drop_last_line(path: Path):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


@pytest.mark.parametrize("corrupt", [
    lambda out: _rewrite_report(out, _lose_robust_points),
    lambda out: _drop_last_line(out / "table.csv"),
    lambda out: _rewrite_report(out, lambda r: r["counts"].__setitem__(0, r["transfers"] + 1)),
    lambda out: (out / "report.json").write_text("[1, 2]"),
], ids=["counts-shifted", "table-truncated", "count-out-of-range", "report-not-an-object"])
def test_corrupted_evaluate_output_fails(corrupt, monkeypatch, tmp_path, references):
    corrupting(monkeypatch, corrupt)
    op = operation("mc_eval", tmp_path, references)
    assert op["failed"] == 1, op["problems"]


def _edit_heatmap_rows(out: Path, edit):
    path = out / "heatmap.csv"
    lines = path.read_text().splitlines()
    rows = [[checks.heatmap_value(v) for v in line.split(",")] for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join(lines[:1] + [",".join(repr(v) for v in row) for row in rows]) + "\n")


def _mirror_class(rows):
    # Swap the classes in the lower tenth of the grid; std is unchanged.
    for row in rows[: len(rows) // 10]:
        row[2] = 1.0 - row[2]
        row[3] = math.sqrt(row[2] * (1.0 - row[2]))


@pytest.mark.parametrize("corrupt", [
    lambda out: _edit_heatmap_rows(out, _mirror_class),
    lambda out: _edit_heatmap_rows(out, lambda rows: rows[7].__setitem__(3, rows[7][3] + 1e-9)),
    lambda out: _drop_last_line(out / "heatmap.csv"),
], ids=["classes-mirrored", "std-identity-broken", "row-missing"])
def test_corrupted_heatmap_output_fails(corrupt, monkeypatch, tmp_path, references):
    corrupting(monkeypatch, corrupt)
    op = operation("heatmap", tmp_path, references)
    assert op["failed"] == 1, op["problems"]


def test_heatmap_reads_plain_and_numpy_scalar_floats():
    assert checks.heatmap_value("np.float64(0.95)") == checks.heatmap_value("0.95") == 0.95


def _poison_checkpoint(out: Path):
    for path in out.glob("*.json"):
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"][0] = float("nan")
        path.write_text(json.dumps(doc))


def test_corrupted_checkpoints_fail(monkeypatch, tmp_path, references):
    corrupting(monkeypatch, _poison_checkpoint)
    op = operation("train_pair", tmp_path, references)
    assert op["failed"] == 2, op["problems"]


def test_untrained_net_falls_below_the_accuracy_floor(tmp_path, references):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(run.CHECKPOINT, out / "hardware_aware.json")
    doc = json.loads((out / "hardware_aware.json").read_text())
    for layer in doc["layers"]:
        layer["weights"] = [0.0] * len(layer["weights"])
    (out / "hardware_aware.json").write_text(json.dumps(doc))
    stdout = "hardware_aware: train accuracy 0.5000, test accuracy 0.5000\n"
    floors = references["train_pair"]["floors"]["hardware_aware"]
    problems = checks.check_train(out, "hardware_aware", stdout, floors)
    assert len(problems) == 2  # printed and holdout accuracy
    shutil.copy(run.CHECKPOINT, out / "hardware_aware.json")
    good = "hardware_aware: train accuracy 0.9017, test accuracy 0.8750\n"
    assert checks.check_train(out, "hardware_aware", good, floors) == []


def test_frozen_checkpoint_matches_its_recorded_sha256(references):
    run.verify_inputs(references)


def test_call_counts_repeat_across_processes(tmp_path, references):
    config = tiny_config("mc_eval", tmp_path, references)
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
              "s = layers.Setting.load(sys.argv[2], sys.argv[3]); print(json.dumps(layers.counts(s)))")
    outputs = [
        subprocess.run([sys.executable, "-c", script, str(BENCH), str(config), str(run.CHECKPOINT)],
                       capture_output=True, text=True, check=True, timeout=120).stdout
        for _ in range(2)
    ]
    first = json.loads(outputs[0])
    assert json.loads(outputs[1]) == first
    assert set(first) == {"training.sample_epsilon.calls", "training.ha_step.calls", "training.regular_step.calls",
                          "experiments.evaluate_transfers.calls_per_transfer", "experiments.heatmap.calls_per_rep"}


def test_without_sources_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_eval", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric_of_benchmark_json(trace):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_eval", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)], cwd=BENCH.parent, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
