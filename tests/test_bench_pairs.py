"""tools/bench_pairs.py: seed lists, the per-workload summary of pairs, and
pairs of whole ``run`` processes (with the processes stubbed out)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(attempted, failed, **values):
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value} for name, value in values.items()}}


def test_seed_ranges_and_lists():
    assert bench_pairs.parse_seeds("901-903,907") == [901, 902, 903, 907]
    assert bench_pairs.parse_seeds("5") == [5]


@pytest.mark.parametrize("spec, message", [
    ("heatmap", "no seeds"), ("heatmap:x", "no seeds"), ("heatmap:5-3", "no seeds"),
    ("heatmap:", "no seeds"), ("heat_map:1-3", "'heat_map' is not a workload"),
    ("mc_eval:3", "mc_eval was given before"),
])
def test_bad_workload_exits_2_before_any_pair(tmp_path, capsys, monkeypatch, spec, message):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "heatmap"}, {"name": "mc_eval"}],
         "end_to_end": [{"name": "transfers_per_s", "better": "higher"}]}))
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *args, **kwargs: pytest.fail("a pair ran"))
    out = tmp_path / "bench.json"
    # A good spec first, so that the check comes before any pair of it runs.
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                             "--workload", "mc_eval:1-2", "--workload", spec,
                             "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: --workload {spec}: {message}")
    assert not out.exists()


def test_summary_counts_wins_by_direction():
    pairs = [
        {"parent": result(4, 0, wall_s=1.0, transfers_per_s=100.0),
         "change": result(6, 1, wall_s=0.5, transfers_per_s=200.0)},
        {"parent": result(4, 1, wall_s=1.2, transfers_per_s=90.0),
         "change": result(5, 0, wall_s=1.3, transfers_per_s=80.0)},
        {"parent": result(4, 0, wall_s=1.1, transfers_per_s=95.0),
         "change": result(6, 0, wall_s=0.6, transfers_per_s=180.0)},
    ]
    summary = bench_pairs.summarize(pairs, {"wall_s": "lower", "transfers_per_s": "higher"})
    assert summary["operations"] == {"parent": {"attempted": 12, "failed": 1},
                                     "change": {"attempted": 17, "failed": 1}}
    wall = summary["metrics"]["wall_s"]
    assert wall["change_wins"] == "2/3"
    assert wall["parent"] == {"median": 1.1, "q1": pytest.approx(1.05), "q3": pytest.approx(1.15)}
    assert wall["change_over_parent"] == pytest.approx(0.6 / 1.1)
    assert wall["change_runs"] == [0.5, 1.3, 0.6]
    assert summary["metrics"]["transfers_per_s"]["change_wins"] == "2/3"


@pytest.mark.parametrize("parent", ["elsewhere/parent", "parent/nested"])
def test_checkouts_that_are_not_siblings_exit_2(tmp_path, capsys, parent):
    (tmp_path / "change").mkdir()
    out = tmp_path / "bench.json"
    rc = bench_pairs.main(["--parent", str(tmp_path / parent), "--change",
                           str(tmp_path / "change"), "--workload", "train_pair:1",
                           "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    for path in (tmp_path / parent, tmp_path / "change"):
        assert str(path.resolve()) in err
    assert not out.exists()


def fake_runs(monkeypatch, stderr, files):
    """Stub out the ``xbartrain run`` processes: each writes ``files[tree]``
    under its ``--out`` and prints ``stderr[tree]``; returns the call log."""
    calls = []

    def run(cmd, cwd, env, capture_output, text):
        out = Path(cmd[cmd.index("--out") + 1])
        tree = Path(cwd).name
        calls.append((tree, env["PYTHONPATH"], out.parent))
        (out / "sub").mkdir(parents=True)
        for name, data in files[tree].items():
            (out / name).write_bytes(data)
        return subprocess.CompletedProcess(cmd, 0, "", stderr[tree])

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return calls


def test_run_pairs_alternate_and_summarize_wall_time_and_rss(tmp_path, monkeypatch):
    stderr = {"parent": "regular heatmap: 0.16 s, 6373 repetitions/s\n"
                        "peak rss: parent 70.0 MB, children 40.0 MB\n",
              "change": "peak rss: parent 51.8 MB, children 36.4 MB\n"}
    files = {"parent": {"report.json": b"1", "sub/heatmap.csv": b"2"},
             "change": {"report.json": b"1", "sub/heatmap.csv": b"2"}}
    calls = fake_runs(monkeypatch, stderr, files)
    trees = {side: tmp_path / side for side in ("parent", "change")}
    summary = bench_pairs.run_pairs(trees, tmp_path / "config.json")
    assert [tree for tree, _, _ in calls] == ["parent", "change", "change", "parent"] * 5
    assert all(path == str(trees[tree] / "src") for tree, path, _ in calls)
    assert all(tmp_path not in out.parents for _, _, out in calls)  # outside both trees
    assert summary["operations"] == {"parent": {"attempted": 10, "failed": 0},
                                     "change": {"attempted": 10, "failed": 0}}
    assert summary["identical_trees"] == "10/10"
    assert set(summary["metrics"]) == {"wall_s", "parent_rss_mb", "children_rss_mb"}
    assert summary["metrics"]["parent_rss_mb"]["parent_runs"] == [70.0] * 10
    assert summary["metrics"]["parent_rss_mb"]["change_wins"] == "10/10"
    assert summary["metrics"]["children_rss_mb"]["change"]["median"] == 36.4


def test_run_pairs_leave_out_a_figure_one_side_lacks_and_count_differing_trees(
        tmp_path, monkeypatch):
    stderr = {"parent": "peak rss: parent 70.0 MB\n",
              "change": "peak rss: parent 51.8 MB, children 36.4 MB\n"}
    files = {"parent": {"report.json": b"1"}, "change": {"report.json": b"2"}}
    fake_runs(monkeypatch, stderr, files)
    trees = {side: tmp_path / side for side in ("parent", "change")}
    summary = bench_pairs.run_pairs(trees, tmp_path / "config.json")
    assert set(summary["metrics"]) == {"wall_s", "parent_rss_mb"}
    assert summary["identical_trees"] == "0/10"


def test_run_pairs_where_no_side_forked_give_no_children_ratio(tmp_path, monkeypatch):
    # At one CPU, run forks no helper and both sides print children 0.0 MB.
    stderr = {side: "peak rss: parent 50.0 MB, children 0.0 MB\n" for side in ("parent", "change")}
    fake_runs(monkeypatch, stderr, {"parent": {"a": b"1"}, "change": {"a": b"1"}})
    trees = {side: tmp_path / side for side in ("parent", "change")}
    metrics = bench_pairs.run_pairs(trees, tmp_path / "config.json")["metrics"]
    assert metrics["children_rss_mb"]["change_over_parent"] is None
    assert metrics["children_rss_mb"]["change_wins"] == "0/10"
    assert metrics["parent_rss_mb"]["change_over_parent"] == 1.0


def test_a_failed_run_stops_the_set(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 2, "", "error: --out: exists\n"))
    with pytest.raises(SystemExit, match="exit 2: error: --out: exists"):
        bench_pairs.run_process(tmp_path, tmp_path / "config.json", tmp_path / "out")


def test_run_mode_writes_the_config_not_its_path(tmp_path, monkeypatch):
    stderr = {side: "peak rss: parent 50.0 MB, children 30.0 MB\n" for side in ("parent", "change")}
    fake_runs(monkeypatch, stderr, {"parent": {"a": b"1"}, "change": {"a": b"1"}})
    config, out = tmp_path / "config.json", tmp_path / "bench.json"
    config.write_text('{"epochs": 3}')
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--run", str(config),
                             "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"] == {"epochs": 3}
    assert doc["pairs"] == 10
    assert "--threads 2 " in doc["command"]
    assert str(tmp_path) not in json.dumps({k: v for k, v in doc.items() if k != "workloads"})
    assert doc["workloads"]["run"]["identical_trees"] == "10/10"


def test_workload_runs_last_the_benchmarks_run_seconds(tmp_path, monkeypatch):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "mc_eval"}],
         "end_to_end": [{"name": "transfers_per_s", "better": "higher"}]}))
    line = json.dumps(result(3, 0, transfers_per_s=50.0))
    calls = []

    def run(cmd, cwd, capture_output, text):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(change),
                             "--workload", "mc_eval:1", "--out", str(out)]) == 0
    assert "--seconds 7 " in json.loads(out.read_text())["command"]
    assert [cmd[cmd.index("--seconds") + 1] for cmd in calls] == ["7", "7"]


@pytest.mark.parametrize("parent, change, expected", [
    ([1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "within_bound"),
    ([1.0, 1.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5], "beyond_bound"),
    ([0.5, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0], "unresolved"),
    # A parent spread beyond the bound, but every change run beats every parent run.
    ([0.5, 1.0, 1.0, 2.0], [0.4, 0.4, 0.4, 0.4], "within_bound"),
])
def test_workload_metrics_get_a_verdict_at_their_bound(tmp_path, monkeypatch, capsys,
                                                       parent, change, expected):
    change_tree = tmp_path / "change"
    change_tree.mkdir()
    (change_tree / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 7, "workloads": [{"name": "mc_eval"}],
         "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                        {"name": "transfers_per_s", "better": "higher", "bound": 0.25}]}))
    # transfers_per_s is the reciprocal of wall_s, so it gets the same verdict.
    walls = {"parent": parent, "change": change}

    def run(cmd, cwd, capture_output, text):
        wall = walls[Path(cwd).name][int(cmd[cmd.index("--seed") + 1]) - 1]
        line = json.dumps(result(3, 0, wall_s=wall, transfers_per_s=1 / wall))
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(change_tree),
                             "--workload", "mc_eval:1-4", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["workloads"]["mc_eval"]["metrics"]
    assert {name: m["verdict"] for name, m in metrics.items()} == {
        "wall_s": expected, "transfers_per_s": expected}
    assert capsys.readouterr().err.endswith(
        f"mc_eval: wall_s {expected}, transfers_per_s {expected}\n")


def test_run_pairs_have_no_verdict(tmp_path, monkeypatch):
    stderr = {side: "peak rss: parent 50.0 MB, children 30.0 MB\n" for side in ("parent", "change")}
    fake_runs(monkeypatch, stderr, {"parent": {"a": b"1"}, "change": {"a": b"1"}})
    trees = {side: tmp_path / side for side in ("parent", "change")}
    metrics = bench_pairs.run_pairs(trees, tmp_path / "config.json")["metrics"]
    assert not any("verdict" in m for m in metrics.values())
