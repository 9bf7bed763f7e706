"""tools/bench_pairs.py: seed lists and the per-workload summary of pairs."""

import importlib.util
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
