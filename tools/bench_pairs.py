#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent PATH --workload heatmap:901-910
        [--workload mc_eval:911,912] [--change PATH]
        [--note TEXT] --out BENCH_N.json
    python3 tools/bench_pairs.py --parent PATH --run CONFIG [--change PATH]
        [--note TEXT] --out BENCH_N.json

For each workload and each of its seeds, one pair runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` in
the parent checkout and in the change checkout (by default the one holding
this script), ``S`` being the ``run_seconds`` of the change's
BENCHMARK.json.  With ``--run``, each of 10 pairs instead times one whole
``python3 -m xbartrain.cli run --config CONFIG --threads 2`` process from
each checkout's ``src``, writing to a temporary directory outside both
checkouts, and reads the peak RSS of the process and of its children from
the last line of its stderr (``peak rss: parent X MB, children Y MB``; a
checkout that prints no children figure has none in the summary).  Pair i
runs the parent first when i is even and the change first when i is odd,
so that drift on the machine falls on both sides.

The two checkouts must be siblings: directories with the same parent.
Where a checkout sits moves train_pair by up to 15% on identical code (two
unrelated checkouts read an 11-14% gap that shrank to 2-6% once the change
tree was copied beside the parent), so any other pair exits with status 2
before running anything.  So does a ``--workload`` whose seeds do not
parse or are none, or whose name is not a workload of BENCHMARK.json or
was given before.

The output JSON holds the seeds, the order, per workload the operations
attempted and failed on each side, and per end-to-end metric of
BENCHMARK.json each side's median, quartiles and runs, the ratio of the
medians (null where the parent's median is 0), the pairs the change won,
and the ``verdict`` of the no-regression rule at the metric's ``bound``
(:func:`verdict`); plus the environment that the first run reported.  A
``--run`` set holds the config and the workload ``run``, whose metrics are
``wall_s``, ``parent_rss_mb`` and ``children_rss_mb``, and how many pairs
wrote byte-identical artifact trees; it has no bounds, so no verdicts.
Nothing under ``perfbench/`` is written except its own results directory
in each checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "pair i of a workload: parent first when i is even, change first when i is odd"
# The metrics of a --run pair, all better lower.
RUN_METRICS = {"wall_s": "lower", "parent_rss_mb": "lower", "children_rss_mb": "lower"}
RUN_PAIRS, RUN_THREADS = 10, 2
RSS = re.compile(r"peak rss: parent (\d+\.\d+) MB(?:, children (\d+\.\d+) MB)?")


def sides(i: int) -> tuple[str, str]:
    """The order of pair ``i`` (:data:`ORDER`)."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def parse_seeds(text: str) -> list[int]:
    """``901-905`` or ``901,903,907`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def workload_seeds(specs: list[str], bench: dict) -> dict[str, list[int]]:
    """The seeds of each ``NAME:SEEDS`` spec; ``ValueError`` naming the
    spec when its seeds do not parse or are none, or NAME is not a
    workload of ``bench`` (BENCHMARK.json) or was given before."""
    names, seeds = {w["name"] for w in bench["workloads"]}, {}
    for spec in specs:
        name, _, text = spec.partition(":")
        if name in seeds:
            raise ValueError(f"--workload {spec}: {name} was given before; list its seeds once")
        try:
            seeds[name] = parse_seeds(text)
        except ValueError:
            raise ValueError(f"--workload {spec}: no seeds; give NAME:SEEDS, "
                             f"e.g. heatmap:901-910") from None
        if name not in names:
            raise ValueError(f"--workload {spec}: {name!r} is not a workload of BENCHMARK.json "
                             f"({', '.join(sorted(names))})")
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result line and the environment line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {workload} seed {seed}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    env = next((json.loads(line.split(": ", 1)[1]) for line in lines
                if line.startswith("environment: ")), {})
    return json.loads(lines[-1]), env


def run_process(tree: Path, config: Path, out: Path) -> dict:
    """One whole ``xbartrain run`` of ``tree``, as a benchmark result line:
    its wall time, and the peak RSS figures of its last stderr line."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "xbartrain.cli", "run", "--config", str(config), "--out",
         str(out), "--threads", str(RUN_THREADS)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")}, capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stderr.strip().splitlines()
    match = RSS.fullmatch(lines[-1]) if proc.returncode == 0 and lines else None
    if match is None:
        raise SystemExit(f"{tree}: run --config {config}: exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    values = {"wall_s": wall, "parent_rss_mb": float(match[1])}
    if match[2] is not None:
        values["children_rss_mb"] = float(match[2])
    return {"attempted": 1, "failed": 0,
            "metrics": {name: {"value": value} for name, value in values.items()}}


def tree_bytes(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def run_pairs(trees: dict, config: Path) -> dict:
    """The summary of :data:`RUN_PAIRS` alternating pairs of whole ``run``
    processes, with the number of pairs whose two artifact trees are
    byte-identical."""
    pairs, identical = [], 0
    for i in range(RUN_PAIRS):
        pair = {}
        with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
            for side in sides(i):
                pair[side] = run_process(trees[side], config, Path(tmp, side))
            identical += tree_bytes(Path(tmp, "parent")) == tree_bytes(Path(tmp, "change"))
        pairs.append(pair)
        wall = {side: pair[side]["metrics"]["wall_s"]["value"] for side in pair}
        print(f"run pair {i}: wall_s parent {wall['parent']:.2f}, change {wall['change']:.2f}",
              file=sys.stderr)
    # A metric only one side prints (a parent without the children figure) is left out.
    better = {name: direction for name, direction in RUN_METRICS.items()
              if all(name in p[side]["metrics"] for p in pairs for side in p)}
    return {**summarize(pairs, better), "identical_trees": f"{identical}/{RUN_PAIRS}"}


def quartiles(runs: list[float]) -> list[float]:
    """The first quartile, median and third quartile of ``runs``."""
    return statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """The no-regression rule on one metric's runs, ``direction`` being the
    better one: ``unresolved`` where the parent's interquartile spread
    exceeds ``bound`` times its median, unless every change run beats every
    parent run; else ``beyond_bound`` where the change's median is worse
    than the parent's by more than ``bound`` times it; else ``within_bound``."""
    sign = 1 if direction == "lower" else -1
    q1, median, q3 = quartiles(parent)
    beats_every_run = max(sign * c for c in change) < min(sign * p for p in parent)
    if q3 - q1 > bound * abs(median) and not beats_every_run:
        return "unresolved"
    if sign * (quartiles(change)[1] - median) > bound * abs(median):
        return "beyond_bound"
    return "within_bound"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None
              ) -> dict:
    """Operations and per-metric statistics of one workload's pairs, each
    ``{"parent": result, "change": result}`` with ``result`` a run's
    result line; a metric with a ``bounds`` entry gets its :func:`verdict`."""
    sides = ("parent", "change")
    summary = {"operations": {side: {key: sum(p[side][key] for p in pairs)
                                     for key in ("attempted", "failed")} for side in sides},
               "metrics": {}}
    for name, direction in better.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in sides}
        stats = {}
        for side in sides:
            q1, median, q3 = quartiles(runs[side])
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(runs["parent"], runs["change"]))
        summary["metrics"][name] = {
            **stats,
            "change_over_parent": (stats["change"]["median"] / stats["parent"]["median"]
                                   if stats["parent"]["median"] else None),
            "change_wins": f"{wins}/{len(pairs)}",
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
        if bounds and name in bounds:
            summary["metrics"][name]["verdict"] = verdict(runs["parent"], runs["change"],
                                                          direction, bounds[name])
    return summary


def bench_workloads(trees: dict, seeds: dict[str, list[int]], bench: dict) -> dict:
    """The document of alternating perfbench pairs over each workload's
    ``seeds``, each run as long as ``bench`` (BENCHMARK.json) sets."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    seconds = bench["run_seconds"]
    doc = {"command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {seconds:g} --trace 0",
           "seeds": seeds, "order": ORDER, "workloads": {}, "environment": None}
    for workload, workload_seeds in seeds.items():
        pairs = []
        for i, seed in enumerate(workload_seeds):
            pair = {}
            for side in sides(i):
                pair[side], env = run_once(trees[side], workload, seed, seconds)
                doc["environment"] = doc["environment"] or env
            pairs.append(pair)
            rate = {side: pair[side]["metrics"]["transfers_per_s"]["value"] for side in pair}
            print(f"{workload} seed {seed}: transfers_per_s parent {rate['parent']:.1f}, "
                  f"change {rate['change']:.1f}", file=sys.stderr)
        summary = doc["workloads"][workload] = summarize(pairs, better, bounds)
        print(f"{workload}: " + ", ".join(f"{name} {m['verdict']}" for name, m
                                          in summary["metrics"].items() if "verdict" in m),
              file=sys.stderr)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", action="append",
                      help="NAME:SEEDS, e.g. heatmap:901-910; repeatable")
    mode.add_argument("--run", type=Path, metavar="CONFIG",
                      help="time whole xbartrain run processes on this config")
    parser.add_argument("--note", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if trees["parent"].parent != trees["change"].parent:
        print(f"error: --parent {trees['parent']} and --change {trees['change']} are not "
              f"sibling checkouts; clone both into one directory", file=sys.stderr)
        return 2

    if args.run:
        config = args.run.resolve()
        doc = {"command": f"python3 -m xbartrain.cli run --config CONFIG --threads "
                          f"{RUN_THREADS} --out TMP",
               "config": json.loads(config.read_text()), "pairs": RUN_PAIRS, "order": ORDER,
               "workloads": {"run": run_pairs(trees, config)}}
    else:
        bench = json.loads((args.change / "BENCHMARK.json").read_text())
        try:
            seeds = workload_seeds(args.workload, bench)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        doc = bench_workloads(trees, seeds, bench)
    if args.note:
        doc["note"] = args.note
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
