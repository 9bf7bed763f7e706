#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent PATH --workload heatmap:901-910
        [--workload mc_eval:911,912] [--seconds 20] [--change PATH]
        [--note TEXT] --out BENCH_N.json

For each workload and each of its seeds, one pair runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`` in
the parent checkout and in the change checkout (by default the one holding
this script).  Pair i runs the parent first when i is even and the change
first when i is odd, so that drift on the machine falls on both sides.

The output JSON holds the seeds, the order, per workload the operations
attempted and failed on each side, and per end-to-end metric of
BENCHMARK.json each side's median, quartiles and runs, the ratio of the
medians and the pairs the change won; plus the environment that the first
run reported.  Nothing under ``perfbench/`` is written except its own
results directory in each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "pair i of a workload's seed list: parent first when i is even, change first when i is odd"


def parse_seeds(text: str) -> list[int]:
    """``901-905`` or ``901,903,907`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
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


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Operations and per-metric statistics of one workload's pairs, each
    ``{"parent": result, "change": result}`` with ``result`` a run's
    result line."""
    sides = ("parent", "change")
    summary = {"operations": {side: {key: sum(p[side][key] for p in pairs)
                                     for key in ("attempted", "failed")} for side in sides},
               "metrics": {}}
    for name, direction in better.items():
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in sides}
        stats = {}
        for side in sides:
            q1, median, q3 = (statistics.quantiles(runs[side], n=4, method="inclusive")
                              if len(runs[side]) > 1 else runs[side] * 3)
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(runs["parent"], runs["change"]))
        summary["metrics"][name] = {
            **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "change_wins": f"{wins}/{len(pairs)}",
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME:SEEDS, e.g. heatmap:901-910; repeatable")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--note", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = {}
    for spec in args.workload:
        name, _, text = spec.partition(":")
        seeds[name] = parse_seeds(text)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"command": f"python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace 0",
           "seeds": seeds, "order": ORDER, "workloads": {}, "environment": None}
    for workload, workload_seeds in seeds.items():
        pairs = []
        for i, seed in enumerate(workload_seeds):
            pair = {}
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                pair[side], env = run_once(trees[side], workload, seed, args.seconds)
                doc["environment"] = doc["environment"] or env
            pairs.append(pair)
            rate = {side: pair[side]["metrics"]["transfers_per_s"]["value"] for side in pair}
            print(f"{workload} seed {seed}: transfers_per_s parent {rate['parent']:.1f}, "
                  f"change {rate['change']:.1f}", file=sys.stderr)
        doc["workloads"][workload] = summarize(pairs, better)
    if args.note:
        doc["note"] = args.note
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
