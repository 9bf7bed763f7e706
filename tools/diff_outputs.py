#!/usr/bin/env python3
"""Compare the CLI outputs of two checkouts byte for byte.

    python3 tools/diff_outputs.py --parent PATH [--change PATH] --work DIR

Runs a fixed set of ``xbartrain`` commands in each checkout (by default the
change is the one holding this script), each side writing under
``DIR/parent`` or ``DIR/change``, then compares every file the commands
wrote.  Exits 0 when both sides wrote the same files with the same bytes,
1 after listing each differing or missing file, and 2 when a command fails
or a side's directory already exists.  Nothing is written inside either
checkout.

The set:

- ``gen-synthetic-model`` at seed 0, and ``fit-model`` on small
  characterization CSVs that the script writes the same way on both sides
  (tuning groups of 3, 8 and 20 reads, so that each branch of the
  Shapiro-Wilk p-value runs, and of 2 reads, which get no p-value and so
  must be skipped by ``fit-model``'s count of groups below p = 0.05;
  disturbance records with one beyond the cap; stuck records of both
  kinds);
- ``train --hardware-aware`` and ``train --regular`` at 300 epochs;
- ``evaluate`` of ``perfbench/inputs/ha_default_seed0.json`` with seed 7
  and 5000 transfers;
- ``heatmap`` of the same checkpoint, 301 repetitions on 2 threads, and
  again on 1 thread, which counts every job in the command's own process;
- ``heatmap`` of the regular net that the side's own ``train --regular``
  wrote, on the default grid with the same repetitions and threads, so
  that a second decision boundary is compared on a full grid;
- ``run`` on the config of acceptance criterion 9 (determinism), once on
  1 thread and once on 2, where its hardware-aware training, evaluations
  and heatmaps each use a second process.

Each command's standard output is kept too, as ``stdout/NN.txt`` with the
side's output directory written as ``OUT``, since ``fit-model`` reports
its Shapiro-Wilk results only there.  That is 10 commands writing 40
files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = Path("perfbench/inputs/ha_default_seed0.json")
CONFIGS = {
    "train": {"epochs": 300},
    "default": {},
    "criterion_9": {
        "seed": 13,
        "epochs": 40,
        "batch_size": 64,
        "dataset": {"n_train": 150, "n_test": 50, "noise_std": 0.1},
        "transfers": 50,
        "heatmap": {"nx": 10, "ny": 10, "repetitions": 20},
    },
}


def write_raw_csvs(directory: Path) -> None:
    """The characterization CSVs that ``fit-model`` reads, from a fixed
    seed: tuning.csv, bias.csv and stuck.csv in ``directory``."""
    import numpy as np

    rng = np.random.default_rng(0)
    lines = ["device_id,g_target_uS,read_uS"]
    for device, reads in (("d0", 3), ("d1", 8), ("d2", 20), ("d3", 2)):
        for target in (125.0, 250.0, 375.0):
            lines += [f"{device},{target},{r!r}"
                      for r in rng.normal(target * 0.995, target * 0.01, size=reads).tolist()]
    (directory / "tuning.csv").write_text("\n".join(lines) + "\n")
    lines = ["n_d,delta_g_uS"]
    for n_d in range(1, 11):
        lines += [f"{n_d},{d!r}" for d in rng.normal(-0.3 * n_d, 1.0, size=30).tolist()]
    lines.append("3,75.0")  # beyond the disturbance cap, so fit-model drops it
    (directory / "bias.csv").write_text("\n".join(lines) + "\n")
    lines = ["kind,g_uS"]
    lines += [f"HRS,{g!r}" for g in rng.uniform(15, 95, size=20).tolist()]
    lines += [f"LRS,{g!r}" for g in rng.uniform(450, 1100, size=20).tolist()]
    (directory / "stuck.csv").write_text("\n".join(lines) + "\n")


def commands(tree: Path, configs: Path, out: Path) -> list[list[str]]:
    """The CLI set, as argument lists of ``xbartrain``, writing under ``out``;
    ``configs`` holds the configs of :data:`CONFIGS` and the CSVs of
    :func:`write_raw_csvs`."""
    default = ["--config", str(configs / "default.json")]
    checkpoint = ["--checkpoint", str(tree / CHECKPOINT), *default]
    regular = ["--checkpoint", str(out / "train" / "regular.json"), *default]
    train = ["--config", str(configs / "train.json"), "--out", str(out / "train")]
    heat = ["--transfers", "301", "--threads", "2"]
    raw = [f"--{name}={configs / name}.csv" for name in ("tuning", "bias", "stuck")]
    return [
        ["gen-synthetic-model", "--seed", "0", "--out", str(out / "synthetic_model.json")],
        ["fit-model", *raw, "--out", str(out / "fitted_model.json")],
        ["train", "--hardware-aware", *train],
        ["train", "--regular", *train],
        ["evaluate", *checkpoint, "--seed", "7", "--transfers", "5000", "--out", str(out / "evaluate")],
        ["heatmap", *checkpoint, *heat, "--out", str(out / "heatmap")],
        ["heatmap", *checkpoint, "--transfers", "301", "--threads", "1",
         "--out", str(out / "heatmap_threads_1")],
        ["heatmap", *regular, *heat, "--out", str(out / "heatmap_regular")],
        *(["run", "--config", str(configs / "criterion_9.json"), "--threads", threads,
           "--out", str(out / f"run_threads_{threads}")] for threads in ("1", "2")),
    ]


def run_side(tree: Path, side_dir: Path) -> Path:
    """Run the set in ``tree``; returns the directory of its outputs."""
    configs, out = side_dir / "configs", side_dir / "out"
    configs.mkdir(parents=True)
    for name, doc in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(doc))
    write_raw_csvs(configs)
    (out / "stdout").mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for k, args in enumerate(commands(tree, configs, out)):
        proc = subprocess.run([sys.executable, "-m", "xbartrain.cli", *args],
                              cwd=side_dir, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{tree}: xbartrain {' '.join(args[:2])} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-400:]}")
        (out / "stdout" / f"{k:02d}.txt").write_text(proc.stdout.replace(str(out), "OUT"))
    return out


def compare_trees(parent: Path, change: Path) -> list[str]:
    """One line per file that differs between the two directories or is
    missing from one of them, named by its path relative to them."""
    files = {side: {p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    problems = []
    for rel in sorted(files["parent"] | files["change"]):
        missing = [side for side in files if rel not in files[side]]
        if missing:
            problems.append(f"missing in {missing[0]}: {rel}")
        elif (parent / rel).read_bytes() != (change / rel).read_bytes():
            problems.append(f"differs: {rel}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT, help="change checkout")
    parser.add_argument("--work", type=Path, required=True, help="directory for the outputs")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side in trees:
        if (args.work / side).exists():
            print(f"error: {args.work / side} already exists", file=sys.stderr)
            return 2
    outs = {side: run_side(tree, args.work.resolve() / side) for side, tree in trees.items()}
    problems = compare_trees(outs["parent"], outs["change"])
    for line in problems:
        print(line)
    count = sum(1 for p in outs["change"].rglob("*") if p.is_file())
    print(f"{len(problems)} differing or missing of {count} files", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
