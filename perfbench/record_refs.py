"""Record the benchmark's frozen input and output references.

    python3 perfbench/record_refs.py

Run from the root of a checkout.  Writes ``inputs/references.json``:

- ``checkpoint``: sha256 of ``inputs/ha_default_seed0.json``, the
  hardware-aware net trained by ``xbartrain train --hardware-aware`` on the
  default config at seed 0.  It is trained only when the file is missing,
  so that the mc_eval and heatmap inputs stay independent of the training
  code under test.
- ``mc_eval``: per-point correct counts of ``xbartrain evaluate`` for every
  program seed in the input family, at the workload's size.
- ``heatmap``: per-cell class-1 counts over ``HEATMAP_REF_REPETITIONS``
  repetitions.  The grid and net are fixed, so the expected field does not
  depend on the seed.
- ``train_pair``: clean accuracies of both nets at ``TRAIN_REF_SEEDS``, and
  floors ``FLOOR_MARGIN`` below the lowest of them.

Only run this when the workloads themselves change: references recorded at
a later commit would hide the changes that commit made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run

MC_EVAL_SEEDS = 64
HEATMAP_REF_REPETITIONS = 2000
TRAIN_REF_SEEDS = range(8)
FLOOR_MARGIN = 0.05


def cli_main(args: list[str]) -> str:
    from xbartrain import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in args])
    if rc != 0:
        raise RuntimeError(f"xbartrain {' '.join(map(str, args))} exited {rc}")
    return buf.getvalue()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    run.STATE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.STATE))
    try:
        def config(doc: dict) -> Path:
            path = tmp / "config.json"
            path.write_text(json.dumps(doc))
            return path

        if not run.CHECKPOINT.exists():
            cli_main(["train", "--hardware-aware", "--config", config({"seed": 0}), "--out", tmp])
            shutil.copy(tmp / "hardware_aware.json", run.CHECKPOINT)
        refs = {"checkpoint": {"file": run.CHECKPOINT.name,
                               "sha256": hashlib.sha256(run.CHECKPOINT.read_bytes()).hexdigest()}}

        counts = {}
        for seed in range(MC_EVAL_SEEDS):
            doc = {"seed": seed, "transfers": run.MC_TRANSFERS, "threads": 1}
            cli_main(["evaluate", "--config", config(doc), "--checkpoint", run.CHECKPOINT, "--out", tmp])
            counts[str(seed)] = json.loads((tmp / "report.json").read_text())["counts"]
        refs["mc_eval"] = {"transfers": run.MC_TRANSFERS, "counts": counts}
        print(f"mc_eval: {MC_EVAL_SEEDS} seeds recorded")

        doc = {"seed": 0, "heatmap": {"repetitions": HEATMAP_REF_REPETITIONS}, "threads": run.nproc()}
        cli_main(["heatmap", "--config", config(doc), "--checkpoint", run.CHECKPOINT, "--out", tmp])
        lines = (tmp / "heatmap.csv").read_text().splitlines()[1:]
        cells = [round(checks.heatmap_value(line.split(",")[2]) * HEATMAP_REF_REPETITIONS) for line in lines]
        refs["heatmap"] = {"repetitions": HEATMAP_REF_REPETITIONS, "seed": 0, "counts": cells}
        print(f"heatmap: mean class-1 share {np.mean(cells) / HEATMAP_REF_REPETITIONS:.4f}")

        recorded = {"hardware_aware": {"test": [], "holdout": []}, "regular": {"test": [], "holdout": []}}
        holdout = checks.holdout_set()
        for seed in TRAIN_REF_SEEDS:
            for flag, name in (("--hardware-aware", "hardware_aware"), ("--regular", "regular")):
                doc = {"seed": seed, "epochs": run.TRAIN_EPOCHS}
                stdout = cli_main(["train", flag, "--config", config(doc), "--out", tmp])
                printed = {m.group(1): float(m.group(3)) for m in checks.ACCURACY_LINE.finditer(stdout)}
                layers = checks.checkpoint_layers(tmp / f"{name}.json")
                recorded[name]["test"].append(printed[name])
                recorded[name]["holdout"].append(round(checks.holdout_accuracy(layers, *holdout), 4))
        floors = {name: {kind: math.floor((min(vals) - FLOOR_MARGIN) * 100) / 100 for kind, vals in acc.items()}
                  for name, acc in recorded.items()}
        refs["train_pair"] = {"epochs": run.TRAIN_EPOCHS, "seeds": list(TRAIN_REF_SEEDS),
                              "recorded": recorded, "floors": floors}
        print(f"train_pair floors: {floors}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checks.REFERENCES.write_text(json.dumps(refs, separators=(",", ":")) + "\n")
    print(f"wrote {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
