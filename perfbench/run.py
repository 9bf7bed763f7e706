"""Benchmark of the ``xbartrain`` CLI: three workloads and a traced run.

    python3 perfbench/run.py --workload {mc_eval,heatmap,train_pair} --seed N
                             --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Each operation is one CLI subprocess (two
for ``train_pair``), started through ``child.py`` so that the end of its
set-up is known.  Operations repeat until ``--seconds`` have passed and
every metric is the median over them.  Outputs are checked against the
references in ``inputs/`` (see ``checks.py``); an operation fails on a
non-zero exit or a failed check.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced operations alternate (the traced child records a span
around every public call into the package), then ``layers.py`` times the
per-layer calls; the metrics are the per-layer ones plus the tracing
overhead.  The last line of stdout is the result as one JSON object; the
environment, every sample and the layer self times go to
``.perfbench/results/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
CHECKPOINT = checks.INPUTS / "ha_default_seed0.json"

WORKLOADS = ("mc_eval", "heatmap", "train_pair")
# Sizes of one operation.  The CLI defaults (10 000 transfers, 1000 heatmap
# repetitions, 4000 epochs) take 5-13 s per call, too few calls per run for
# a steady median; the per-transfer, per-repetition and per-step work is the
# same at these sizes.
MC_TRANSFERS = 2000
HEATMAP_REPETITIONS = 100
TRAIN_EPOCHS = 500
STEPS_PER_EPOCH = 4  # ceil(875 / 256) with the default dataset and batch size
MIN_OPERATIONS = 3
# A call takes a few seconds; these keep a hung or slow run under 180 s.
CALL_TIMEOUT_S = 60
STOP_AFTER_S = 90
BOUNDARIES = {
    "mc_eval": ["evaluate_transfers"],
    "heatmap": ["heatmap"],
    "train_pair": ["train_hardware_aware", "train_regular"],
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def mc_eval_seed(seed: int, references: dict) -> int:
    """The program seed of an mc_eval input.  The test set is drawn from the
    seed, so inputs come from the family of seeds with recorded references."""
    return seed % len(references["mc_eval"]["counts"])


def workload_config(workload: str, seed: int, references: dict) -> dict:
    if workload == "mc_eval":
        return {"seed": mc_eval_seed(seed, references), "transfers": MC_TRANSFERS, "threads": 1}
    if workload == "heatmap":
        return {"seed": seed, "heatmap": {"repetitions": HEATMAP_REPETITIONS}, "threads": nproc()}
    return {"seed": seed, "epochs": TRAIN_EPOCHS}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        vendor = None
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# One CLI call
# ---------------------------------------------------------------------------


def cli_call(work: Path, tag: str, workload: str, cli_args: list[str], spans: bool = False) -> dict:
    """Run one CLI call in a child process; returns its timings or an error."""
    marks_path = work / f"{tag}.marks.json"
    spans_path = work / f"{tag}.spans.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--marks", str(marks_path)]
    for name in BOUNDARIES[workload]:
        cmd += ["--boundary", name]
    if spans:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--", *cli_args]
    start = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{tag}: no exit within {CALL_TIMEOUT_S} s"}
    result = {"stdout": proc.stdout}
    if proc.returncode != 0:
        result["error"] = f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
        return result
    marks = json.loads(marks_path.read_text())
    if marks["boundary_ns"] is None:
        result["error"] = f"{tag}: the CLI never called {BOUNDARIES[workload]}"
        return result
    result.update(
        setup_s=(marks["boundary_ns"] - start) / 1e9,
        wall_s=(marks["end_ns"] - marks["boundary_ns"]) / 1e9,
        cpu_s=marks["end_cpu_s"] - marks["boundary_cpu_s"],
        rss_mb=marks["maxrss_kb"] / 1024.0,
    )
    if spans:
        result["spans_path"] = spans_path
    return result


# ---------------------------------------------------------------------------
# Operations: one per workload step, made of one or two CLI calls
# ---------------------------------------------------------------------------


def checked(check, *args) -> list[str]:
    """Run an output check; output too malformed to parse fails the call."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{check.__name__}: malformed output: {exc!r}"]


def run_operation(workload: str, work: Path, index: int, config_path: Path, references: dict,
                  traced: bool = False) -> dict:
    """Run one operation on the config at ``config_path`` and check its outputs."""
    tag = f"op{index}{'t' if traced else ''}"
    out = work / tag
    config = json.loads(config_path.read_text())
    if workload == "train_pair":
        ref = references["train_pair"]
        # The accuracy floors hold at the epoch count they were recorded at.
        floors = ref["floors"] if config["epochs"] == ref["epochs"] else None
        calls = []
        for flag, name in (("--hardware-aware", "hardware_aware"), ("--regular", "regular")):
            call = cli_call(work, f"{tag}-{name}", workload,
                            ["train", flag, "--config", str(config_path), "--out", str(out)], traced)
            if "error" not in call:
                call["problems"] = checked(checks.check_train, out, name, call["stdout"], floors and floors[name])
            calls.append(call)
        units = config["epochs"] * STEPS_PER_EPOCH
    else:
        sub = "evaluate" if workload == "mc_eval" else "heatmap"
        call = cli_call(work, tag, workload, [sub, "--config", str(config_path), "--checkpoint", str(CHECKPOINT),
                                              "--out", str(out), "--threads", str(config["threads"])], traced)
        calls = [call]
        ref = references[workload]
        if workload == "mc_eval":
            units = config["transfers"]
            if "error" not in call:
                call["problems"] = checked(checks.check_evaluate, out, units, ref["counts"][str(config["seed"])],
                                           ref["transfers"])
        else:
            units = config["heatmap"]["repetitions"]
            if "error" not in call:
                call["problems"] = checked(checks.check_heatmap, out / "heatmap.csv", units, ref["counts"],
                                           ref["repetitions"])
    shutil.rmtree(out, ignore_errors=True)
    for call in calls:
        if "error" in call:
            call["problems"] = [call.pop("error")]
    problems = [p for c in calls for p in c["problems"]]
    op = {"calls": calls, "problems": problems, "attempted": len(calls),
          "failed": sum(bool(c["problems"]) for c in calls)}
    if all("wall_s" in c for c in calls):
        op.update(
            wall_s=sum(c["wall_s"] for c in calls),
            cpu_s=sum(c["cpu_s"] for c in calls),
            rss_mb=max(c["rss_mb"] for c in calls),
            transfers_per_s=units / calls[0]["wall_s"],
        )
        if workload == "train_pair":
            op["ha_steps_per_s"] = units / calls[0]["wall_s"]
            op["regular_steps_per_s"] = units / calls[1]["wall_s"]
    return op


def end_to_end(ops: list[dict]) -> dict:
    timed = [op for op in ops if "wall_s" in op]
    setups = [c["setup_s"] for op in timed for c in op["calls"]]
    median = lambda key: statistics.median(op[key] for op in timed)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": median("wall_s"), "unit": "s"},
        "transfers_per_s": {"value": median("transfers_per_s"), "unit": "1/s"},
        "cpu_s": {"value": median("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": median("rss_mb"), "unit": "MB"},
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def self_times(spans_path: Path) -> dict:
    """Self time per layer (ms) and call count per span name of one traced call.

    A span's self time is its duration minus the part of it that its child
    spans cover.  The outermost spans of a worker thread are children of the
    innermost span of the main thread (the first thread traced) that
    encloses them, so a thread pool's work is not counted as its caller's.
    """
    doc = json.loads(spans_path.read_text())
    names, spans = doc["names"], doc["spans"]
    main_spans = sorted((start, -end, i) for i, (_, thread, _, start, end) in enumerate(spans) if thread == 0)
    starts = [start for start, _, _ in main_spans]

    def enclosing(start, end):
        for k in range(bisect.bisect_right(starts, start) - 1, -1, -1):
            if -main_spans[k][1] >= end:
                return main_spans[k][2]
        return -1

    children: dict[int, list[tuple[int, int]]] = {}
    for _, thread, parent, start, end in spans:
        if parent < 0 and thread != 0:
            parent = enclosing(start, end)
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    layers, counts = {}, {}
    for i, (name_idx, _, _, start, end) in enumerate(spans):
        covered, reach = 0, start
        for child_start, child_end in sorted(children.get(i, ())):
            covered += max(0, child_end - max(child_start, reach))
            reach = max(reach, child_end)
        name = names[name_idx]
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + (end - start - covered) / 1e6
        counts[name] = counts.get(name, 0) + 1
    return {"self_ms": layers, "calls": counts, "spans": len(spans)}


def run_layers(work: Path, config_path: Path, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "layers.py"), "--config", str(config_path),
           "--checkpoint", str(CHECKPOINT), "--work", str(work)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"layers.py exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def verify_inputs(references: dict) -> None:
    digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
    if digest != references["checkpoint"]["sha256"]:
        raise SystemExit(f"error: {CHECKPOINT.name} sha256 {digest} does not match the recorded input")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xbartrain CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xbartrain" / "cli.py").is_file():
        print(f"error: no xbartrain source under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    references = checks.load_references()
    verify_inputs(references)

    env = environment()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / f"work-{run_name}-{os.getpid()}"
    results_dir = STATE / "results"
    work.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    config_path = work / "config.json"
    config = workload_config(args.workload, args.seed, references)
    config_path.write_text(json.dumps(config))

    t0 = time.monotonic()
    ops, traced_ops, layer_metrics, extra_failures = [], [], {}, []
    try:
        if args.trace == 0:
            while (time.monotonic() - t0 < args.seconds or len(ops) < MIN_OPERATIONS) \
                    and time.monotonic() - t0 < STOP_AFTER_S:
                ops.append(run_operation(args.workload, work, len(ops), config_path, references))
        else:
            # Untraced and traced operations alternate, in both orders, over
            # half the budget; the layer timings take the rest.
            while (time.monotonic() - t0 < args.seconds / 2 or len(traced_ops) < 2) \
                    and time.monotonic() - t0 < STOP_AFTER_S / 2:
                for traced in ((False, True) if len(ops) % 2 == 0 else (True, False)):
                    op = run_operation(args.workload, work, len(ops) + len(traced_ops), config_path,
                                       references, traced=traced)
                    (traced_ops if traced else ops).append(op)
            try:
                layer_metrics = run_layers(work, config_path,
                                           timeout=max(30.0, 175.0 - (time.monotonic() - t0)))
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                extra_failures.append(f"layers: {exc}")
    finally:
        for op in traced_ops:
            for call in op["calls"]:
                if "spans_path" in call:
                    call["trace"] = self_times(call["spans_path"])
                    call["spans_path"] = str(call["spans_path"].relative_to(ROOT))
        kept_spans = [Path(c["spans_path"]) for c in traced_ops[-1]["calls"]] if traced_ops else []
        for path in kept_spans:
            if (ROOT / path).exists():
                shutil.copy(ROOT / path, results_dir / f"{run_name}.{path.name}")
        shutil.rmtree(work, ignore_errors=True)

    all_ops = ops + traced_ops
    attempted = sum(op["attempted"] for op in all_ops) + (1 if args.trace else 0)
    failed = sum(op["failed"] for op in all_ops) + len(extra_failures)
    problems = [p for op in all_ops for p in op["problems"]] + extra_failures
    timed = [[op["wall_s"] for op in group if "wall_s" in op] for group in (ops, traced_ops)]
    if not timed[0] or (args.trace and not (timed[1] and layer_metrics)):
        print("error: no metrics, the runs failed:\n" + "\n".join(problems[:10]), file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics = end_to_end(ops)
    else:
        untraced, traced = statistics.median(timed[0]), statistics.median(timed[1])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
        metrics["trace.overhead_ms"] = {"value": (traced - untraced) * 1e3, "unit": "ms"}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "config": config, "environment": env,
        "elapsed_s": time.monotonic() - t0, "problems": problems, "metrics": metrics,
        "operations": [{k: v for k, v in op.items() if k != "calls"} |
                       {"calls": [{k: v for k, v in c.items() if k != "stdout"} for c in op["calls"]]}
                       for op in all_ops],
    }
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=1))
    print(f"environment: {json.dumps(env)}")
    for p in problems[:10]:
        print(f"problem: {p}")
    if args.trace:
        last = [c["trace"] for op in traced_ops for c in op["calls"] if "trace" in c][-1:]
        for trace in last:
            print("layer self time (ms): " + ", ".join(f"{k} {v:.1f}" for k, v in sorted(trace["self_ms"].items())))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
