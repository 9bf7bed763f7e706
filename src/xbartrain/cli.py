"""Command-line entry points for the fitting / training / evaluation pipeline."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nn, training
from .experiments import (
    ExperimentConfig,
    evaluate_transfers,
    experiment_dataset,
    heatmap,
    load_experiment_config,
    read_config,
    robustness_curve,
    robustness_table,
    write_curve_csv,
    write_heatmap_csv,
    write_json,
    write_table_csv,
)
from .training import (
    ProducerReport,
    TrainingDiverged,
    check_architecture,
    train_hardware_aware,
    train_regular,
)
from .transfer import layouts_for_architecture
from .variability import (
    ConductanceRange,
    StuckModel,
    VariabilityModel,
    build_bias_db,
    fit_tuning_model,
    make_synthetic_model,
    read_bias_csv,
    read_stuck_csv,
    read_tuning_csv,
    save_model,
)


def _add_common(parser: argparse.ArgumentParser, *, evaluates=True):
    parser.add_argument("--config", type=Path, required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    if evaluates:
        parser.add_argument("--transfers", type=int, default=None,
                            help="override the number of simulated transfers")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"processes (default {ExperimentConfig.threads}). Where the helper "
                             "rule of training._forked allows one, hardware-aware training draws "
                             "its noise, and evaluation and the heatmap count half of their "
                             "transfers, in a second process. No output depends on it")


def _override(config: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the command-line overrides to a loaded config."""
    if args.seed is not None:
        config = replace(config, training=replace(config.training, seed=args.seed))
    if getattr(args, "transfers", None) is not None:
        config = replace(config, transfers=args.transfers)
    if getattr(args, "threads", None) is not None:
        config = replace(config, threads=args.threads)
    return config


@contextlib.contextmanager
def _out_dir(path: Path):
    """Make the output directory ``path`` before the command's work, so that
    a bad ``--out`` fails at once; a failed command leaves no new, empty one."""
    new = not path.exists()
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except BaseException:
        if new and not any(path.iterdir()):
            path.rmdir()
        raise


def _timed(stage: str, fn, *args, rate: tuple[int, str], **kwargs):
    """``fn(*args, **kwargs)``, with its wall time and ``rate = (count,
    unit)`` per second printed to stderr as ``stage: T s, R unit/s``.
    Wall times stay out of the artifacts, which reruns must reproduce byte
    for byte."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    print(f"{stage}: {elapsed:.2f} s, {rate[0] / elapsed:.0f} {rate[1]}/s", file=sys.stderr)
    return result


# The stages of train, evaluate, heatmap and run, each timed.  Each names
# its stage function at call time, so a wrapper set on this module sees
# every command's call.
def _train(name: str, config: ExperimentConfig, model, train_set, report=None):
    """The ``hardware_aware`` net of ``config``, filling ``report`` in, or its ``regular`` one."""
    nn._expit()  # load scipy's expit ufunc here, outside the timed training and before any fork
    steps = (config.training.steps(len(train_set)), "steps")
    if name == "hardware_aware":
        return _timed(f"{name} training", train_hardware_aware, config.training, train_set,
                      model=model, workers=config.threads, report=report, rate=steps)
    return _timed(f"{name} training", train_regular, config.training, train_set, rate=steps)


def _evaluate(stage: str, config: ExperimentConfig, model, net, test_set):
    tc = config.training
    layouts = layouts_for_architecture(net.sizes, *tc.tile)
    return _timed(stage, evaluate_transfers, net, model, layouts, tc.hrs_fraction,
                  tc.lrs_fraction, test_set, config.transfers, tc.seed, workers=config.threads,
                  rate=(config.transfers, "transfers"))


def _heatmap(stage: str, config: ExperimentConfig, model, net, repetitions: int):
    tc = config.training
    layouts = layouts_for_architecture(net.sizes, *tc.tile)
    return _timed(stage, heatmap, net, model, layouts, tc.hrs_fraction, tc.lrs_fraction,
                  config.grid, repetitions=repetitions, seed=tc.seed, workers=config.threads,
                  rate=(repetitions, "repetitions"))


def _write_evaluation(out: Path, report) -> dict:
    """Write ``report``'s table.csv and curve.csv to ``out``; return its report.json fields."""
    write_table_csv(out / "table.csv", robustness_table(report))
    write_curve_csv(out / "curve.csv", *robustness_curve(report))
    return {"counts": report.counts.tolist(), "fractions": report.fractions.tolist()}


def _load_checkpoint(args):
    """Config, variability model and network for a command that evaluates
    a trained checkpoint."""
    config = _override(load_experiment_config(args.config), args)
    model = config.resolve_model()
    net = nn.load_checkpoint(args.checkpoint)
    check_architecture(net.sizes, f"checkpoint {args.checkpoint}: layer_sizes")
    return config, model, net


def cmd_fit_model(args) -> int:
    records = read_tuning_csv(args.tuning)
    std_model, offset_model, groups = fit_tuning_model(records)
    bias_db = build_bias_db(read_bias_csv(args.bias))
    hrs, lrs = read_stuck_csv(args.stuck)
    if not lrs:
        raise ValueError(f"{args.stuck}: no LRS records; the LRS sampler needs at least one")
    bounds = {"g_min": args.g_min, "g_max": args.g_max}
    model = VariabilityModel(
        std_model=std_model,
        offset_model=offset_model,
        bias_db=bias_db,
        stuck_model=StuckModel(lrs_samples=tuple(lrs)),
        range=ConductanceRange(**{k: v for k, v in bounds.items() if v is not None}),
    )
    save_model(model, args.out)
    pvals = [group.shapiro_p for group in groups if group.shapiro_p is not None]
    print(f"fitted std line: {std_model.slope:+.6g} %/uS * g + {std_model.intercept:.6g} %")
    print(f"fitted offset:   mu={offset_model.mu_off:.6g} %  sigma={offset_model.sigma_off:.6g} %")
    print(f"bias database:   {len(bias_db.groups)} n_d groups")
    print(f"ignored {len(hrs)} HRS records (HRS draws are uniform on "
          f"[{model.stuck_model.hrs_low:g}, {model.stuck_model.hrs_high:g}] uS)")
    if pvals:
        below = sum(p < 0.05 for p in pvals)
        print(f"tuning groups:   {len(groups)}; Shapiro-Wilk p<0.05 in {below}/{len(pvals)}")
    print(f"wrote {args.out}")
    return 0


def cmd_gen_synthetic_model(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    save_model(make_synthetic_model(args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _override(load_experiment_config(args.config), args)
    model = config.resolve_model()
    train_set, test_set = experiment_dataset(config)
    name = "hardware_aware" if args.hardware_aware else "regular"
    producer = ProducerReport()
    with _out_dir(args.out):
        net = _train(name, config, model, train_set, producer)
        if producer.blocks:
            print(f"noise producer: {producer.cpu_s:.2f} s CPU, trainer drew "
                  f"{producer.drawn_here} of {producer.blocks} blocks", file=sys.stderr)
        path = args.out / f"{name}.json"
        nn.save_checkpoint(net, path)
    print(f"{name}: train accuracy {nn.accuracy(net, train_set.points, train_set.labels):.4f}, "
          f"test accuracy {nn.accuracy(net, test_set.points, test_set.labels):.4f}")
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    config, model, net = _load_checkpoint(args)
    _, test_set = experiment_dataset(config)
    with _out_dir(args.out):
        report = _evaluate("evaluation", config, model, net, test_set)
        write_json(args.out / "report.json",
                   {"transfers": report.transfers, **_write_evaluation(args.out, report)})
    share = float(np.mean(report.fractions >= 0.95))
    print(f"{report.transfers} transfers: {100 * share:.1f}% of test points classified "
          f"correctly by >= 95% of transfers")
    print(f"wrote {args.out}/report.json, table.csv, curve.csv")
    return 0


def cmd_heatmap(args) -> int:
    config, model, net = _load_checkpoint(args)
    repetitions = args.transfers if args.transfers is not None else config.heatmap_repetitions
    with _out_dir(args.out):
        hm = _heatmap("heatmap", config, model, net, repetitions)
        write_heatmap_csv(args.out / "heatmap.csv", hm)
    print(f"wrote {args.out}/heatmap.csv ({config.grid.nx}x{config.grid.ny} cells, "
          f"{repetitions} transfers)")
    return 0


def cmd_run(args) -> int:
    """Train both networks, then evaluate each and draw its heatmap, writing
    report.json, manifest.json and per network checkpoint.json, table.csv,
    curve.csv and heatmap.csv under ``--out``, byte-identical at any
    ``--threads``.  Stage times go to stderr, before :func:`main`'s peak RSS line."""
    config_doc, config = read_config(args.config)
    config, out = _override(config, args), args.out
    written, networks = [], {}
    with _out_dir(out):
        model = config.resolve_model()
        train_set, test_set = experiment_dataset(config)
        nets = {name: _train(name, config, model, train_set)
                for name in ("hardware_aware", "regular")}
        for name, net in nets.items():
            report = _evaluate(f"{name} evaluation", config, model, net, test_set)
            hm = _heatmap(f"{name} heatmap", config, model, net, config.heatmap_repetitions)
            sub = out / name
            sub.mkdir(exist_ok=True)
            nn.save_checkpoint(net, sub / "checkpoint.json")
            networks[name] = {**_write_evaluation(sub, report),
                              "clean_accuracy": nn.accuracy(net, test_set.points, test_set.labels)}
            write_heatmap_csv(sub / "heatmap.csv", hm)
            written += [sub / "checkpoint.json", sub / "table.csv", sub / "curve.csv",
                        sub / "heatmap.csv"]
        write_json(out / "report.json", {
            "transfers": config.transfers,
            "test_size": len(test_set),
            "points": test_set.points.tolist(),
            "labels": test_set.labels.tolist(),
            "networks": networks,
        })
        written.append(out / "report.json")
        canonical = json.dumps(config_doc, sort_keys=True)
        write_json(out / "manifest.json", {
            "tool": "xbartrain",
            "version": __version__,
            "seed": config.training.seed,
            "transfers": config.transfers,
            "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "config": config_doc,
            "artifacts": sorted(str(p.relative_to(out)) for p in written),
        })
        written.append(out / "manifest.json")
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xbartrain",
        description="Crossbar variability fitting, hardware-aware training and "
                    "Monte-Carlo transfer evaluation",
    )
    parser.add_argument("--version", action="version", version=f"xbartrain {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-model", help="fit a variability model from raw characterization CSVs")
    p.add_argument("--tuning", type=Path, required=True, help="device_id,g_target_uS,read_uS")
    p.add_argument("--bias", type=Path, required=True, help="n_d,delta_g_uS")
    p.add_argument("--stuck", type=Path, required=True, help="kind{HRS|LRS},g_uS")
    p.add_argument("--g-min", type=float)
    p.add_argument("--g-max", type=float)
    p.add_argument("--out", type=Path, required=True, help="output model JSON")
    p.set_defaults(func=cmd_fit_model)

    p = sub.add_parser("gen-synthetic-model", help="write the documented synthetic default model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_gen_synthetic_model)

    p = sub.add_parser("train", help="train one network from a config")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hardware-aware", action="store_true")
    group.add_argument("--regular", action="store_true")
    _add_common(p, evaluates=False)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="robustness report for a trained checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("heatmap", help="classification-variability heatmap for a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_heatmap)

    p = sub.add_parser("run", help="full pipeline: train both networks, evaluate, write artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
    except (OSError, ValueError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if hasattr(args, "threads"):  # train, evaluate, heatmap and run, which may fork a helper
        rss = [kb / 1024.0 for kb in (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                      training.helper_maxrss_kb)]
        print(f"peak rss: parent {rss[0]:.1f} MB, children {rss[1]:.1f} MB", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
