"""Command-line entry points for the fitting / training / evaluation pipeline."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, nn
from .experiments import (
    ExperimentConfig,
    _timed,
    evaluate_transfers,
    experiment_dataset,
    heatmap,
    load_experiment_config,
    read_config,
    robustness_curve,
    robustness_table,
    run_experiment,
    write_curve_csv,
    write_heatmap_csv,
    write_json,
    write_table_csv,
)
from .training import ProducerReport, TrainingDiverged, train_hardware_aware, train_regular
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
                        help="processes (default 2). At 2 or more, run trains and judges the "
                             "regular network in a second process beside the HA one, and "
                             "train --hardware-aware draws its training noise ahead in a "
                             "second process pinned to its own CPU. train --regular, evaluate "
                             "and heatmap run in one process. No output depends on it")


def _override(config: ExperimentConfig, args) -> ExperimentConfig:
    """Apply the command-line overrides to a loaded config."""
    if args.seed is not None:
        config = replace(config, training=replace(config.training, seed=args.seed))
    if getattr(args, "transfers", None) is not None:
        config = replace(config, transfers=args.transfers)
    if getattr(args, "threads", None) is not None:
        config = replace(config, threads=args.threads)
    return config


def _load_checkpoint(args):
    """Config, variability model, network and crossbar layouts for a
    command that evaluates a trained checkpoint."""
    config = _override(load_experiment_config(args.config), args)
    model = config.resolve_model()
    net = nn.load_checkpoint(args.checkpoint)
    if net.sizes[0] != 2 or net.sizes[-1] != 1:
        raise ValueError(f"checkpoint {args.checkpoint}: layer_sizes must start with 2, the "
                         f"half-moons input, and end with 1, the one output, got {net.sizes}")
    layouts = layouts_for_architecture(net.sizes, *config.training.tile)
    return config, model, net, layouts


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
    save_model(make_synthetic_model(args.seed), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    config = _override(load_experiment_config(args.config), args)
    model = config.resolve_model()
    train_set, test_set = experiment_dataset(config)
    args.out.mkdir(parents=True, exist_ok=True)
    nn._expit()  # load scipy here, not inside the timed training
    steps = (config.training.steps(len(train_set)), "steps")
    if args.hardware_aware:
        name, producer = "hardware_aware", ProducerReport()
        net = _timed(f"{name} training", train_hardware_aware, config.training, train_set,
                     model=model, workers=config.threads, report=producer, rate=steps)
        if producer.blocks:
            print(f"noise producer: {producer.cpu_s:.2f} s CPU, trainer drew "
                  f"{producer.drawn_here} of {producer.blocks} blocks", file=sys.stderr)
    else:
        name = "regular"
        net = _timed(f"{name} training", train_regular, config.training, train_set, rate=steps)
    path = args.out / f"{name}.json"
    nn.save_checkpoint(net, path)
    print(f"{name}: train accuracy {nn.accuracy(net, train_set.points, train_set.labels):.4f}, "
          f"test accuracy {nn.accuracy(net, test_set.points, test_set.labels):.4f}")
    print(f"wrote {path}")
    return 0


def cmd_evaluate(args) -> int:
    config, model, net, layouts = _load_checkpoint(args)
    _, test_set = experiment_dataset(config)
    report = _timed(
        "evaluation", evaluate_transfers,
        net, model, layouts, config.training.hrs_fraction, config.training.lrs_fraction,
        test_set, config.transfers, config.training.seed, rate=(config.transfers, "transfers"),
    )
    args.out.mkdir(parents=True, exist_ok=True)
    write_json(args.out / "report.json", {
        "transfers": report.transfers,
        "counts": report.counts.tolist(),
        "fractions": report.fractions.tolist(),
    })
    write_table_csv(args.out / "table.csv", robustness_table(report))
    write_curve_csv(args.out / "curve.csv", *robustness_curve(report))
    share = float(np.mean(report.fractions >= 0.95))
    print(f"{report.transfers} transfers: {100 * share:.1f}% of test points classified "
          f"correctly by >= 95% of transfers")
    print(f"wrote {args.out}/report.json, table.csv, curve.csv")
    return 0


def cmd_heatmap(args) -> int:
    config, model, net, layouts = _load_checkpoint(args)
    repetitions = args.transfers if args.transfers is not None else config.heatmap_repetitions
    hm = _timed(
        "heatmap", heatmap,
        net, model, layouts, config.training.hrs_fraction, config.training.lrs_fraction,
        config.grid, repetitions=repetitions, seed=config.training.seed,
        rate=(repetitions, "repetitions"),
    )
    args.out.mkdir(parents=True, exist_ok=True)
    write_heatmap_csv(args.out / "heatmap.csv", hm)
    print(f"wrote {args.out}/heatmap.csv ({config.grid.nx}x{config.grid.ny} cells, "
          f"{repetitions} transfers)")
    return 0


def cmd_run(args) -> int:
    config_doc, config = read_config(args.config)
    written = run_experiment(_override(config, args), args.out, config_doc=config_doc)
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
        return args.func(args)
    except (FileNotFoundError, ValueError, TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
