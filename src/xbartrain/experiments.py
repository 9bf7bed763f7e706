"""Monte-Carlo transfer evaluation: robustness tables, curves and heatmaps.

A trained network is pushed through N independent simulated transfers; each
test point's correct-classification count across those transfers measures
how robustly that point survives the hardware. The binned table and the
cumulative curve summarize the distribution; the heatmap repeats the
exercise over a grid spanning the data space.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import nn
from .datasets import LabeledSet, make_half_moons
from .training import TrainingConfig, SourceToggles, train_hardware_aware, train_regular
from .transfer import TileLayout, TransferOutcome, TransferPlan, crossbar_to_layer, layouts_for_architecture
from .variability import VariabilityModel, load_model, make_synthetic_model

__all__ = [
    "RobustnessReport",
    "RobustnessBin",
    "GridSpec",
    "HeatmapGrid",
    "ExperimentConfig",
    "ConfigError",
    "evaluate_transfers",
    "robustness_table",
    "robustness_curve",
    "heatmap",
    "run_experiment",
    "load_experiment_config",
]

# Stream tags; kept distinct from the training tags so one master seed can
# drive the whole pipeline without stream reuse.
_STREAM_EVAL = 100
_STREAM_HEATMAP = 101
_STREAM_DATASET = 102

# Transfers drawn and forwarded together by evaluate_transfers.  Part of the
# stream contract (chunk k always draws transfers k*CHUNK onwards from its
# own stream), so it is fixed rather than configurable; it also bounds the
# memory of a chunk's stacked forward pass.
CHUNK = 32

DEFAULT_BIN_EDGES = (100.0, 95.0, 90.0, 80.0, 70.0, 60.0, 50.0)


class ConfigError(ValueError):
    """Raised for unreadable or inconsistent experiment configuration."""


@dataclass(frozen=True)
class RobustnessReport:
    """Per-test-point correct counts over N simulated transfers."""

    counts: np.ndarray
    transfers: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if np.any(counts < 0) or np.any(counts > self.transfers):
            raise ValueError("counts must lie in [0, transfers]")
        object.__setattr__(self, "counts", counts)

    @property
    def fractions(self) -> np.ndarray:
        return self.counts / self.transfers


def _transfer_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(index)]))


def _sum_jobs(job, count: int, workers: int) -> np.ndarray:
    """Sum of the integer arrays ``job(i)`` for i in range(count), computed
    on up to ``workers`` threads.  Integer sums do not depend on the order
    the jobs finish in, so the result is the same for any worker count."""
    if workers <= 1:
        return sum(map(job, range(count)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(job, range(count)))


def _predict_transferred(outcomes: list[TransferOutcome], X) -> np.ndarray:
    """Class labels, shape ``(n, points)``, of ``n`` transferred networks
    given as per-layer ``(n, fan_in + 1, fan_out)`` crossbar stacks."""
    a = np.asarray(X, dtype=float)
    for outcome in outcomes:
        m = outcome.phi_prime
        a = expit(a @ m[:, :-1] + m[:, -1:])
    return a[..., 0] > 0.5


def evaluate_transfers(
    net: nn.DenseNet,
    model: VariabilityModel,
    layouts: list[TileLayout],
    x: float,
    y: float,
    test_set: LabeledSet,
    transfers: int,
    seed: int,
    workers: int = 1,
) -> RobustnessReport:
    """Correct-classification counts per test point over N transfers.

    Transfers are drawn in fixed chunks of :data:`CHUNK`: chunk ``k`` holds
    transfers ``k*CHUNK`` up to the next chunk (the last one may be
    shorter), is drawn by one :meth:`TransferPlan.sample` call from its own
    stream ``SeedSequence([seed, 100, k])`` and is classified in one stacked
    forward pass.  Counts are integer sums over chunks, so the result is
    identical for any worker count or scheduling order.  Drawing a chunk at
    once gives a different Monte-Carlo sample for a given seed than drawing
    its transfers one by one (each from its own stream), as versions before
    the chunked engine did.
    """
    if transfers < 1:
        raise ValueError(f"transfers must be >= 1, got {transfers}")
    plan = TransferPlan(layouts, model, x, y)
    X = test_set.points
    labels = np.asarray(test_set.labels)

    def count_chunk(k: int) -> np.ndarray:
        n = min(CHUNK, transfers - k * CHUNK)
        outcomes = plan.sample(net, n, _transfer_rng(seed, _STREAM_EVAL, k))
        return np.sum(_predict_transferred(outcomes, X) == labels, axis=0)

    counts = _sum_jobs(count_chunk, -(-transfers // CHUNK), workers)
    return RobustnessReport(counts=counts, transfers=transfers)


@dataclass(frozen=True)
class RobustnessBin:
    label: str
    count: int
    percent: float


def robustness_table(
    report: RobustnessReport, bin_edges=DEFAULT_BIN_EDGES
) -> list[RobustnessBin]:
    """Bin test points by correct-percentage across transfers.

    The top edge is an exact bin (points every transfer classified
    correctly); interior bins are half-open [low, high); everything below
    the last edge lands in a final "<edge" bin.  Counts always sum to the
    test-set size.
    """
    edges = [float(e) for e in bin_edges]
    if sorted(edges, reverse=True) != edges or len(set(edges)) != len(edges):
        raise ValueError(f"bin edges must be strictly decreasing, got {bin_edges}")
    pct = report.counts * 100.0 / report.transfers
    bins = [RobustnessBin(_fmt_edge(edges[0]), int(np.sum(pct == edges[0])), 0.0)]
    for hi, lo in zip(edges[:-1], edges[1:]):
        label = f"{_fmt_edge(lo)}<=x<{_fmt_edge(hi)}"
        bins.append(RobustnessBin(label, int(np.sum((pct >= lo) & (pct < hi))), 0.0))
    bins.append(RobustnessBin(f"x<{_fmt_edge(edges[-1])}", int(np.sum(pct < edges[-1])), 0.0))
    n = len(report.counts)
    return [RobustnessBin(b.label, b.count, 100.0 * b.count / n) for b in bins]


def _fmt_edge(edge: float) -> str:
    return f"{edge:g}"


def robustness_curve(report: RobustnessReport) -> tuple[np.ndarray, np.ndarray]:
    """Share of the test set with correct-fraction >= p, at 0.5% resolution.

    Returns (thresholds, shares); the curve is monotone non-increasing.
    """
    thresholds = np.arange(201) / 200.0
    fractions = report.fractions
    shares = np.array([np.mean(fractions >= p) for p in thresholds])
    return thresholds, shares


@dataclass(frozen=True)
class GridSpec:
    """Cell-centered evaluation grid over the data space."""

    x_min: float = -1.5
    x_max: float = 2.5
    y_min: float = -1.0
    y_max: float = 1.5
    nx: int = 200
    ny: int = 200

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid extents must be non-empty")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid resolution must be positive")

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = self.x_min + (np.arange(self.nx) + 0.5) * (self.x_max - self.x_min) / self.nx
        ys = self.y_min + (np.arange(self.ny) + 0.5) * (self.y_max - self.y_min) / self.ny
        return xs, ys

    def points(self) -> np.ndarray:
        xs, ys = self.centers()
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class HeatmapGrid:
    grid: GridSpec
    repetitions: int
    mean: np.ndarray  # (ny, nx), mean of binary classifications
    std: np.ndarray  # (ny, nx), sqrt(mean * (1 - mean))


def heatmap(
    net: nn.DenseNet,
    model: VariabilityModel,
    layouts: list[TileLayout],
    x: float,
    y: float,
    grid: GridSpec = GridSpec(),
    repetitions: int = 1000,
    seed: int = 0,
    workers: int = 1,
) -> HeatmapGrid:
    """Classification mean/std per grid cell over repeated transfers.

    One transfer is shared by the whole grid within a repetition (each
    repetition is one network instance classifying the plane).  Outcomes
    are binary, so the standard deviation is exactly
    sqrt(mean * (1 - mean)).

    Repetition ``i`` is one transfer drawn from its own stream
    ``SeedSequence([seed, 101, i])``, so the grid is the same for any
    worker count.  The whole grid is forwarded per repetition, which costs
    far more than the draw, so repetitions are not batched.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    plan = TransferPlan(layouts, model, x, y)
    pts = grid.points()

    def classify(i: int) -> np.ndarray:
        outcomes = plan.sample(net, 1, _transfer_rng(seed, _STREAM_HEATMAP, i))
        layers = [nn.LayerParams(*crossbar_to_layer(o.phi_prime[0])) for o in outcomes]
        return nn.predict(nn.DenseNet(layers), pts)

    ones = _sum_jobs(classify, repetitions, workers)

    mean = (ones / repetitions).reshape(grid.ny, grid.nx)
    std = np.sqrt(mean * (1.0 - mean))
    return HeatmapGrid(grid=grid, repetitions=repetitions, mean=mean, std=std)


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    training: TrainingConfig = field(default_factory=TrainingConfig)
    model_path: str | None = None
    model_seed: int = 0
    n_train: int = 875
    n_test: int = 200
    noise_std: float = 0.1
    transfers: int = 10000
    grid: GridSpec = field(default_factory=GridSpec)
    heatmap_repetitions: int = 1000
    threads: int = 1

    def resolve_model(self) -> VariabilityModel:
        if self.model_path is None:
            return make_synthetic_model(self.model_seed)
        path = Path(self.model_path)
        if not path.exists():
            raise FileNotFoundError(f"model file not found: {path}")
        return load_model(path)


_TOP_KEYS = {
    "seed", "architecture", "batch_size", "learning_rate", "epochs",
    "hrs_fraction", "lrs_fraction", "sources", "tile", "model_path",
    "model_seed", "dataset", "transfers", "heatmap", "threads",
}


def experiment_config_from_dict(doc: dict, context: str = "config") -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context}: top level must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        sources = doc.get("sources", {})
        if not isinstance(sources, dict):
            raise ConfigError(f"{context}: 'sources' must be an object")
        toggles = SourceToggles(
            tuning=bool(sources.get("tuning", True)),
            bias=bool(sources.get("bias", True)),
            stuck=bool(sources.get("stuck", True)),
        )
        training = TrainingConfig(
            architecture=tuple(doc.get("architecture", (2, 8, 1))),
            batch_size=int(doc.get("batch_size", 256)),
            lr=float(doc.get("learning_rate", 0.01)),
            epochs=int(doc.get("epochs", 4000)),
            hrs_fraction=float(doc.get("hrs_fraction", 0.005)),
            lrs_fraction=float(doc.get("lrs_fraction", 0.005)),
            sources=toggles,
            seed=int(doc.get("seed", 0)),
            tile=tuple(doc.get("tile", (8, 8))),
        )
        dataset = doc.get("dataset", {})
        heat = doc.get("heatmap", {})
        extent = heat.get("extent", (-1.5, 2.5, -1.0, 1.5))
        grid = GridSpec(
            x_min=float(extent[0]), x_max=float(extent[1]),
            y_min=float(extent[2]), y_max=float(extent[3]),
            nx=int(heat.get("nx", 200)), ny=int(heat.get("ny", 200)),
        )
        return ExperimentConfig(
            training=training,
            model_path=doc.get("model_path"),
            model_seed=int(doc.get("model_seed", 0)),
            n_train=int(dataset.get("n_train", 875)),
            n_test=int(dataset.get("n_test", 200)),
            noise_std=float(dataset.get("noise_std", 0.1)),
            transfers=int(doc.get("transfers", 10000)),
            grid=grid,
            heatmap_repetitions=int(heat.get("repetitions", 1000)),
            threads=int(doc.get("threads", 1)),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config file {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return experiment_config_from_dict(doc, context=f"config file {path}")


def experiment_dataset(config: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    total = config.n_train + config.n_test
    seed = np.random.SeedSequence([config.training.seed, _STREAM_DATASET])
    full = make_half_moons(total, noise_std=config.noise_std, seed=seed)
    return full.split(config.n_train)


def write_table_csv(path: Path, bins: list[RobustnessBin]) -> None:
    lines = ["bin,label,count,percent"]
    lines += [f"{i},{b.label},{b.count},{b.percent!r}" for i, b in enumerate(bins)]
    path.write_text("\n".join(lines) + "\n")


def write_curve_csv(path: Path, thresholds: np.ndarray, shares: np.ndarray) -> None:
    lines = ["threshold,share"]
    lines += [f"{t!r},{s!r}" for t, s in zip(thresholds.tolist(), shares.tolist())]
    path.write_text("\n".join(lines) + "\n")


def write_heatmap_csv(path: Path, hm: HeatmapGrid) -> None:
    xs, ys = hm.grid.centers()
    xs = xs.tolist()
    lines = ["x,y,mean,std"]
    for yv, means, stds in zip(ys.tolist(), hm.mean.tolist(), hm.std.tolist()):
        lines += [f"{xv!r},{yv!r},{m!r},{s!r}" for xv, m, s in zip(xs, means, stds)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_experiment(config, out_dir, config_doc: dict | None = None) -> list[Path]:
    """Full pipeline: train both networks, evaluate N transfers, write artifacts.

    ``config`` is an :class:`ExperimentConfig` or a path to a JSON config
    file.  Writes report.json, manifest.json, and per-network table.csv,
    curve.csv, heatmap.csv and checkpoint.json under ``out_dir``.  The same
    config always produces byte-identical artifacts.
    """
    if not isinstance(config, ExperimentConfig):
        config_path = Path(config)
        config_doc = json.loads(config_path.read_text()) if config_path.exists() else None
        config = load_experiment_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model = config.resolve_model()
    train_set, test_set = experiment_dataset(config)
    layouts = layouts_for_architecture(config.training.architecture, *config.training.tile)
    x, y = config.training.hrs_fraction, config.training.lrs_fraction
    seed = config.training.seed

    nets = {
        "hardware_aware": train_hardware_aware(config.training, train_set, model=model),
        "regular": train_regular(config.training, train_set),
    }

    written: list[Path] = []
    report_networks = {}
    for name, net in nets.items():
        sub = out / name
        sub.mkdir(exist_ok=True)
        report = evaluate_transfers(
            net, model, layouts, x, y, test_set, config.transfers, seed, workers=config.threads
        )
        hm = heatmap(
            net, model, layouts, x, y, config.grid,
            repetitions=config.heatmap_repetitions, seed=seed, workers=config.threads,
        )
        nn.save_checkpoint(net, sub / "checkpoint.json")
        write_table_csv(sub / "table.csv", robustness_table(report))
        write_curve_csv(sub / "curve.csv", *robustness_curve(report))
        write_heatmap_csv(sub / "heatmap.csv", hm)
        written += [sub / "checkpoint.json", sub / "table.csv", sub / "curve.csv", sub / "heatmap.csv"]
        report_networks[name] = {
            "counts": report.counts.tolist(),
            "fractions": report.fractions.tolist(),
            "clean_accuracy": nn.accuracy(net, test_set.points, test_set.labels),
        }

    write_json(out / "report.json", {
        "transfers": config.transfers,
        "test_size": len(test_set),
        "points": test_set.points.tolist(),
        "labels": test_set.labels.tolist(),
        "networks": report_networks,
    })
    written.append(out / "report.json")

    from . import __version__

    canonical = json.dumps(config_doc, sort_keys=True) if config_doc is not None else ""
    write_json(out / "manifest.json", {
        "tool": "xbartrain",
        "version": __version__,
        "seed": seed,
        "transfers": config.transfers,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": config_doc,
        "artifacts": sorted(str(p.relative_to(out)) for p in written),
    })
    written.append(out / "manifest.json")
    return written
