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
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import fields, nn
from .datasets import LabeledSet, make_half_moons
from .training import TrainingConfig, SourceToggles, _stream, train_hardware_aware, train_regular
from .transfer import (TileLayout, TransferNoise, TransferPlan, layer_to_crossbar,
                       layouts_for_architecture)
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
    "read_config",
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

# Points forwarded together by _predict_transferred.  A block's per-layer
# buffers stay cache-sized for one transfer (4096 x 8 doubles, 256 KiB),
# and the labels do not depend on the block size.  Not configurable.
POINT_BLOCK = 4096

# Heatmap repetitions applied and bounded together in one job.  Each
# repetition is still drawn alone from its own stream and forwarded alone
# on the tiles its bounds leave undecided, so the group size does not
# change the heatmap.  On 2 vCPU, groups of 16 ran the heatmap of the
# default run's nets 7-9% faster on one thread and 13-25% faster on two
# than groups of 4 or 8, and as fast as groups of 32.  Not configurable.
HEATMAP_GROUP = 16

# Grid cells per side of the square tiles whose output bounds label whole
# tiles of the heatmap at once (see heatmap); the last row and column of
# tiles may be partial.  Smaller tiles leave fewer cells to forward but
# cost more bounds, larger ones the reverse.  On the default run's nets
# (200 x 200 grid, 2 vCPU) tiles of 8 left 7-8% of the cells undecided
# per repetition; the heatmap ran 20-35% faster than with tiles of 4 or
# 16 on one thread, and on two about as fast as with tiles of 4 and 20%
# faster than with 16.  The labels do not depend on it.  Not
# configurable.
GRID_TILE = 8

# Upper bound on the heatmap cells, nx * ny, that a config may ask for.
# The heatmap holds a few arrays of this length and builds one CSV row per
# cell, about 0.3 GB at the bound; a grid too large for memory would only
# fail after both networks are trained.
MAX_GRID_POINTS = 1_000_000

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


# ``expit(z) > 0.5`` exactly when ``z >= _Z0``, the double after
# 1.5 * 2**-53 (1.665e-16), so the output layer is labelled from its
# pre-activation.  Written as a literal so that labelling loads no scipy;
# tests/test_experiments.py checks it against scipy's ``expit``.
_Z0 = float.fromhex("0x1.8000000000001p-53")


def expit(a, out=None):
    """scipy's ``expit``, the exact sigmoid of the fallback forward of
    :func:`_predict_transferred`, loaded on the first call (see
    :func:`nn._expit`)."""
    return nn._expit()(a, out=out)


def _sigmoid(a, out):
    """``1 / (1 + exp(-a))`` into ``out`` through numpy's ``exp``; scipy's
    ``expit`` is the same expression on libm's ``exp``.  Where ``exp``
    overflows, the result is 0, as ``expit``'s, with no warning."""
    np.negative(a, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)


# Bound on |_sigmoid(u) - expit(u)| for every double u, in units of the
# double epsilon; the two differ by the last bit of ``exp`` and the
# rounding of the add and the divide, about 3 eps at most.
_SIGMOID_EPS = 16


def _predict_transferred(layers, X) -> np.ndarray:
    """Class labels, shape ``(n, points)``, of ``n`` transferred networks
    given as per-layer ``(w, b)`` stacks, ``(n, fan_in, fan_out)`` weights
    and ``(n, 1, fan_out)`` biases.

    The points go through the network in blocks of :data:`POINT_BLOCK`.
    Each layer writes into one ``(n, block, fan_out)`` buffer, allocated
    once per call and reused for every block, so no fresh array is faulted
    in per block and memory does not grow with the point count.  The
    output layer skips its ``expit``: the label is ``z >= _Z0`` on the
    pre-activation ``z``, which equals ``expit(z) > 0.5`` for every double.
    The labels are bit-identical to ``expit(a @ w + b)`` over all layers
    followed by ``> 0.5``.

    The hidden layers first run :func:`_sigmoid`, which is about 4x faster
    than scipy's ``expit`` with numpy's AVX-512 ``exp``.  A block is
    labelled from this fast output only when every ``|z_fast - _Z0|``
    exceeds the :func:`_margin` of the transfer for inputs of magnitude
    ``max|X|``, which bounds the distance between ``z_fast`` and the
    reference ``z`` (see :func:`heatmap`), so that ``z`` is on the same
    side of ``_Z0``.  Otherwise (a NaN gap included) the block is forwarded
    again with scipy's :func:`expit` for all ``n`` transfers.  Only this
    fallback loads scipy, and it is rare: on the frozen default checkpoint
    (perfbench/inputs), ``evaluate`` at 2000 transfers took it 0 times at
    64 seeds and ``heatmap`` at 100 repetitions 0 times at 10 seeds.
    """
    X = np.asarray(X, dtype=float)
    points = len(X)
    n = len(layers[0][0])
    labels = np.empty((n, points), dtype=bool)
    block = max(1, min(POINT_BLOCK, points))
    buffers = [np.empty((n, block, w.shape[2])) for w, _ in layers]
    margin = _margin(layers, float(np.abs(X).max(initial=0.0)))[:, None]
    gaps = np.empty((n, block))
    for start in range(0, points, block):
        stop = min(start + block, points)
        gap = gaps[:, :stop - start]
        for sigmoid in (_sigmoid, expit):
            a = X[start:stop]
            for layer, ((w, b), buf) in enumerate(zip(layers, buffers)):
                if layer:
                    sigmoid(a, out=a)
                z = buf[:, :stop - start]
                np.matmul(a, w, out=z)
                np.add(z, b, out=z)
                a = z
            np.subtract(a[..., 0], _Z0, out=gap)
            np.abs(gap, out=gap)
            if (gap > margin).all():
                break
        np.greater_equal(a[..., 0], _Z0, out=labels[:, start:stop])
    return labels


def _margin(layers, x_max: float) -> np.ndarray:
    """Per transfer, the margin ``M`` that :class:`_GridTiles` keeps
    between its output bounds and ``_Z0``, and :func:`_predict_transferred`
    between its fast outputs and ``_Z0``, for the ``(w, b)`` stacks of
    ``layers`` and inputs of magnitude at most ``x_max``.  See
    :func:`heatmap` for the derivation."""
    eps, eta = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    err, scale = 0.0, x_max  # err is (n, 1) from the first layer on
    for layer, (w, b) in enumerate(layers):
        if layer:
            err, scale = _SIGMOID_EPS * eps + err / 4, 1.0
        terms = 2 * w.shape[1] + 1
        gamma = terms * eps / 2 / (1 - terms * eps / 2)
        err = ((err + gamma * scale) * np.abs(w).sum(axis=1) + gamma * np.abs(b[:, 0])).max(
            axis=1, keepdims=True) + terms * eta
    return 4 * 2 * err[:, 0]


def _output_bounds(layers, boxes) -> tuple[np.ndarray, np.ndarray]:
    """Per transfer and box, shape ``(n, boxes)``, a lower and an upper
    bound on the output pre-activation of the ``(w, b)`` stacks of
    ``layers`` over each input box, given as the row ``[lo, hi]`` of its
    corners.  Interval bound propagation: each layer multiplies ``[lo, hi]``
    by ``[[w+, w-], [w-, w+]]``, the positive and negative parts of its
    weights, so that the new ``lo`` takes the low end of every term and
    ``hi`` the high end, then the sigmoid, which is monotone, maps both."""
    a = boxes
    for layer, (w, b) in enumerate(layers):
        if layer:
            _sigmoid(a, out=a)
        pos, neg = np.maximum(w, 0.0), np.minimum(w, 0.0)
        split = np.concatenate([np.concatenate([pos, neg], axis=2),
                                np.concatenate([neg, pos], axis=2)], axis=1)
        a = a @ split + np.concatenate([b, b], axis=2)
    return a[..., 0], a[..., 1]


class _GridTiles:
    """The cells of a :class:`GridSpec` in square tiles of
    :data:`GRID_TILE` cells per side, with the box of cell centres each
    tile spans.  The cells are held tile by tile, row-major within a tile,
    so that a tile's cells are one run of the arrays; ``rank[i]`` is the
    place of the cell with row-major index ``i``.  Built once per
    :func:`heatmap` call."""

    def __init__(self, grid: GridSpec):
        xs, ys = grid.centers()
        ix, iy = (np.arange(len(v)) // GRID_TILE for v in (xs, ys))
        cell_tile = (iy[:, None] * (ix[-1] + 1) + ix).ravel()
        order = np.argsort(cell_tile, kind="stable")
        self.rank = np.argsort(order)
        self.points = grid.points()[order]
        self.sizes = np.bincount(cell_tile)
        self.x_max = float(max(np.abs(xs).max(), np.abs(ys).max()))
        corners = [np.meshgrid(*(f.reduceat(v, np.arange(0, len(v), GRID_TILE)) for v in (xs, ys)))
                   for f in (np.minimum, np.maximum)]
        self.boxes = np.column_stack([c.ravel() for corner in corners for c in corner])

    def count_ones(self, layers) -> np.ndarray:
        """Per cell, row-major, how many of the transfers whose ``(w, b)``
        stacks are ``layers`` label it 1: the tiles a transfer's bounds
        certify add their label to each of their cells, and the cells of
        the tiles it leaves undecided go through
        :func:`_predict_transferred` for that transfer alone."""
        lo, hi = _output_bounds(layers, self.boxes)
        margin = _margin(layers, self.x_max)[:, None]
        ones = lo - margin > _Z0
        undecided = ~(ones | (hi + margin < _Z0))
        counts = np.repeat(np.count_nonzero(ones, axis=0), self.sizes)
        for t in np.flatnonzero(undecided.any(axis=1)):
            cells = np.flatnonzero(np.repeat(undecided[t], self.sizes))
            alone = [(w[t:t + 1], b[t:t + 1]) for w, b in layers]
            counts[cells] += _predict_transferred(alone, self.points[cells])[0]
        return counts[self.rank]


def _count_transfers(plan: TransferPlan, net: nn.DenseNet, tally, transfers: int, seed: int,
                     tag: int, per_stream: int, group: int) -> np.ndarray:
    """The sum over jobs of ``tally(layers)``, an integer count per point
    of a job's stacked transfers given as their per-layer ``(w, b)``
    stacks ``layers``, over ``transfers`` transfers of ``net``: the one
    counting job of :func:`evaluate_transfers` and :func:`heatmap`.

    Stream rule: transfer ``t`` is drawn from its stream
    ``SeedSequence([seed, tag, t // per_stream])``, where one
    ``plan.draw`` call draws the stream's ``per_stream`` transfers (the
    last stream may hold fewer).  Job ``g`` holds transfers ``g*group`` up
    to the next job's, a whole number of streams: it stacks their draws
    and applies them to the device vector of the net's crossbar matrices
    with one ``plan.apply_devices``, which is elementwise over transfers,
    so each transfer is the one that its stream's draw alone gives.
    ``tally`` labels each transfer independently of the others in the
    stack.  The jobs run in order on the calling thread: each is many small
    numpy calls that hold the GIL, so a thread pool ran them slower, not
    faster.

    The net must pass :meth:`TransferPlan.devices` and ``ranges``, and no
    layer's ``max - min`` may overflow (its transfers would be infinite):
    each raises ``ValueError`` naming the layer before any draw.
    """
    phi = plan.devices(layer_to_crossbar(layer.weights, layer.bias) for layer in net.layers)
    lo, hi, _, span = plan.ranges(phi)
    for k in range(span.size):
        if not math.isfinite(span[k]):
            raise ValueError(f"layer {k + 1} of {span.size}: the weight range "
                             f"[{lo[k]:g}, {hi[k]:g}] overflows: max - min is not finite")
    total = 0  # the first job's counts replace it with an int64 array
    for g in range(-(-transfers // group)):
        starts = range(g * group, min((g + 1) * group, transfers), per_stream)
        draws = [plan.draw(min(per_stream, transfers - t), _stream(seed, tag, t // per_stream))
                 for t in starts]
        phi_prime = plan.apply_devices(phi, TransferNoise.concatenate(draws))[0]
        total += tally([(stack[:, :-1], stack[:, -1:]) for stack in plan.matrices(phi_prime)])
    return total


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

    Counted by :func:`_count_transfers` with ``per_stream = group =``
    :data:`CHUNK`, tallying the labels equal to the test labels: chunk
    ``k`` (the last one may be shorter) is drawn by one
    :meth:`TransferPlan.draw` call from
    stream ``SeedSequence([seed, 100, k])`` and classified in one stacked
    forward pass.  Drawing a chunk at once gives a different Monte-Carlo
    sample than drawing its transfers one by one, as versions before the
    chunked engine did.

    ``workers`` is ignored: the chunks run in order on the calling thread.
    It stays accepted because the layer timings in ``perfbench/layers.py``
    pass it.
    """
    if transfers < 1:
        raise ValueError(f"transfers must be >= 1, got {transfers}")
    points, labels = test_set.points, np.asarray(test_set.labels)

    def correct(layers):
        return np.sum(_predict_transferred(layers, points) == labels, axis=0)

    counts = _count_transfers(TransferPlan(layouts, model, x, y), net, correct, transfers, seed,
                              _STREAM_EVAL, CHUNK, CHUNK)
    return RobustnessReport(counts=counts, transfers=transfers)


@dataclass(frozen=True)
class RobustnessBin:
    label: str
    count: int
    percent: float


def robustness_table(report: RobustnessReport) -> list[RobustnessBin]:
    """Bin test points by correct-percentage across transfers, at the
    :data:`DEFAULT_BIN_EDGES`.

    The top edge, 100, is an exact bin (points every transfer classified
    correctly); interior bins are half-open [low, high); everything below
    the last edge lands in a final "<edge" bin, so the counts sum to the
    test-set size.
    """
    edges = DEFAULT_BIN_EDGES
    pct = report.counts * 100.0 / report.transfers
    bins = [(f"{edges[0]:g}", pct == edges[0])]
    bins += [(f"{lo:g}<=x<{hi:g}", (pct >= lo) & (pct < hi)) for hi, lo in zip(edges, edges[1:])]
    bins.append((f"x<{edges[-1]:g}", pct < edges[-1]))
    n = len(report.counts)
    counts = [(label, int(np.count_nonzero(mask))) for label, mask in bins]
    return [RobustnessBin(label, count, 100.0 * count / n) for label, count in counts]


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
    """Cell-centered evaluation grid over the data space: ``nx`` by ``ny``
    cells over ``extent``, the rectangle ``(x_min, x_max, y_min, y_max)``,
    kept as a tuple."""

    extent: tuple[float, float, float, float] = (-1.5, 2.5, -1.0, 1.5)
    nx: int = 200
    ny: int = 200

    def __post_init__(self):
        extent = tuple(self.extent)
        # lo < hi with a finite hi - lo holds only for finite lo and hi.
        if len(extent) != 4 or not all(lo < hi and math.isfinite(hi - lo)
                                       for lo, hi in (extent[:2], extent[2:])):
            raise ValueError("heatmap.extent must hold 4 numbers with x_min < x_max and "
                             f"y_min < y_max and finite widths, got {list(extent)}")
        object.__setattr__(self, "extent", extent)
        for key in ("nx", "ny"):
            if getattr(self, key) < 1:
                raise ValueError(f"heatmap.{key} must be >= 1, got {getattr(self, key)}")

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        x_min, x_max, y_min, y_max = self.extent
        xs = x_min + (np.arange(self.nx) + 0.5) * (x_max - x_min) / self.nx
        ys = y_min + (np.arange(self.ny) + 0.5) * (y_max - y_min) / self.ny
        return xs, ys

    def points(self) -> np.ndarray:
        xs, ys = self.centers()
        gx, gy = np.meshgrid(xs, ys)
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass(frozen=True)
class HeatmapGrid:
    grid: GridSpec
    mean: np.ndarray  # (ny, nx), mean of binary classifications

    @property
    def std(self) -> np.ndarray:
        """(ny, nx); the outcomes are binary, so this is exactly their
        standard deviation."""
        return np.sqrt(self.mean * (1.0 - self.mean))


def heatmap(
    net: nn.DenseNet,
    model: VariabilityModel,
    layouts: list[TileLayout],
    x: float,
    y: float,
    grid: GridSpec,
    repetitions: int,
    seed: int,
    workers: int = 1,
) -> HeatmapGrid:
    """Classification mean/std per grid cell over repeated transfers.

    One transfer is shared by the whole grid within a repetition (each
    repetition is one network instance classifying the plane).

    The counts of label 1 come from :func:`_count_transfers` with
    ``per_stream = 1`` and ``group =`` :data:`HEATMAP_GROUP`: repetition
    ``i`` is drawn alone by ``plan.draw(1, ...)`` from stream
    ``SeedSequence([seed, 101, i])``, so the grid equals forwarding each
    repetition alone.  ``workers`` is ignored, as by
    :func:`evaluate_transfers`, and stays accepted for the same reason.

    Tile rule: the grid splits into tiles of :data:`GRID_TILE` x
    :data:`GRID_TILE` cells, each spanning the box ``[xs[i0], xs[i1]] x
    [ys[j0], ys[j1]]`` of its cell centres.  :func:`_output_bounds` gives
    per transfer a lower bound ``L`` and an upper bound ``U`` on the output
    pre-activation over each box.  A transfer labels a tile 1 when
    ``L - M > _Z0`` and 0 when ``U + M < _Z0``; both comparisons are
    strict, so a NaN decides nothing.  A job adds up its transfers'
    certified ones per tile and spreads them over the tiles' cells once;
    the cells of a tile that a transfer leaves undecided go through
    :func:`_predict_transferred` for that transfer alone, whose labels are
    exact.  The counts equal those of the reference forward
    ``expit(a @ w + b)`` at every cell, whose label is ``z >= _Z0`` on its
    output ``z``, as long as ``z`` lies in ``[L - M, U + M]``.
    :func:`_margin` makes sure it does.

    Derivation of ``M``, per transfer, by induction over the layers: with
    ``u = eps / 2``, ``gamma_k = k u / (1 - k u)`` and ``e_l`` a bound on
    the pre-activation error of layer ``l``, of the reference forward and
    of :func:`_predict_transferred`'s fast forward against the forward in
    exact arithmetic, and of the computed bounds against the bounds in
    exact arithmetic, whose interval holds the exact forward at every point
    of the box.  A point is a box of zero width, so the derivation covers
    the forward of points too:

    - Layer ``l`` sums, per unit ``j``, at most ``k = 2 fan_in + 1``
      products (the bounds multiply ``[lo, hi]``, twice the fan-in, the
      forwards the inputs, and all add the bias), whose magnitudes add
      up to at most ``A S_j + |b_j|``, with ``S_j = sum_i |w_ij|`` and
      ``A`` a bound on the inputs.  Their rounding is at most
      ``gamma_k (A S_j + |b_j|)``, plus ``k eta`` for underflow, ``eta``
      the smallest subnormal.
    - ``e_1`` is this rounding with ``A = max|x|`` over the grid centres
      (over the points, for :func:`_predict_transferred`): the inputs, the
      weights and the box corners are exact doubles.
    - A sigmoid is off by at most ``s = _SIGMOID_EPS eps`` at a common
      input, whether numpy's or scipy's (each within a few eps of the true
      sigmoid), and its slope is at most 1/4, so its output is off by at
      most ``d = s + e_l / 4``, and it lies in [0, 1], so ``A = 1`` from
      the second layer on.  Unit ``j`` of layer ``l+1`` adds ``d S_j`` to
      its rounding; ``e_(l+1)`` is the largest over ``j``.
    - ``z``, the fast ``z`` and the bounds are each within the output
      layer's ``e`` of their exact values, so ``M = 2 e`` covers the
      distance from ``z`` to either; a safety factor of 4 makes it
      ``8 e``.  An overflow makes ``M`` infinite, which decides nothing.

    The margin barely matters: over 200 repetitions of the default run's
    nets on the default grid, ``M`` was about 4e-13 of the largest weight,
    and the tiles certified 91.7% (HA) and 93.3% (regular) of the cells,
    the same shares as with no margin or one of 1e-9 of the largest
    weight.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    ones = _count_transfers(TransferPlan(layouts, model, x, y), net, _GridTiles(grid).count_ones,
                            repetitions, seed, _STREAM_HEATMAP, 1, HEATMAP_GROUP)
    return HeatmapGrid(grid=grid, mean=(ones / repetitions).reshape(grid.ny, grid.nx))


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
    # Processes.  From 2 on, `run` (run_experiment) runs the regular
    # network's pipeline in a forked child beside the HA one (see
    # _run_pipelines), and `train --hardware-aware` draws the training
    # noise ahead in a forked producer pinned to its own CPU (see
    # training._train).  `run` keeps its HA draws in process, since its
    # second CPU holds the regular pipeline.  `train --regular`,
    # `evaluate` and `heatmap` run in one process.  No output depends on it.
    threads: int = 2

    def __post_init__(self):
        counts = {"transfers": self.transfers, "threads": self.threads,
                  "heatmap.repetitions": self.heatmap_repetitions,
                  "dataset.n_train": self.n_train, "dataset.n_test": self.n_test}
        for key, value in counts.items():
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        if self.model_seed < 0:
            raise ValueError(f"model_seed must be >= 0, got {self.model_seed}")
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"dataset.noise_std must be finite and >= 0, got {self.noise_std}")
        if self.grid.nx * self.grid.ny > MAX_GRID_POINTS:
            raise ValueError(f"heatmap.nx * heatmap.ny must be <= {MAX_GRID_POINTS}, "
                             f"got {self.grid.nx} * {self.grid.ny}")

    def resolve_model(self) -> VariabilityModel:
        if self.model_path is None:
            return make_synthetic_model(self.model_seed)
        return load_model(self.model_path)


# Each config section is a table of config key -> (dataclass field,
# conversion).  Keys a config leaves out keep their dataclass defaults.
_SOURCES = {key: (key, fields.boolean) for key in ("tuning", "bias", "stuck")}
_TRAINING = {
    "architecture": ("architecture", fields.list_of(fields.integer)),
    "batch_size": ("batch_size", fields.integer),
    "learning_rate": ("lr", fields.real),
    "epochs": ("epochs", fields.integer),
    "hrs_fraction": ("hrs_fraction", fields.real),
    "lrs_fraction": ("lrs_fraction", fields.real),
    "seed": ("seed", fields.integer),
    "tile": ("tile", fields.list_of(fields.integer)),
    "sources": ("sources", lambda doc: SourceToggles(**fields.section(doc, _SOURCES)[0])),
}
_EXPERIMENT = {
    "model_path": ("model_path", fields.string),
    "model_seed": ("model_seed", fields.integer),
    "transfers": ("transfers", fields.integer),
    "threads": ("threads", fields.integer),
}
_DATASET = {
    "n_train": ("n_train", fields.integer),
    "n_test": ("n_test", fields.integer),
    "noise_std": ("noise_std", fields.real),
}
_GRID = {
    "extent": ("extent", fields.list_of(fields.real)),
    "nx": ("nx", fields.integer),
    "ny": ("ny", fields.integer),
}
_HEATMAP = {"repetitions": ("heatmap_repetitions", fields.integer)}
# The nested sections; each reads into one keyword dict per table.
_SECTIONS = {
    "dataset": ("dataset", lambda doc: fields.section(doc, _DATASET)),
    "heatmap": ("heatmap", lambda doc: fields.section(doc, _GRID, _HEATMAP)),
}


def experiment_config_from_dict(doc: dict, context: str = "config") -> ExperimentConfig:
    try:
        training, experiment, sections = fields.section(doc, _TRAINING, _EXPERIMENT, _SECTIONS)
        (dataset,) = sections.get("dataset", [{}])
        grid, heat = sections.get("heatmap", [{}, {}])
        return ExperimentConfig(
            training=TrainingConfig(**training),
            grid=GridSpec(**grid),
            **experiment,
            **dataset,
            **heat,
        )
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def read_config(path) -> tuple[dict, ExperimentConfig]:
    """The JSON document of a config file and the config it describes."""
    doc = fields.read_json(path, ConfigError, "config file")
    return doc, experiment_config_from_dict(doc, context=f"config file {path}")


def load_experiment_config(path) -> ExperimentConfig:
    return read_config(path)[1]


def experiment_dataset(config: ExperimentConfig) -> tuple[LabeledSet, LabeledSet]:
    # A finite noise_std can still overflow a point, which LabeledSet rejects.
    try:
        with np.errstate(over="ignore"):
            full = make_half_moons(config.n_train + config.n_test, noise_std=config.noise_std,
                                   seed=_stream(config.training.seed, _STREAM_DATASET))
    except ValueError:
        raise ValueError(f"dataset.noise_std must leave the points finite, "
                         f"got {config.noise_std}") from None
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
    """One ``x,y,mean,std`` row per cell, row-major from the lowest y, each
    value written as its ``repr``.

    Each x, each y and each distinct mean, with its std, is formatted
    once; a heatmap of M repetitions has at most M + 1 distinct means.
    Means are told apart by their bit patterns, and the std is a function
    of the mean, so the bytes are those of formatting every cell.
    """
    xs, ys = hm.grid.centers()
    xs = [f"{xv!r}," for xv in xs.tolist()]
    means, index = np.unique(hm.mean.ravel().view(np.int64), return_inverse=True)
    means = means.view(np.float64)
    stds = np.sqrt(means * (1.0 - means))
    cells = [f",{m!r},{s!r}" for m, s in zip(means.tolist(), stds.tolist())]
    lines = ["x,y,mean,std"]
    for yv, row in zip(ys.tolist(), index.reshape(hm.mean.shape).tolist()):
        yv = repr(yv)
        lines += [xv + yv + cells[k] for xv, k in zip(xs, row)]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _timed(stage: str, fn, *args, rate: tuple[int, str], lines: list[str] | None = None,
           **kwargs):
    """``fn(*args, **kwargs)``, with its wall time and ``rate = (count,
    unit)`` per second printed to stderr as ``stage: T s, R unit/s``, or
    appended to ``lines`` when given.  Wall times stay out of the
    artifacts, which reruns must reproduce byte for byte."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    line = f"{stage}: {elapsed:.2f} s, {rate[0] / elapsed:.0f} {rate[1]}/s"
    if lines is None:
        print(line, file=sys.stderr)
    else:
        lines.append(line)
    return result


def _pipeline(name: str, config: ExperimentConfig, model: VariabilityModel, train_set: LabeledSet,
              test_set: LabeledSet, layouts: list[TileLayout]):
    """Train the ``name`` network of :func:`run_experiment`
    (``hardware_aware`` or ``regular``), evaluate its transfers and draw
    its heatmap.  Returns the net, its report, its heatmap and its three
    stage lines (see :func:`_timed`), in that order."""
    tc, lines = config.training, []
    train, extra = ((train_hardware_aware, {"model": model}) if name == "hardware_aware"
                    else (train_regular, {}))
    net = _timed(f"{name} training", train, tc, train_set, **extra,
                 rate=(tc.steps(len(train_set)), "steps"), lines=lines)
    report = _timed(f"{name} evaluation", evaluate_transfers, net, model, layouts, tc.hrs_fraction,
                    tc.lrs_fraction, test_set, config.transfers, tc.seed,
                    rate=(config.transfers, "transfers"), lines=lines)
    hm = _timed(f"{name} heatmap", heatmap, net, model, layouts, tc.hrs_fraction, tc.lrs_fraction,
                config.grid, repetitions=config.heatmap_repetitions, seed=tc.seed,
                rate=(config.heatmap_repetitions, "repetitions"), lines=lines)
    return net, report, hm, lines


def _peak_rss_mb() -> float:
    """This process's peak resident memory in MB (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measured(fn, *args):
    """``fn(*args)`` and the peak resident memory of the process that ran it."""
    return fn(*args), _peak_rss_mb()


def _run_pipelines(config: ExperimentConfig, *args) -> tuple[dict, float | None]:
    """:func:`_pipeline`'s result per network, HA first, and the child
    process's peak RSS in MB, or None without one.

    At ``config.threads`` 1 both pipelines run here, one after the other.
    At 2 or more the regular one runs in a forked child while this process
    runs the HA one; they share nothing but their inputs, so each result is
    the one a serial run gives.  An exception in either pipeline is raised
    here once the child is done, and the child never outlives the call.
    """
    if config.threads < 2:
        return {name: _pipeline(name, config, *args) for name in ("hardware_aware", "regular")}, None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        regular = pool.submit(_measured, _pipeline, "regular", config, *args)
        results = {"hardware_aware": _pipeline("hardware_aware", config, *args)}
        results["regular"], child_rss = regular.result()
    return results, child_rss


def run_experiment(config, out_dir, config_doc: dict | None = None) -> list[Path]:
    """Full pipeline: train both networks, evaluate N transfers, write artifacts.

    ``config`` is an :class:`ExperimentConfig` or a path to a JSON config
    file.  Writes report.json, manifest.json, and per-network table.csv,
    curve.csv, heatmap.csv and checkpoint.json under ``out_dir``.  The same
    config always produces byte-identical artifacts, at any
    ``config.threads``, so the wall time of each stage (training,
    evaluation and heatmap of each network), and the training steps,
    transfers or repetitions per second of each, go to stderr, not into
    them.  The stage lines are printed once both pipelines are done, in
    the order of a run that trains both nets before it judges either; a
    last line gives the peak resident memory of this process and, at
    ``threads`` 2 or more, of the child (see :func:`_run_pipelines`).
    """
    if not isinstance(config, ExperimentConfig):
        config_doc, config = read_config(config)
    model = config.resolve_model()
    train_set, test_set = experiment_dataset(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    layouts = layouts_for_architecture(config.training.architecture, *config.training.tile)
    nn._expit()  # load scipy once, before the fork and outside the timed stages
    results, child_rss = _run_pipelines(config, model, train_set, test_set, layouts)
    stage_lines = [lines[0] for *_, lines in results.values()]
    stage_lines += [line for *_, lines in results.values() for line in lines[1:]]
    for line in stage_lines:
        print(line, file=sys.stderr)

    written: list[Path] = []
    report_networks = {}
    for name, (net, report, hm, _) in results.items():
        sub = out / name
        sub.mkdir(exist_ok=True)
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
        "seed": config.training.seed,
        "transfers": config.transfers,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": config_doc,
        "artifacts": sorted(str(p.relative_to(out)) for p in written),
    })
    written.append(out / "manifest.json")
    child = f", child {child_rss:.1f} MB" if child_rss is not None else ""
    print(f"peak rss: parent {_peak_rss_mb():.1f} MB{child}", file=sys.stderr)
    return written
