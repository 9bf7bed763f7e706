"""Simulated ex-situ transfer of a weight matrix onto a crossbar.

A signed weight matrix is split into non-negative differential components,
min-max scaled into the achievable conductance window, corrupted by the
fitted variability sources (stuck substitution, tuning noise, biasing
disturbance), and mapped back into weight units.  The result is the weight
matrix an ideal vector-matrix multiply would effectively see after one
programming pass of the crossbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .variability import ConductanceRange

if TYPE_CHECKING:  # pragma: no cover
    from .nn import DenseNet
    from .variability import VariabilityModel

__all__ = [
    "ConductanceRange",
    "WeightRangeSnapshot",
    "TileLayout",
    "TransferOutcome",
    "TransferPlan",
    "TransferNoise",
    "split_signed",
    "to_conductance",
    "from_conductance",
    "perturb_conductance",
    "simulate_transfer",
    "layer_to_crossbar",
    "layouts_for_architecture",
]


@dataclass(frozen=True)
class WeightRangeSnapshot:
    """min / max / max-abs of a weight matrix at conversion time.

    The conversion into conductances is relative to these values, so they
    must be re-taken whenever the weights change.
    """

    phi_min: float
    phi_max: float
    phi_absmax: float

    def __post_init__(self):
        if not self.phi_min <= self.phi_max:
            raise ValueError(f"phi_min {self.phi_min} > phi_max {self.phi_max}")
        if not self.phi_absmax > 0:
            raise ValueError("phi_absmax must be positive (all-zero matrices cannot be converted)")
        if self.phi_absmax != max(abs(self.phi_min), abs(self.phi_max)):
            raise ValueError("phi_absmax inconsistent with phi_min/phi_max")

    @classmethod
    def of_matrix(cls, phi) -> "WeightRangeSnapshot":
        phi = np.asarray(phi, dtype=float)
        lo = float(phi.min())
        hi = float(phi.max())
        absmax = max(abs(lo), abs(hi))
        if absmax == 0.0:
            raise ValueError("cannot snapshot an all-zero weight matrix")
        if not math.isfinite(absmax):
            raise ValueError("cannot snapshot a weight matrix with non-finite entries")
        return cls(lo, hi, absmax)


@dataclass(frozen=True)
class TileLayout:
    """Crossbar placement of one weight matrix, with per-device n_d.

    The weight matrix is laid out as (input lines) x (outputs); each weight
    occupies a differential device pair in adjacent columns, giving a
    device grid of ``n_rows x 2*n_cols`` that is partitioned into tiles of
    at most ``rows x cols`` devices.  Devices are programmed row-major
    within a tile (top to bottom, left to right), so the device programmed
    last in its tile has ``n_d = 0``.
    """

    rows: int
    cols: int
    weight_shape: tuple[int, int]
    nd_plus: np.ndarray
    nd_minus: np.ndarray

    @classmethod
    def for_weight_matrix(cls, n_rows: int, n_cols: int, rows: int = 8, cols: int = 8) -> "TileLayout":
        if n_rows < 1 or n_cols < 1:
            raise ValueError(f"weight matrix shape must be positive, got {(n_rows, n_cols)}")
        if rows < 1 or cols < 1:
            raise ValueError(f"tile shape must be positive, got {(rows, cols)}")
        grid = _nd_grid(n_rows, 2 * n_cols, rows, cols)
        layout = cls(
            rows=rows,
            cols=cols,
            weight_shape=(n_rows, n_cols),
            nd_plus=grid[:, 0::2].copy(),
            nd_minus=grid[:, 1::2].copy(),
        )
        layout.nd_plus.setflags(write=False)
        layout.nd_minus.setflags(write=False)
        return layout


def _nd_grid(n_rows: int, n_cols: int, tile_rows: int, tile_cols: int) -> np.ndarray:
    """n_d per device for a grid partitioned into row-major-programmed tiles."""
    nd = np.empty((n_rows, n_cols), dtype=np.int64)
    for r0 in range(0, n_rows, tile_rows):
        r1 = min(r0 + tile_rows, n_rows)
        for c0 in range(0, n_cols, tile_cols):
            c1 = min(c0 + tile_cols, n_cols)
            height, width = r1 - r0, c1 - c0
            order = np.arange(height * width, dtype=np.int64).reshape(height, width)
            nd[r0:r1, c0:c1] = height * width - 1 - order
    return nd


@dataclass(frozen=True)
class TransferOutcome:
    """Simulated transfers of one matrix: perturbed weights and the stuck
    positions, shaped like the matrix, or ``(n, *shape)`` for ``n`` draws,
    and the weight range the conversion used."""

    phi_prime: np.ndarray
    stuck_mask: np.ndarray
    snapshot: WeightRangeSnapshot | None = None

    def __post_init__(self):
        if self.phi_prime.shape != self.stuck_mask.shape:
            raise ValueError(
                f"shape mismatch: phi_prime {self.phi_prime.shape} vs mask {self.stuck_mask.shape}"
            )


def split_signed(phi) -> tuple[np.ndarray, np.ndarray]:
    """Split into non-negative components with phi = plus - minus."""
    phi = np.asarray(phi, dtype=float)
    return np.maximum(phi, 0.0), np.maximum(-phi, 0.0)


def to_conductance(phi_component, snap: WeightRangeSnapshot, crange: ConductanceRange) -> np.ndarray:
    """Min-max scale a non-negative weight component into [g_min, g_max] uS."""
    phi = np.asarray(phi_component, dtype=float)
    if np.any(phi < 0):
        raise ValueError("weight components must be non-negative; split the matrix first")
    return _scale(phi, snap.phi_absmax, crange)


def _scale(phi, phi_absmax, crange: ConductanceRange):
    return phi / phi_absmax * (crange.g_max - crange.g_min) + crange.g_min


def from_conductance(
    g_plus, g_minus, snap: WeightRangeSnapshot, crange: ConductanceRange
) -> np.ndarray:
    """Map a differential conductance pair back into weight units.

    Affine in (g_plus - g_minus); out-of-window conductances (e.g. an LRS
    substitution above g_max) map to weights outside the snapshot range,
    exactly as an over-conductive device would corrupt the multiply.
    """
    g_plus = np.asarray(g_plus, dtype=float)
    g_minus = np.asarray(g_minus, dtype=float)
    if not (np.all(np.isfinite(g_plus)) and np.all(np.isfinite(g_minus))):
        raise ValueError("conductances must be finite")
    return _unscale(g_plus, g_minus, snap.phi_min, snap.phi_max - snap.phi_min, crange)


def _unscale(g_plus, g_minus, phi_min, phi_span, crange: ConductanceRange):
    delta = g_plus - g_minus
    lo = crange.g_min - crange.g_max
    hi = crange.g_max - crange.g_min
    scaled = (delta - lo) / (hi - lo)
    return scaled * phi_span + phi_min


def perturb_conductance(g, n_d, model: "VariabilityModel", rng: np.random.Generator) -> np.ndarray:
    """Tuning-imprecision + offset + biasing-disturbance noise on target conductances.

    Per entry: Normal(g, abs_std(g)^2) + Normal(abs_mu(g), abs_sigma(g)^2)
    + one disturbance draw for the entry's n_d, clamped to >= 0 uS.
    """
    g = np.asarray(g, dtype=float)
    n_d = np.asarray(n_d)
    if n_d.shape != g.shape:
        raise ValueError(f"n_d shape {n_d.shape} must match g shape {g.shape}")
    tol = 1e-9
    if np.any(g < model.range.g_min - tol) or np.any(g > model.range.g_max + tol):
        raise ValueError(
            f"target conductances must lie within [{model.range.g_min}, {model.range.g_max}] uS"
        )
    normals = rng.standard_normal((2, *g.shape))
    return _perturb(g, normals[0], normals[1], model.bias_db.lookup(n_d).sample(rng)[0], model)


def _perturb(g, tuning, offset, disturbance, model: "VariabilityModel"):
    """Noisy copies of the targets ``g`` from standard-normal ``tuning`` and
    ``offset`` draws and ``disturbance`` values (broadcast against ``g``)."""
    noisy = (
        g
        + tuning * model.std_model.abs_std(g)
        + model.offset_model.abs_mu(g)
        + offset * model.offset_model.abs_sigma(g)
        + disturbance
    )
    return np.maximum(noisy, 0.0, out=noisy)


# Multiplies a device vector into its (plus, minus) components before
# clamping at 0.
_POLARITY = np.array([1.0, -1.0])[:, None]


def _transfer(phi, phi_min, phi_span, phi_absmax, noise: "TransferNoise",
              model: "VariabilityModel"):
    """The transferred entries ``phi'`` of the device vector ``phi`` for
    the transfers that ``noise`` draws: split -> to_conductance ->
    tuning/bias noise -> stuck substitution -> from_conductance, on the
    plus and minus components stacked.

    The snapshot values (min, max - min and max-abs) are scalars or
    per-device arrays like ``phi``.  Every step is elementwise, so an
    entry's result depends only on its value, its draws and its snapshot
    values, whatever array it is applied in.  Stuck components keep their
    substituted values and are exempt from the tuning and disturbance noise
    (a stuck device is never tuned).
    """
    crange = model.range
    g = _scale(np.maximum(_POLARITY * phi, 0.0), phi_absmax, crange)[:, None]
    final = _perturb(g, noise.normals[:, 0], noise.normals[:, 1], noise.disturbance, model)
    if noise.stuck_values is not None:
        np.copyto(final, noise.stuck_values, where=noise.stuck)
    return _unscale(final[0], final[1], phi_min, phi_span, crange)


class TransferNoise(NamedTuple):
    """The weight-independent draws of ``n`` transfers of the crossbar
    devices of every layout of a plan, in its device order (see
    :class:`TransferPlan`), on the last axis.  Every array stacks the plus
    then the minus components on axis 0: ``stuck`` and ``stuck_values``
    are ``(2, n, devices)``, ``normals`` is ``(2, 2, n, devices)`` with the
    tuning then the offset normals on axis 1, and ``disturbance`` holds the
    biasing-disturbance values.  ``stuck_values`` is zero where no device
    is stuck, and None when no device of the draw is stuck."""

    stuck: np.ndarray
    stuck_values: np.ndarray | None
    normals: np.ndarray
    disturbance: np.ndarray

    @classmethod
    def concatenate(cls, noises) -> "TransferNoise":
        """The draws of several :meth:`TransferPlan.draw` calls as one
        stack, their transfers in call order.  A draw with no stuck device
        contributes zero ``stuck_values``, which :func:`_transfer` never
        selects."""
        if len(noises) == 1:
            return noises[0]
        values = None
        if any(noise.stuck_values is not None for noise in noises):
            values = np.concatenate([np.zeros(noise.stuck.shape) if noise.stuck_values is None
                                     else noise.stuck_values for noise in noises], axis=1)
        return cls(np.concatenate([noise.stuck for noise in noises], axis=1), values,
                   np.concatenate([noise.normals for noise in noises], axis=2),
                   np.concatenate([noise.disturbance for noise in noises], axis=1))


class TransferPlan:
    """The transfer pipeline for a fixed set of crossbars, ready to sample.

    Built once per ``(layouts, model, x, y)``: the stuck fractions and the
    finiteness of the model are checked and every layout's n_d matrices are
    resolved against the bias database here, so sampling repeats none of
    that.

    Devices are numbered in one flat order: each layout's crossbar matrix
    row-major (the bias row of a dense layer last), layout after layout.
    :meth:`draw` makes every random draw over that order, none of which
    depends on the weights.  :meth:`apply_devices` combines draws with the
    flat device vector of every layout at once: the arithmetic,
    :func:`_transfer`, is elementwise per device given its layout's
    snapshot values, which are broadcast per device, and vectorized over
    transfers.  :meth:`apply` and :meth:`apply_net` do the same for a list
    of crossbar matrices or a net and return one :class:`TransferOutcome`
    per matrix; the Monte-Carlo counts draw several streams and apply their
    stacked draws at once, and :func:`simulate_transfer` transfers one
    matrix.  Training gathers the device vector from the flat parameter
    vector ``AdamState.params`` through one index fixed per architecture
    (see :mod:`xbartrain.training`) and calls :meth:`apply_devices`.

    Stream contract: :meth:`draw` draws layout by layout.  For each layout
    it draws the stuck uniforms, HRS values and LRS values of the plus then
    the minus components; then, again plus then minus, the tuning and
    offset normals (one call of twice the size, which yields the bits of
    two calls) and the disturbance picks.  With ``n = 1`` this consumes the
    generator exactly as the per-matrix pipeline always has, so training
    draws (one transfer per batch) are unchanged.  With ``n > 1`` each draw
    is made for all ``n`` transfers at once, so the result is a different
    Monte-Carlo sample than ``n`` successive single transfers from the same
    generator.
    """

    def __init__(self, layouts, model: "VariabilityModel", x: float, y: float):
        if x < 0 or y < 0:
            raise ValueError(f"stuck fractions must be >= 0, got x={x}, y={y}")
        if x + y > 1:
            raise ValueError(f"stuck fractions must satisfy x + y <= 1, got x={x}, y={y}")
        model.check_finite()
        self.layouts = tuple(layouts)
        self.model = model
        self.x = x
        self.y = y
        self._bias = [
            (model.bias_db.lookup(layout.nd_plus.ravel()),
             model.bias_db.lookup(layout.nd_minus.ravel()))
            for layout in self.layouts
        ]
        sizes = [math.prod(layout.weight_shape) for layout in self.layouts]
        # Where each layout's devices start and end in the device order, and
        # the (min, max - min, max-abs) rows of apply_devices' snapshot
        # array for every device.
        self._starts = np.cumsum([0, *sizes])
        self._spans = list(zip(self._starts[:-1].tolist(), self._starts[1:].tolist()))
        self._per_device = np.ix_([0, 3, 2], np.repeat(np.arange(len(sizes)), sizes))

    def draw(self, n: int, rng: np.random.Generator) -> TransferNoise:
        """The draws of ``n`` transfers of every layout.

        A component is stuck where its uniform ``u < x + y``: in HRS where
        ``u < x`` and in LRS otherwise.
        """
        devices = self._spans[-1][1]
        stuck = np.empty((2, n, devices), dtype=bool)
        normals = np.empty((2, 2, n, devices))
        disturbance = np.empty((2, n, devices))
        values = None
        stuck_model = self.model.stuck_model
        for k, (start, stop) in enumerate(self._spans):
            shape = (n, stop - start)
            for pol in range(2):
                u = rng.random(shape)
                layout_stuck = stuck[pol, :, start:stop]
                count = np.count_nonzero(np.less(u, self.x + self.y, out=layout_stuck))
                if count:
                    hrs = u < self.x
                    n_hrs = np.count_nonzero(hrs)
                    if values is None:
                        values = np.zeros(stuck.shape)
                    layout_values = values[pol, :, start:stop]
                    if n_hrs:
                        layout_values[hrs] = stuck_model.sample_hrs(rng, size=n_hrs)
                    if count - n_hrs:
                        layout_values[layout_stuck ^ hrs] = stuck_model.sample_lrs(
                            rng, size=count - n_hrs)
            for pol, bias in enumerate(self._bias[k]):
                normals[pol, :, :, start:stop] = rng.standard_normal((2, *shape))
                disturbance[pol, :, start:stop] = bias.sample(rng, n)
        return TransferNoise(stuck, values, normals, disturbance)

    def apply_devices(self, phi, noise: TransferNoise):
        """The transfers that ``noise`` draws, applied to the flat device
        vector ``phi`` of every layout.

        Returns ``(phi_prime, stuck_mask, ranges)``: ``(n, devices)``
        arrays in the order of ``phi``, and the ``(3, layouts)`` array of
        each layout's snapshot values (min, max, max-abs) that the
        conversion used.  A layout whose matrix cannot be snapshot raises
        the error of :meth:`WeightRangeSnapshot.of_matrix`.
        """
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self._per_device[1].shape[1:]:
            raise ValueError(f"phi shape {phi.shape} does not match the "
                             f"{self._per_device[1].size} devices of the layouts")
        ranges = np.empty((4, len(self.layouts)))
        lo, hi, absmax, span = ranges
        np.minimum.reduceat(phi, self._starts[:-1], out=lo)
        np.maximum.reduceat(phi, self._starts[:-1], out=hi)
        np.maximum(-lo, hi, out=absmax)  # = max(|lo|, |hi|) as lo <= hi
        if not 0.0 < absmax.min() < math.inf:
            for segment in np.split(phi, self._starts[1:-1]):
                WeightRangeSnapshot.of_matrix(segment)
        # Overflows only where a per-matrix snapshot's float subtraction
        # gives inf, which the effective weights then report.
        with np.errstate(over="ignore"):
            np.subtract(hi, lo, out=span)
        lo, span, absmax = ranges[self._per_device]
        phi_prime = _transfer(phi, lo, span, absmax, noise, self.model)
        return phi_prime, noise.stuck[0] | noise.stuck[1], ranges[:3]

    def apply(self, crossbars, noise: TransferNoise) -> list[TransferOutcome]:
        """The transfers of the crossbar matrices ``crossbars``, one per
        layout, that ``noise`` draws: one :class:`TransferOutcome` of
        ``(n, rows, cols)`` arrays per matrix, with its snapshot."""
        crossbars = [np.asarray(phi, dtype=float) for phi in crossbars]
        shapes = [phi.shape for phi in crossbars]
        if shapes != [layout.weight_shape for layout in self.layouts]:
            raise ValueError(f"crossbar shapes {shapes} do not match the layouts "
                             f"{[layout.weight_shape for layout in self.layouts]}")
        phi_prime, stuck, ranges = self.apply_devices(
            np.concatenate([phi.ravel() for phi in crossbars]), noise)
        n = phi_prime.shape[0]
        return [TransferOutcome(phi_prime[:, start:stop].reshape(n, *shape),
                                stuck[:, start:stop].reshape(n, *shape),
                                WeightRangeSnapshot(*map(float, ranges[:, k])))
                for k, ((start, stop), shape) in enumerate(zip(self._spans, shapes))]

    def apply_net(self, net: "DenseNet", noise: TransferNoise) -> list[TransferOutcome]:
        """:meth:`apply` to the crossbar matrices of every layer of ``net``
        (bias row included): ``(n, fan_in + 1, fan_out)`` arrays per
        layer."""
        if len(net.layers) != len(self.layouts):
            raise ValueError(f"{len(net.layers)} layers but {len(self.layouts)} layouts")
        return self.apply([layer_to_crossbar(layer.weights, layer.bias) for layer in net.layers],
                          noise)


def simulate_transfer(
    phi,
    layout: TileLayout,
    model: "VariabilityModel",
    x: float,
    y: float,
    rng: np.random.Generator,
) -> TransferOutcome:
    """One Monte-Carlo draw of the full transfer pipeline for one matrix
    (see :meth:`TransferPlan.apply`)."""
    plan = TransferPlan([layout], model, x, y)
    (outcome,) = plan.apply([phi], plan.draw(1, rng))
    return TransferOutcome(outcome.phi_prime[0], outcome.stuck_mask[0], outcome.snapshot)


# ---------------------------------------------------------------------------
# Dense-layer placement
# ---------------------------------------------------------------------------


def layer_to_crossbar(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Arrange a dense layer as its crossbar matrix: inputs (plus a fixed
    bias line as the final input row) by outputs."""
    weights = np.asarray(weights, dtype=float)
    return np.concatenate([weights.T, np.asarray(bias, dtype=float)[None, :]])


def layouts_for_architecture(sizes, rows: int = 8, cols: int = 8) -> list[TileLayout]:
    """One TileLayout per dense layer of a feed-forward architecture."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError(f"architecture needs at least two layer sizes, got {sizes}")
    return [
        TileLayout.for_weight_matrix(fan_in + 1, fan_out, rows=rows, cols=cols)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ]
