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
from typing import TYPE_CHECKING

import numpy as np

from .variability import ConductanceRange

if TYPE_CHECKING:  # pragma: no cover
    from .nn import DenseNet
    from .variability import BiasLookup, StuckModel, VariabilityModel

__all__ = [
    "ConductanceRange",
    "WeightRangeSnapshot",
    "TileLayout",
    "TransferOutcome",
    "TransferPlan",
    "split_signed",
    "to_conductance",
    "from_conductance",
    "perturb_conductance",
    "simulate_transfer",
    "layer_to_crossbar",
    "crossbar_to_layer",
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
    positions, shaped like the matrix, or ``(n, *shape)`` for ``n`` draws."""

    phi_prime: np.ndarray
    stuck_mask: np.ndarray

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
    return _scale(phi, snap, crange)


def _scale(phi, snap: WeightRangeSnapshot, crange: ConductanceRange):
    return phi / snap.phi_absmax * (crange.g_max - crange.g_min) + crange.g_min


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
    return _unscale(g_plus, g_minus, snap, crange)


def _unscale(g_plus, g_minus, snap: WeightRangeSnapshot, crange: ConductanceRange):
    delta = g_plus - g_minus
    lo = crange.g_min - crange.g_max
    hi = crange.g_max - crange.g_min
    scaled = (delta - lo) / (hi - lo)
    return scaled * (snap.phi_max - snap.phi_min) + snap.phi_min


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
    return _perturb(g, model.bias_db.lookup(n_d), model, 1, rng)[0]


def _perturb(g, bias: "BiasLookup", model: "VariabilityModel", n: int, rng: np.random.Generator):
    """``n`` noisy copies of ``g``, shape ``(n, *g.shape)``; draws z1, z2,
    then the disturbance picks."""
    shape = (n, *g.shape)
    noisy = (
        g
        + rng.standard_normal(shape) * model.std_model.abs_std(g)
        + model.offset_model.abs_mu(g)
        + rng.standard_normal(shape) * model.offset_model.abs_sigma(g)
        + bias.sample(rng, n)
    )
    return np.maximum(noisy, 0.0)


def _stuck_components(shape, x: float, y: float, stuck_model: "StuckModel", rng: np.random.Generator):
    """Select and draw stuck values for one polarity: (mask, values).

    HRS is ``u < x`` and LRS is ``x <= u < x + y``; as ``x <= x + y``, the
    stuck mask is ``u < x + y`` and LRS is the mask without HRS.
    """
    u = rng.random(shape)
    hrs = u < x
    stuck = u < x + y
    values = np.zeros(shape)
    n_hrs = np.count_nonzero(hrs)
    n_lrs = np.count_nonzero(stuck) - n_hrs
    if n_hrs:
        values[hrs] = stuck_model.sample_hrs(rng, size=n_hrs)
    if n_lrs:
        values[stuck ^ hrs] = stuck_model.sample_lrs(rng, size=n_lrs)
    return stuck, values


class TransferPlan:
    """The transfer pipeline for a fixed set of crossbars, ready to sample.

    Built once per ``(layouts, model, x, y)``: the stuck fractions and the
    finiteness of the model are checked and every layout's n_d matrices are
    resolved against the bias database here, so sampling repeats none of
    that.  Drawing is vectorized over transfers: :meth:`sample` returns
    ``n`` whole-network transfers as ``(n, fan_in + 1, fan_out)`` stacks
    per layer.

    Stream contract: each layer draws, in layer order, the stuck selection
    and values of the plus then the minus components, then the tuning
    normal, offset normal and disturbance picks of the plus then the minus
    components.  With ``n = 1`` this consumes the generator exactly as the
    per-matrix pipeline always has, so training draws (one transfer per
    batch) are unchanged.  With ``n > 1`` each draw is made for all ``n``
    transfers at once, so the result is a different Monte-Carlo sample than
    ``n`` successive single transfers from the same generator.
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
            (model.bias_db.lookup(layout.nd_plus), model.bias_db.lookup(layout.nd_minus))
            for layout in self.layouts
        ]

    def sample(self, net: "DenseNet", n: int, rng: np.random.Generator) -> list[TransferOutcome]:
        """``n`` simulated transfers of every layer (bias row included),
        one :class:`TransferOutcome` of ``(n, fan_in + 1, fan_out)`` arrays
        per layer."""
        if len(net.layers) != len(self.layouts):
            raise ValueError(f"{len(net.layers)} layers but {len(self.layouts)} layouts")
        return [
            self.sample_matrix(layer_to_crossbar(layer.weights, layer.bias), k, n, rng)
            for k, layer in enumerate(net.layers)
        ]

    def sample_matrix(self, phi, k: int, n: int, rng: np.random.Generator) -> TransferOutcome:
        """``n`` simulated transfers of one crossbar matrix onto layout ``k``.

        split -> to_conductance -> stuck substitution -> tuning/bias noise
        -> from_conductance.  Stuck components keep their substituted
        values and are exempt from the tuning and disturbance noise (a
        stuck device is never tuned).
        """
        layout = self.layouts[k]
        phi = np.asarray(phi, dtype=float)
        if phi.shape != layout.weight_shape:
            raise ValueError(f"phi shape {phi.shape} does not match layout {layout.weight_shape}")
        model = self.model
        snap = WeightRangeSnapshot.of_matrix(phi)
        plus, minus = split_signed(phi)
        g_plus = _scale(plus, snap, model.range)
        g_minus = _scale(minus, snap, model.range)

        shape = (n, *phi.shape)
        mask_p, vals_p = _stuck_components(shape, self.x, self.y, model.stuck_model, rng)
        mask_m, vals_m = _stuck_components(shape, self.x, self.y, model.stuck_model, rng)
        bias_p, bias_m = self._bias[k]
        noisy_p = _perturb(g_plus, bias_p, model, n, rng)
        noisy_m = _perturb(g_minus, bias_m, model, n, rng)

        final_p = np.where(mask_p, vals_p, noisy_p)
        final_m = np.where(mask_m, vals_m, noisy_m)
        phi_prime = _unscale(final_p, final_m, snap, model.range)
        return TransferOutcome(phi_prime=phi_prime, stuck_mask=mask_p | mask_m)


def simulate_transfer(
    phi,
    layout: TileLayout,
    model: "VariabilityModel",
    x: float,
    y: float,
    rng: np.random.Generator,
) -> TransferOutcome:
    """One Monte-Carlo draw of the full transfer pipeline for one matrix
    (see :meth:`TransferPlan.sample_matrix`)."""
    outcome = TransferPlan([layout], model, x, y).sample_matrix(phi, 0, 1, rng)
    return TransferOutcome(phi_prime=outcome.phi_prime[0], stuck_mask=outcome.stuck_mask[0])


# ---------------------------------------------------------------------------
# Dense-layer placement
# ---------------------------------------------------------------------------


def layer_to_crossbar(weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Arrange a dense layer as its crossbar matrix: inputs (plus a fixed
    bias line as the final input row) by outputs."""
    return np.vstack([np.asarray(weights, dtype=float).T, np.asarray(bias, dtype=float)[None, :]])


def crossbar_to_layer(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`layer_to_crossbar`."""
    matrix = np.asarray(matrix)
    return matrix[:-1].T.copy(), matrix[-1].copy()


def layouts_for_architecture(sizes, rows: int = 8, cols: int = 8) -> list[TileLayout]:
    """One TileLayout per dense layer of a feed-forward architecture."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError(f"architecture needs at least two layer sizes, got {sizes}")
    return [
        TileLayout.for_weight_matrix(fan_in + 1, fan_out, rows=rows, cols=cols)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:])
    ]
