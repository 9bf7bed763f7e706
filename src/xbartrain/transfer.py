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


# Multiplies a matrix into its (plus, minus) components before clamping at 0.
_POLARITY = np.array([1.0, -1.0])[:, None, None]


class TransferNoise(NamedTuple):
    """The weight-independent draws of ``n`` transfers of the crossbar
    matrix on layout ``k``.  Every array stacks the plus then the minus
    components on axis 0: ``stuck`` and ``stuck_values`` are
    ``(2, n, rows, cols)``, ``normals`` is ``(2, 2, n, rows, cols)`` with
    the tuning then the offset normals on axis 1, and ``disturbance`` holds
    the biasing-disturbance values.  ``stuck_values`` is None when no
    device is stuck."""

    k: int
    stuck: np.ndarray
    stuck_values: np.ndarray | None
    normals: np.ndarray
    disturbance: np.ndarray

    @classmethod
    def concatenate(cls, noises) -> "TransferNoise":
        """The draws of one layout from several :meth:`TransferPlan.draw`
        calls as one stack, their transfers in call order.  A draw with no
        stuck device contributes zero ``stuck_values``, which
        :meth:`TransferPlan.apply` never selects."""
        if len(noises) == 1:
            return noises[0]
        values = None
        if any(noise.stuck_values is not None for noise in noises):
            values = np.concatenate([np.zeros(noise.stuck.shape) if noise.stuck_values is None
                                     else noise.stuck_values for noise in noises], axis=1)
        return cls(noises[0].k, np.concatenate([noise.stuck for noise in noises], axis=1), values,
                   np.concatenate([noise.normals for noise in noises], axis=2),
                   np.concatenate([noise.disturbance for noise in noises], axis=1))


class TransferPlan:
    """The transfer pipeline for a fixed set of crossbars, ready to sample.

    Built once per ``(layouts, model, x, y)``: the stuck fractions and the
    finiteness of the model are checked and every layout's n_d matrices are
    resolved against the bias database here, so sampling repeats none of
    that.

    :meth:`sample` returns ``n`` whole-network transfers as
    ``(n, fan_in + 1, fan_out)`` stacks per layer.  It is
    :meth:`apply_net` of :meth:`draw`: :meth:`draw` makes every random
    draw, none of which depends on the weights, and :meth:`apply` combines
    one layer's draws with its weights; both are vectorized over transfers,
    and :meth:`apply` is elementwise over them.  Training calls
    :meth:`sample`; the Monte-Carlo counts draw several streams and apply
    their stacked draws at once; :func:`simulate_transfer` transfers one
    matrix rather than a network.

    Stream contract: :meth:`draw` draws layer by layer.  For each layer it
    draws the stuck uniforms, HRS values and LRS values of the plus then
    the minus components; then, again plus then minus, the tuning and
    offset normals (one call of twice the size, which yields the bits of
    two calls) and the disturbance picks.  With ``n = 1`` this
    consumes the generator exactly as the per-matrix pipeline always has,
    so training draws (one transfer per batch) are unchanged.  With
    ``n > 1`` each draw is made for all ``n`` transfers at once, so the
    result is a different Monte-Carlo sample than ``n`` successive single
    transfers from the same generator.
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
        return self.apply_net(net, self.draw(n, rng))

    def apply_net(self, net: "DenseNet", noises: list[TransferNoise]) -> list[TransferOutcome]:
        """The transfers of every layer of ``net`` (bias row included)
        that the per-layer ``noises`` draw."""
        if len(net.layers) != len(self.layouts):
            raise ValueError(f"{len(net.layers)} layers but {len(self.layouts)} layouts")
        return [
            self.apply(layer_to_crossbar(layer.weights, layer.bias), noise)
            for layer, noise in zip(net.layers, noises)
        ]

    def draw(self, n: int, rng: np.random.Generator) -> list[TransferNoise]:
        """The draws of ``n`` transfers of every layer, in layer order."""
        return [self._draw_layer(k, n, rng) for k in range(len(self.layouts))]

    def _draw_layer(self, k: int, n: int, rng: np.random.Generator) -> TransferNoise:
        """The draws of ``n`` transfers of the matrix on layout ``k``.

        A component is stuck where its uniform ``u < x + y``: in HRS where
        ``u < x`` and in LRS otherwise.
        """
        shape = (n, *self.layouts[k].weight_shape)
        stuck_model = self.model.stuck_model
        stuck = np.empty((2, *shape), dtype=bool)
        values = None
        for pol in range(2):
            u = rng.random(shape)
            count = np.count_nonzero(np.less(u, self.x + self.y, out=stuck[pol]))
            if count:
                hrs = u < self.x
                n_hrs = np.count_nonzero(hrs)
                if values is None:
                    values = np.zeros(stuck.shape)
                if n_hrs:
                    values[pol][hrs] = stuck_model.sample_hrs(rng, size=n_hrs)
                if count - n_hrs:
                    values[pol][stuck[pol] ^ hrs] = stuck_model.sample_lrs(rng, size=count - n_hrs)
        normals = np.empty((2, 2, *shape))
        disturbance = np.empty((2, *shape))
        for pol, bias in enumerate(self._bias[k]):
            rng.standard_normal(out=normals[pol])
            disturbance[pol] = bias.sample(rng, n)
        return TransferNoise(k, stuck, values, normals, disturbance)

    def apply(self, phi, noise: TransferNoise) -> TransferOutcome:
        """The transfers of the crossbar matrix ``phi`` that ``noise`` draws.

        split -> to_conductance -> tuning/bias noise -> stuck substitution
        -> from_conductance, on the plus and minus components stacked.
        Stuck components keep their substituted values and are exempt from
        the tuning and disturbance noise (a stuck device is never tuned).
        """
        phi = np.asarray(phi, dtype=float)
        if phi.shape != self.layouts[noise.k].weight_shape:
            raise ValueError(
                f"phi shape {phi.shape} does not match layout {self.layouts[noise.k].weight_shape}"
            )
        crange = self.model.range
        snap = WeightRangeSnapshot.of_matrix(phi)
        g = _scale(np.maximum(_POLARITY * phi, 0.0), snap, crange)[:, None]
        final = _perturb(g, noise.normals[:, 0], noise.normals[:, 1], noise.disturbance, self.model)
        if noise.stuck_values is not None:
            final = np.where(noise.stuck, noise.stuck_values, final)
        return TransferOutcome(
            phi_prime=_unscale(final[0], final[1], snap, crange),
            stuck_mask=noise.stuck[0] | noise.stuck[1],
            snapshot=snap,
        )


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
    outcome = plan.apply(phi, plan.draw(1, rng)[0])
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
