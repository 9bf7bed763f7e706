"""Hardware-aware training: per-batch noise injection via reparametrization.

Every batch, the current weights are pushed through one simulated crossbar
transfer; the difference between the transferred and clean weights becomes
an additive noise term that is held constant during differentiation, so
gradients flow to the clean weights while the forward pass sees what the
hardware would compute.  Weights whose devices were substituted by stuck
failures get their gradients zeroed for that batch.  The weight range used
by the conversion is re-taken from the current weights every batch.

The step runs on flat vectors.  The clean parameters are the one vector
``nn.AdamState.params`` (layer by layer, weights row-major, then bias),
which the net's arrays view.  One index fixed per architecture
(:func:`device_index`) gathers them into the device order of
:meth:`TransferPlan.apply_devices`: each layer's crossbar matrix row-major,
bias row last, layer after layer.  One device apply per batch then yields
every layer's transfer, and :class:`EffectiveParams` writes ``phi + eps``
into a preallocated vector that a net of views reads, zeroes the stuck
positions of the flat gradient, and hands that gradient to Adam as it is.
The draws are unchanged: each batch makes one ``plan.draw(1, rng)`` call
on the noise stream, which draws layer by layer as the per-layer pipeline
always has (the stream contract of :class:`TransferPlan`), so a given seed
trains the same parameters bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .transfer import (
    TileLayout,
    TransferPlan,
    WeightRangeSnapshot,
    layer_to_crossbar,
    layouts_for_architecture,
)
from .variability import (
    BiasDisturbanceDb,
    LinearStdModel,
    OffsetModel,
    VariabilityModel,
)

__all__ = [
    "SourceToggles",
    "TrainingConfig",
    "EpsilonSample",
    "EffectiveParams",
    "device_index",
    "sample_epsilon",
    "train_hardware_aware",
    "train_regular",
]

# Stream tags for deriving independent RNGs from one seed.
_STREAM_INIT = 1
_STREAM_SHUFFLE = 2
_STREAM_NOISE = 3


def _stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


@dataclass(frozen=True)
class SourceToggles:
    """Which variability sources are injected during training."""

    tuning: bool = True
    bias: bool = True
    stuck: bool = True

    def any_active(self, x: float, y: float) -> bool:
        return self.tuning or self.bias or (self.stuck and x + y > 0)


@dataclass(frozen=True)
class TrainingConfig:
    # 500-epoch runs leave an all-sigmoid 2-8-1 net on its near-linear
    # plateau (~86% on half moons); the boundary only bends after ~1500
    # epochs, so the default trains well past that.
    architecture: tuple[int, ...] = (2, 8, 1)
    batch_size: int = 256
    lr: float = 0.01
    epochs: int = 4000
    hrs_fraction: float = 0.005
    lrs_fraction: float = 0.005
    sources: SourceToggles = field(default_factory=SourceToggles)
    seed: int = 0
    tile: tuple[int, int] = (8, 8)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.lr}")
        for key in ("hrs_fraction", "lrs_fraction"):
            if not 0 <= getattr(self, key) <= 1:
                raise ValueError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        if self.hrs_fraction + self.lrs_fraction > 1:
            raise ValueError("hrs_fraction + lrs_fraction must be <= 1")
        object.__setattr__(self, "architecture", tuple(int(s) for s in self.architecture))
        arch = self.architecture
        # One sigmoid output: the loss is binary cross-entropy.
        if len(arch) < 2 or min(arch) < 1 or arch[-1] != 1:
            raise ValueError(f"architecture must be positive sizes ending in 1, got {list(arch)}")
        object.__setattr__(self, "tile", tuple(int(s) for s in self.tile))
        if len(self.tile) != 2:
            raise ValueError(f"tile must be (rows, cols), got {self.tile}")

    def steps(self, n_points: int) -> int:
        """The optimizer steps of a run over ``n_points`` training points."""
        return self.epochs * -(-n_points // self.batch_size)


@dataclass
class EpsilonSample:
    """One per-batch transfer draw: additive weight noise plus stuck masks.

    ``weight_eps[l] + layer.weights`` equals the transferred weights, i.e.
    the stored term is (phi' - phi); adding it in the forward pass
    reproduces phi' while gradients bypass it entirely.  The arrays are
    views of the flat buffers of the :class:`EffectiveParams` that drew
    them, shaped like the layer's weights and bias, so a ``batch_hook``
    that keeps one must copy it.
    """

    weight_eps: list[np.ndarray]
    bias_eps: list[np.ndarray]
    weight_mask: list[np.ndarray]
    bias_mask: list[np.ndarray]
    snapshots: list[WeightRangeSnapshot]


def device_index(sizes) -> np.ndarray:
    """For each crossbar device in the order of
    :meth:`TransferPlan.apply_devices` (each layer's crossbar matrix
    row-major, bias row last), the position of its parameter in the flat
    vector of ``nn.AdamState.params`` (each layer's weights row-major, then
    its bias).  Every parameter is one device, so this is a permutation."""
    sizes = list(sizes)
    positions = np.arange(sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:])))
    crossbars = [layer_to_crossbar(w, b).ravel() for w, b in nn.unflatten(sizes, positions)]
    return np.concatenate(crossbars).astype(np.intp)


class EffectiveParams:
    """The parameters ``phi + eps`` that the noisy forward pass sees, over
    one flat parameter vector.

    ``params`` is the clean flat vector (``nn.AdamState.params``); ``eps``
    and ``mask`` hold the last transfer's noise ``phi' - phi`` and its stuck
    positions, laid out the same way, and ``net`` is a net of views into the
    effective vector.  Every buffer is allocated once, so a training step
    allocates no per-layer arrays.
    """

    def __init__(self, sizes, params: np.ndarray):
        self.sizes = list(sizes)
        self.params = params
        self._index = device_index(self.sizes)
        self.eps = np.zeros_like(params)
        self.mask = np.zeros(params.shape, dtype=bool)
        self._ranges = None
        self._effective = params.copy()
        self.net = nn.DenseNet([nn.LayerParams(w, b)
                                for w, b in nn.unflatten(self.sizes, self._effective)])

    def transfer(self, plan: TransferPlan, noise) -> None:
        """Set ``eps`` and ``mask`` from one transfer of the current
        parameters, drawn as ``noise`` by ``plan.draw(1, ...)``."""
        phi = self.params[self._index]
        phi_prime, stuck, self._ranges = plan.apply_devices(phi, noise)
        self.eps[self._index] = phi_prime[0] - phi
        self.mask[self._index] = stuck[0]

    def update(self) -> None:
        """Recompute the effective parameters ``phi + eps``."""
        np.add(self.params, self.eps, out=self._effective)
        if not np.isfinite(self._effective).all():
            raise ValueError("layer parameters must be finite")

    def gradient(self, cache, y) -> np.ndarray:
        """The flat gradient of the loss at ``net`` (``cache`` from its
        forward pass) with respect to the clean parameters, zero wherever a
        stuck substitution hit the parameter."""
        g = nn.flatten(nn.backward(self.net, cache, y))
        g[self.mask] = 0.0
        return g

    def sample(self) -> EpsilonSample:
        """The last transfer as an :class:`EpsilonSample` of views."""
        eps = nn.unflatten(self.sizes, self.eps)
        mask = nn.unflatten(self.sizes, self.mask)
        return EpsilonSample([w for w, _ in eps], [b for _, b in eps],
                             [w for w, _ in mask], [b for _, b in mask],
                             [WeightRangeSnapshot(*map(float, r)) for r in self._ranges.T])


def sample_epsilon(
    net: nn.DenseNet,
    layouts: list[TileLayout],
    model: VariabilityModel,
    x: float,
    y: float,
    rng: np.random.Generator,
) -> EpsilonSample:
    """Simulate one transfer of every layer (bias row included) and return
    the additive noise relative to the current weights."""
    plan = TransferPlan(layouts, model, x, y)
    if len(net.layers) != len(plan.layouts):
        raise ValueError(f"{len(net.layers)} layers but {len(plan.layouts)} layouts")
    params = EffectiveParams(net.sizes, nn.flatten((l.weights, l.bias) for l in net.layers))
    params.transfer(plan, plan.draw(1, rng))
    return params.sample()


def _effective_model(model: VariabilityModel, sources: SourceToggles) -> VariabilityModel:
    """Zero out the sub-models of disabled sources."""
    return replace(
        model,
        std_model=model.std_model if sources.tuning else LinearStdModel.zero(),
        offset_model=model.offset_model if sources.tuning else OffsetModel.zero(),
        bias_db=model.bias_db if sources.bias else BiasDisturbanceDb.zero(),
    )


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _train(config: TrainingConfig, train_set, plan: TransferPlan | None, batch_hook,
           noise_rng: np.random.Generator | None = None):
    """Shared loop.  With a ``plan``, every batch sees one transfer drawn by
    ``plan.draw(1, noise_rng)``; ``plan`` is None for plain training (also
    used when every source is disabled, which makes the noisy loop
    degenerate to the plain one exactly)."""
    X = np.asarray(train_set.points, dtype=float)
    labels = np.asarray(train_set.labels, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    net = nn.DenseNet.init(config.architecture, _stream(config.seed, _STREAM_INIT))
    state = nn.AdamState.for_net(net, lr=config.lr)
    shuffle_rng = _stream(config.seed, _STREAM_SHUFFLE)
    noisy = None if plan is None else EffectiveParams(net.sizes, state.params)
    seen = net if noisy is None else noisy.net
    for epoch in range(config.epochs):
        for step, idx in enumerate(_batches(X.shape[0], config.batch_size, shuffle_rng)):
            Xb, yb = X[idx], labels[idx]
            if noisy is not None:
                noisy.transfer(plan, plan.draw(1, noise_rng))
                noisy.update()
            y_hat, cache = nn.forward(seen, Xb)
            # The loss clamps the outputs before its logs and the labels are
            # 0 or 1, so it is non-finite exactly where an output is NaN; it
            # is computed only for the hook.
            if np.isnan(y_hat).any():
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {step}"
                )
            if noisy is None:
                grads, sample = nn.backward(net, cache, yb), None
            else:
                grads = noisy.gradient(cache, yb)
                sample = noisy.sample() if batch_hook is not None else None
            if batch_hook is not None:
                batch_hook(epoch, step, net, sample, nn.bce_loss(y_hat, yb))
            nn.adam_step(net, grads, state)
    return net


def train_hardware_aware(
    config: TrainingConfig,
    train_set,
    model: VariabilityModel,
    batch_hook=None,
) -> nn.DenseNet:
    """Noise-injected training; returns the clean weights (noise is never
    baked into the parameters)."""
    x = config.hrs_fraction if config.sources.stuck else 0.0
    y = config.lrs_fraction if config.sources.stuck else 0.0
    if not config.sources.any_active(x, y):
        return _train(config, train_set, None, batch_hook)
    layouts = layouts_for_architecture(config.architecture, *config.tile)
    plan = TransferPlan(layouts, _effective_model(model, config.sources), x, y)
    return _train(config, train_set, plan, batch_hook, _stream(config.seed, _STREAM_NOISE))


def train_regular(config: TrainingConfig, train_set, batch_hook=None) -> nn.DenseNet:
    """Plain training without any variability consideration."""
    return _train(config, train_set, None, batch_hook)
