"""Hardware-aware training: per-batch noise injection via reparametrization.

Every batch, the current weights are pushed through one simulated crossbar
transfer; the difference between the transferred and clean weights becomes
an additive noise term that is held constant during differentiation, so
gradients flow to the clean weights while the forward pass sees what the
hardware would compute.  Weights whose devices were substituted by stuck
failures get their gradients zeroed for that batch.  The weight range used
by the conversion is re-taken from the current weights every batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .transfer import (
    TileLayout,
    TransferPlan,
    WeightRangeSnapshot,
    crossbar_to_layer,
    layer_to_crossbar,
    layouts_for_architecture,
)
from .variability import (
    BiasDisturbanceDb,
    LinearStdModel,
    OffsetModel,
    VariabilityModel,
    make_synthetic_model,
)

__all__ = [
    "SourceToggles",
    "TrainingConfig",
    "EpsilonSample",
    "sample_epsilon",
    "effective_net",
    "hw_forward",
    "masked_backward",
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
        if not (0 <= self.hrs_fraction <= 1 and 0 <= self.lrs_fraction <= 1):
            raise ValueError("stuck fractions must lie in [0, 1]")
        if self.hrs_fraction + self.lrs_fraction > 1:
            raise ValueError("hrs_fraction + lrs_fraction must be <= 1")
        object.__setattr__(self, "architecture", tuple(int(s) for s in self.architecture))
        object.__setattr__(self, "tile", tuple(int(s) for s in self.tile))


@dataclass
class EpsilonSample:
    """One per-batch transfer draw: additive weight noise plus stuck masks.

    ``weight_eps[l] + layer.weights`` equals the transferred weights, i.e.
    the stored term is (phi' - phi); adding it in the forward pass
    reproduces phi' while gradients bypass it entirely.
    """

    weight_eps: list[np.ndarray]
    bias_eps: list[np.ndarray]
    weight_mask: list[np.ndarray]
    bias_mask: list[np.ndarray]
    snapshots: list[WeightRangeSnapshot]


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
    return _epsilon(net, TransferPlan(layouts, model, x, y), rng)


def _epsilon(net: nn.DenseNet, plan: TransferPlan, rng: np.random.Generator) -> EpsilonSample:
    weight_eps, bias_eps, weight_mask, bias_mask, snapshots = [], [], [], [], []
    for k, layer in enumerate(net.layers):
        aug = layer_to_crossbar(layer.weights, layer.bias)
        snapshots.append(WeightRangeSnapshot.of_matrix(aug))
        outcome = plan.sample_matrix(aug, k, 1, rng)
        eps_w, eps_b = crossbar_to_layer(outcome.phi_prime[0] - aug)
        mask_w, mask_b = crossbar_to_layer(outcome.stuck_mask[0])
        weight_eps.append(eps_w)
        bias_eps.append(eps_b)
        weight_mask.append(mask_w)
        bias_mask.append(mask_b)
    return EpsilonSample(weight_eps, bias_eps, weight_mask, bias_mask, snapshots)


def effective_net(net: nn.DenseNet, sample: EpsilonSample) -> nn.DenseNet:
    """The network actually evaluated in the noisy forward pass: phi + eps."""
    layers = [
        nn.LayerParams(layer.weights + ew, layer.bias + eb)
        for layer, ew, eb in zip(net.layers, sample.weight_eps, sample.bias_eps)
    ]
    return nn.DenseNet(layers)


def hw_forward(net: nn.DenseNet, sample: EpsilonSample, X):
    """Forward pass through the noise-shifted weights."""
    return nn.forward(effective_net(net, sample), X)


def masked_backward(net: nn.DenseNet, cache, y, sample: EpsilonSample):
    """Standard backward through the given (effective) net, with gradients
    zeroed wherever a stuck substitution hit the weight or its bias row."""
    grads = nn.backward(net, cache, y)
    return [
        (np.where(mw, 0.0, gw), np.where(mb, 0.0, gb))
        for (gw, gb), mw, mb in zip(grads, sample.weight_mask, sample.bias_mask)
    ]


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


def _train(config: TrainingConfig, train_set, sampler, batch_hook):
    """Shared loop.  ``sampler`` draws an EpsilonSample per batch, or is
    None for plain training (also used when every source is disabled, which
    makes the noisy loop degenerate to the plain one exactly)."""
    X = np.asarray(train_set.points, dtype=float)
    labels = np.asarray(train_set.labels, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    net = nn.DenseNet.init(config.architecture, _stream(config.seed, _STREAM_INIT))
    state = nn.AdamState.for_net(net, lr=config.lr)
    shuffle_rng = _stream(config.seed, _STREAM_SHUFFLE)
    for epoch in range(config.epochs):
        for step, idx in enumerate(_batches(X.shape[0], config.batch_size, shuffle_rng)):
            Xb, yb = X[idx], labels[idx]
            if sampler is None:
                y_hat, cache = nn.forward(net, Xb)
                loss = nn.bce_loss(y_hat, yb)
                sample = None
                grads = nn.backward(net, cache, yb)
            else:
                sample = sampler(net)
                eff = effective_net(net, sample)
                y_hat, cache = nn.forward(eff, Xb)
                loss = nn.bce_loss(y_hat, yb)
                grads = masked_backward(eff, cache, yb, sample)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"training diverged: non-finite loss at epoch {epoch}, batch {step}"
                )
            if batch_hook is not None:
                batch_hook(epoch, step, net, sample, loss)
            nn.adam_step(net, grads, state)
    return net


def train_hardware_aware(
    config: TrainingConfig,
    train_set,
    model: VariabilityModel | None = None,
    batch_hook=None,
) -> nn.DenseNet:
    """Noise-injected training; returns the clean weights (noise is never
    baked into the parameters)."""
    if model is None:
        model = make_synthetic_model()
    x = config.hrs_fraction if config.sources.stuck else 0.0
    y = config.lrs_fraction if config.sources.stuck else 0.0
    if not config.sources.any_active(x, y):
        return _train(config, train_set, None, batch_hook)
    layouts = layouts_for_architecture(config.architecture, *config.tile)
    plan = TransferPlan(layouts, _effective_model(model, config.sources), x, y)
    noise_rng = _stream(config.seed, _STREAM_NOISE)

    def sampler(net):
        return _epsilon(net, plan, noise_rng)

    return _train(config, train_set, sampler, batch_hook)


def train_regular(config: TrainingConfig, train_set, batch_hook=None) -> nn.DenseNet:
    """Plain training without any variability consideration."""
    return _train(config, train_set, None, batch_hook)
