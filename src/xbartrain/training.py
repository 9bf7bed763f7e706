"""Hardware-aware training: per-batch noise injection via reparametrization.

Every batch, the current weights are pushed through one simulated crossbar
transfer; the difference between the transferred and clean weights becomes
an additive noise term that is held constant during differentiation, so
gradients flow to the clean weights while the forward pass sees what the
hardware would compute.  Weights whose devices were substituted by stuck
failures get their gradients zeroed for that batch.  The weight range used
by the conversion is re-taken from the current weights every batch.

The step runs on flat vectors in the crossbar order of :func:`nn.flatten`,
the device order of :meth:`TransferPlan.apply_devices`: the clean
parameters ``nn.AdamState.params`` (which the net's arrays view), Adam's
accumulators, the effective parameters ``phi + eps`` of
:class:`EffectiveParams` and the flat gradient that the backward pass
writes, all preallocated.  Each batch takes the draws of one
``plan.draw(1, rng)`` call on the noise stream, which draws layer by layer
as the per-layer pipeline always has (the stream contract of
:class:`TransferPlan`), so a given seed trains the same parameters bit for
bit.  Checkpoints keep row-major ``(fan_out, fan_in)`` weights.

At ``workers`` 2 or more, on an affinity mask of at least two CPUs, a
forked producer process pinned to one CPU of the mask makes those calls
ahead of the trainer, in the same order, and sends them in blocks of
``_BLOCK_STEPS`` steps, each with the generator state after it; the
trainer's thread keeps the other CPUs.  Take-over rule: at a block
boundary the trainer waits at most ``_WAIT_MS`` for the producer's block
(not at all if it drew the previous block itself).  It uses a block that
arrives after setting its generator to the block's end state, and
otherwise draws the block itself and discards the producer's copy when it
comes, so the draws, and the trained bits, never depend on the timing.

Observers see the step through ``batch_hook(epoch, step, net, noisy,
loss)``: ``noisy`` is the step's :class:`EffectiveParams`, whose flat
``eps``, ``mask`` and ``ranges`` are the transfer the step trained on, or
``None`` when training injects no noise.  Its buffers are reused every
step, so a hook that keeps one must copy it.
"""

from __future__ import annotations

import fcntl
import math
import os
import pickle
import select
import signal
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .transfer import (
    TileLayout,
    TransferNoise,
    TransferPlan,
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
    "ProducerReport",
    "SourceToggles",
    "TrainingConfig",
    "TrainingDiverged",
    "EffectiveParams",
    "sample_epsilon",
    "train_hardware_aware",
    "train_regular",
]

# Stream tags for deriving independent RNGs from one seed.
_STREAM_INIT = 1
_STREAM_SHUFFLE = 2
_STREAM_NOISE = 3

# Training steps per block of noise that the producer process sends, and
# how long the trainer waits for a block before it draws the block itself.
_BLOCK_STEPS = 32
_WAIT_MS = 3
_HEADER = struct.Struct("<Q")  # the byte length of the message that follows
# A block of the default 2-8-1 net is about 70 KB, more than a default pipe
# holds; at 1 MiB, Linux's default limit for a pipe, the producer can run
# many blocks ahead instead of waiting for each read.
_PIPE_BYTES = 1 << 20


class TrainingDiverged(RuntimeError):
    """Raised when training leaves the finite numbers: in a step's
    transferred parameters or outputs, or in the parameters it ends with."""


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


@dataclass(frozen=True)
class SourceToggles:
    """Which variability sources are injected during training."""

    tuning: bool = True
    bias: bool = True
    stuck: bool = True


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
        if arch[0] != 2:
            raise ValueError(f"architecture must start with 2, the half-moons input, "
                             f"got {list(arch)}")
        object.__setattr__(self, "tile", tuple(int(s) for s in self.tile))
        if len(self.tile) != 2 or min(self.tile) < 1:
            raise ValueError(f"tile must be two positive sizes (rows, cols), got {list(self.tile)}")

    def steps(self, n_points: int) -> int:
        """The optimizer steps of a run over ``n_points`` training points."""
        return self.epochs * -(-n_points // self.batch_size)


class EffectiveParams:
    """The parameters ``phi + eps`` that the noisy forward pass sees, over
    one flat parameter vector.

    ``params`` is the clean flat vector (``nn.AdamState.params``); ``eps``
    and ``mask`` hold the last transfer's noise ``phi' - phi`` and its stuck
    positions, and ``grad`` the last :meth:`gradient`, all in its crossbar
    order; ``ranges`` is the ``(3, layouts)`` array of the last transfer's
    weight-range snapshots (min, max, max-abs) from
    :meth:`TransferPlan.apply_devices`; ``net`` is a net of views into the
    effective vector.  A training run's ``batch_hook(epoch, step, net,
    noisy, loss)`` receives this object as ``noisy`` every step: its arrays
    are overwritten or replaced by the next step, so a hook that keeps one
    must copy it.
    """

    def __init__(self, sizes, params: np.ndarray):
        self.params = params
        self.eps = np.zeros_like(params)
        self.mask = np.zeros(params.shape, dtype=bool)
        self.grad = np.zeros_like(params)
        self.ranges = None
        self._grads = nn.unflatten(sizes, self.grad)
        self._effective = params.copy()
        self.net = nn.DenseNet([nn.LayerParams(w, b)
                                for w, b in nn.unflatten(sizes, self._effective)])

    def transfer(self, plan: TransferPlan, noise) -> None:
        """Set ``eps`` and ``mask`` from one transfer of the current
        parameters, drawn as ``noise`` by ``plan.draw(1, ...)``, and
        ``ranges`` from the snapshots it converted with."""
        phi_prime, stuck, self.ranges = plan.apply_devices(self.params, noise)
        np.subtract(phi_prime[0], self.params, out=self.eps)
        self.mask = stuck[0]

    def update(self) -> None:
        """Recompute the effective parameters ``phi + eps``."""
        np.add(self.params, self.eps, out=self._effective)
        if not np.isfinite(self._effective).all():
            layers = self.net.layers
            k = next(k for k, layer in enumerate(layers, start=1)
                     if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()))
            raise TrainingDiverged(f"training diverged: the transferred parameters of layer {k} "
                                   f"of {len(layers)} are not finite")

    def gradient(self, cache, y) -> np.ndarray:
        """The flat gradient ``grad`` of the loss at ``net`` (``cache`` from
        its forward pass) with respect to the clean parameters, zero
        wherever a stuck substitution hit the parameter."""
        nn.backward(self.net, cache, y, out=self._grads)
        self.grad[self.mask] = 0.0
        return self.grad


def sample_epsilon(
    net: nn.DenseNet,
    layouts: list[TileLayout],
    model: VariabilityModel,
    x: float,
    y: float,
    rng: np.random.Generator,
) -> EffectiveParams:
    """Simulate one transfer of every layer (bias row included) and return
    it as the :class:`EffectiveParams` of a copy of the net's parameters:
    the additive noise ``eps``, the stuck ``mask`` and the snapshot
    ``ranges``, flat in crossbar order (:func:`nn.unflatten` gives them per
    layer).  It is what a training step passes to ``batch_hook(epoch,
    step, net, noisy, loss)`` as ``noisy``, where the buffers are reused
    every step, so a hook that keeps one must copy it."""
    plan = TransferPlan(layouts, model, x, y)
    params = EffectiveParams(net.sizes, plan.devices(layer_to_crossbar(l.weights, l.bias)
                                                     for l in net.layers))
    params.transfer(plan, plan.draw(1, rng))
    return params


def _effective_model(model: VariabilityModel, sources: SourceToggles) -> VariabilityModel:
    """Zero out the sub-models of disabled sources."""
    return replace(
        model,
        std_model=model.std_model if sources.tuning else LinearStdModel.zero(),
        offset_model=model.offset_model if sources.tuning else OffsetModel.zero(),
        bias_db=model.bias_db if sources.bias else BiasDisturbanceDb.zero(),
    )


@dataclass
class ProducerReport:
    """What the noise producer of one training run did: the CPU seconds of
    its process (from ``os.wait4``), the blocks of draws that the trainer
    took and how many of those it drew itself.  ``blocks`` stays 0 when no
    producer ran."""

    cpu_s: float = 0.0
    blocks: int = 0
    drawn_here: int = 0


def _draws_here(plan: TransferPlan, rng: np.random.Generator):
    while True:
        yield plan.draw(1, rng)


def _noise(plan: TransferPlan, rng: np.random.Generator, steps: int, workers: int,
           report: ProducerReport):
    """The iterator of every step's :class:`TransferNoise`: drawn here, or
    at ``workers`` 2 or more on a mask of two CPUs or more, by a producer
    process (see :func:`_produced`).  Either way it yields the draws of
    successive ``plan.draw(1, rng)`` calls."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if workers < 2 or len(cpus) < 2:
        return _draws_here(plan, rng)
    return _produced(plan, rng, steps, cpus[-1], report)


def _send(fd: int, message: bytes) -> None:
    view = memoryview(message)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from ``fd``, or None at the end of the pipe."""
    buf = bytearray(size)
    view, got = memoryview(buf), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return buf


def _produce(plan: TransferPlan, rng: np.random.Generator, steps: int, cpu: int, read_fd: int,
             write_fd: int):
    """The producer process: pinned to ``cpu``, it draws the ``steps``
    steps' noise as :func:`_draws_here` would and writes it to
    ``write_fd``, one message per block of :data:`_BLOCK_STEPS` steps
    holding the block's index, its stacked draws and the generator state
    after it.  It leaves only through ``os._exit``."""
    try:
        os.close(read_fd)
        os.sched_setaffinity(0, {cpu})
        for index, start in enumerate(range(0, steps, _BLOCK_STEPS)):
            block = [plan.draw(1, rng) for _ in range(min(_BLOCK_STEPS, steps - start))]
            payload = pickle.dumps((index, tuple(TransferNoise.concatenate(block)),
                                    rng.bit_generator.state), protocol=pickle.HIGHEST_PROTOCOL)
            _send(write_fd, _HEADER.pack(len(payload)) + payload)
    finally:
        os._exit(0)


def _produced(plan: TransferPlan, rng: np.random.Generator, steps: int, cpu: int,
              report: ProducerReport):
    """Every step's noise from a forked :func:`_produce` pinned to ``cpu``,
    with the trainer taking over any block that is late (see the module
    docstring).  This thread runs on the rest of its mask until the
    iterator is closed, which kills and reaps the producer, records its
    CPU time in ``report`` and restores the mask."""
    mask = os.sched_getaffinity(0)
    read_fd, write_fd = os.pipe()
    # Forked, not spawned, which would import numpy again.  The child runs
    # only the generator and pickle, never BLAS, whose threads it lacks.
    pid = os.fork()
    if pid == 0:
        _produce(plan, rng, steps, cpu, read_fd, write_fd)
    try:
        os.close(write_fd)
        try:
            fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # above the system's limit: blocks wait for reads
            pass
        os.sched_setaffinity(0, mask - {cpu})
        poller = select.poll()
        poller.register(read_fd, select.POLLIN)
        live, wait = True, _WAIT_MS
        for index, start in enumerate(range(0, steps, _BLOCK_STEPS)):
            n = min(_BLOCK_STEPS, steps - start)
            block = None
            while live and block is None and poller.poll(wait):
                header = _read(read_fd, _HEADER.size)
                payload = None if header is None else _read(read_fd, *_HEADER.unpack(header))
                if payload is None:
                    live = False
                    break
                sent, arrays, state = pickle.loads(payload)
                if sent == index:  # earlier blocks were drawn here: discard them
                    block = TransferNoise(*arrays)
            report.blocks += 1
            if block is None:
                report.drawn_here += 1
                wait = 0
                for _ in range(n):
                    yield plan.draw(1, rng)
                continue
            rng.bit_generator.state = state
            wait = _WAIT_MS
            stuck, values, normals, disturbance = block
            for t in range(n):
                yield TransferNoise(stuck[:, t:t + 1], values[:, t:t + 1],
                                    normals[:, :, t:t + 1], disturbance[:, t:t + 1])
    finally:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        usage = os.wait4(pid, 0)[2]
        os.sched_setaffinity(0, mask)
        report.cpu_s = usage.ru_utime + usage.ru_stime


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _train(config: TrainingConfig, train_set, plan: TransferPlan | None, batch_hook,
           noise_rng: np.random.Generator | None = None, workers: int = 1,
           report: ProducerReport | None = None):
    """Shared loop.  With a ``plan``, every batch sees one transfer drawn by
    ``plan.draw(1, noise_rng)``; ``plan`` is None for plain training (also
    used when every source is disabled, which makes the noisy loop
    degenerate to the plain one exactly).

    The steps take their draws from one iterator (:func:`_noise`).  At
    ``workers`` 2 or more, on a mask of two CPUs or more, a producer process
    pinned to one of them makes the calls ahead; at each block boundary the
    trainer waits at most ``_WAIT_MS`` for its block, and draws a late
    block itself (the take-over rule of the module docstring), so the draws
    are the same at any ``workers``.  The iterator is closed on every exit,
    which kills and reaps the producer and restores this thread's mask;
    ``report`` receives what the producer did.

    ``batch_hook(epoch, step, net, noisy, loss)`` is called after each
    step's backward pass and before its Adam update, with the clean
    ``net``, the step's :class:`EffectiveParams` as ``noisy`` (``None``
    without a plan) and the noisy batch loss.  ``noisy`` is the same object
    every step and its buffers are reused, so a hook that keeps an array
    must copy it.  A hook may write into the net's arrays but not rebind
    them: Adam updates the flat vector they view."""
    X = np.asarray(train_set.points, dtype=float)
    labels = np.asarray(train_set.labels, dtype=float)
    if X.shape[0] == 0:
        raise ValueError("training set is empty")
    net = nn.DenseNet.init(config.architecture, _stream(config.seed, _STREAM_INIT))
    state = nn.AdamState.for_net(net, lr=config.lr)
    shuffle_rng = _stream(config.seed, _STREAM_SHUFFLE)
    noisy = None if plan is None else EffectiveParams(net.sizes, state.params)
    seen = net if noisy is None else noisy.net
    grad = np.empty_like(state.params) if noisy is None else noisy.grad
    grads = nn.unflatten(net.sizes, grad)
    noise = None if plan is None else _noise(plan, noise_rng, config.steps(X.shape[0]), workers,
                                             report or ProducerReport())
    # A diverging net overflows before its outputs turn NaN.  The NaN check
    # and the final-parameter check report it, so numpy's warnings are off.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(config.epochs):
                for step, idx in enumerate(_batches(X.shape[0], config.batch_size, shuffle_rng)):
                    Xb, yb = X.take(idx, axis=0), labels[idx]
                    if noisy is not None:
                        noisy.transfer(plan, next(noise))
                        noisy.update()
                    y_hat, cache = nn.forward(seen, Xb)
                    # The loss clamps the outputs before its logs and the labels
                    # are 0 or 1, so it is non-finite exactly where an output is
                    # NaN; it is computed only for the hook.
                    if np.isnan(y_hat).any():
                        raise TrainingDiverged(
                            f"training diverged: non-finite loss at epoch {epoch}, batch {step}"
                        )
                    if noisy is None:
                        nn.backward(net, cache, yb, out=grads)
                    else:
                        noisy.gradient(cache, yb)
                    if batch_hook is not None:
                        batch_hook(epoch, step, net, noisy, nn.bce_loss(y_hat, yb))
                    state.update(grad)
    finally:
        if noise is not None:
            noise.close()
    # The steps only check their outputs for NaN, so an infinite parameter
    # that never made one still has to be caught here.
    if not np.isfinite(state.params).all():
        raise TrainingDiverged("training diverged: the final parameters are not finite")
    return net


def train_hardware_aware(
    config: TrainingConfig,
    train_set,
    model: VariabilityModel,
    batch_hook=None,
    workers: int = 1,
    report: ProducerReport | None = None,
) -> nn.DenseNet:
    """Noise-injected training; returns the clean weights (noise is never
    baked into the parameters).  At ``workers`` 2 or more a producer
    process draws the noise ahead (see :func:`_train`), which changes no
    bit of the result; ``report`` then receives what it did."""
    x = config.hrs_fraction if config.sources.stuck else 0.0
    y = config.lrs_fraction if config.sources.stuck else 0.0
    if not (config.sources.tuning or config.sources.bias or x + y > 0):
        return _train(config, train_set, None, batch_hook)
    layouts = layouts_for_architecture(config.architecture, *config.tile)
    plan = TransferPlan(layouts, _effective_model(model, config.sources), x, y)
    return _train(config, train_set, plan, batch_hook, _stream(config.seed, _STREAM_NOISE),
                  workers, report)


def train_regular(config: TrainingConfig, train_set, batch_hook=None) -> nn.DenseNet:
    """Plain training without any variability consideration."""
    return _train(config, train_set, None, batch_hook)
