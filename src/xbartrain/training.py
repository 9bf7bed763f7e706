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

Where the helper rule of :func:`_forked` forks one, a producer process
makes those calls ahead of the trainer, in the same order, and sends them
down a one-way pipe in blocks of ``_BLOCK_STEPS`` steps, each with the
generator state after it.  One rule hands the draws over: the
trainer takes the producer's blocks in order until one has not arrived
within ``_WAIT_MS`` or the producer has stopped, and from then on makes
every call itself, from the generator state of the last block it took.
So the draws, and the trained bits, never depend on the timing.

Observers see the step through ``batch_hook(epoch, step, net, noisy,
loss)``: ``noisy`` is the step's :class:`EffectiveParams`, on which one
``transfer`` call set the step's flat ``eps``, ``mask`` and ``ranges``
and its transferred ``net``, or ``None`` when training injects no noise.
Its buffers are reused every step, so a hook that keeps one must copy it.
"""

from __future__ import annotations

import contextlib
import fcntl
import math
import os
import pickle
import select
from dataclasses import dataclass, field, replace

import numpy as np

from . import nn
from .transfer import (
    DEFAULT_TILE,
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

# Upper bound on the sum of a net's widths after the input.  Evaluation
# holds the (CHUNK, POINT_BLOCK, width) arrays of at most two consecutive
# layers at once, 1 MiB per unit, and a few KB per device, whose count the
# sum bounds too: a 2-256-256-1 `run`, at the bound, peaks at 0.68 GB.  A
# larger net could end in numpy's allocation error after training.
MAX_UNITS = 513

# Training steps per block of noise that the producer process sends, and
# the wait for a block beyond which the trainer draws the rest itself: a
# stall bound above the first block's 9-10 ms after the fork (2 vCPU), as a
# producer with a CPU of its own only draws and so stays ahead.
_BLOCK_STEPS = 32
_WAIT_MS = 100
# A block of the default 2-8-1 net is 70 KB, more than a default pipe holds.
# At 1 MiB, Linux's default limit for a pipe, train_pair ran more steps per
# second than without the resize in 17 of 22 pairs (2 vCPU; BENCH_30.json).
_PIPE_BYTES = 1 << 20
# The largest ``ru_maxrss`` (KiB) of a helper that :func:`_forked` reaped in this process.
helper_maxrss_kb = 0


class TrainingDiverged(RuntimeError):
    """Raised when training leaves the finite numbers: in a step's
    transferred parameters or outputs, or in the parameters it ends with."""


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def check_architecture(sizes, name: str) -> None:
    """Raise a ValueError naming ``name`` unless ``sizes`` are 2 inputs, the
    half-moons points; 1 sigmoid output, as the loss is binary cross-entropy;
    and positive widths that sum to at most :data:`MAX_UNITS` after the input."""
    sizes = list(sizes)
    if not sizes or sizes[0] != 2 or sizes[-1] != 1:
        raise ValueError(f"{name} must start with 2, the half-moons input, and end with 1, "
                         f"the one output, got {sizes}")
    if min(sizes) < 1 or sum(sizes[1:]) > MAX_UNITS:
        raise ValueError(f"{name} must be positive sizes whose widths after the input sum to "
                         f"<= {MAX_UNITS}, got {sizes}")


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
    tile: tuple[int, int] = DEFAULT_TILE

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
        check_architecture(self.architecture, "architecture")
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
    effective vector, which :meth:`transfer` recomputes.  It is the
    ``noisy`` of a training run's ``batch_hook`` (see the module docstring).
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
        parameters, drawn as ``noise`` by ``plan.draw(1, ...)``, ``ranges``
        from the snapshots it converted with, and ``net`` by :meth:`update`."""
        phi_prime, stuck, self.ranges = plan.apply_devices(self.params, noise)
        np.subtract(phi_prime[0], self.params, out=self.eps)
        self.mask = stuck[0]
        self.update()

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
    it as the :class:`EffectiveParams` of a copy of the net's parameters,
    as a training step passes it to ``batch_hook`` as ``noisy``: its
    ``transfer`` set the transferred ``net`` and, flat in crossbar order,
    the additive noise ``eps``, the stuck ``mask`` and the snapshot ``ranges``."""
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
    """What the noise producer of one training run did, filled in when it
    is reaped: its CPU seconds (from ``os.wait4`` on the producer alone),
    the blocks of the run's draws and how many of those the trainer drew
    itself.  It stays ``ProducerReport()`` when no producer ran."""

    cpu_s: float = 0.0
    blocks: int = 0
    drawn_here: int = 0


def _send(pipe, message) -> None:
    """Write ``message`` to the file ``pipe`` as a pickle after its 8-byte length."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    pipe.write(len(data).to_bytes(8, "little") + data)
    pipe.flush()


def _received(fd: int, wait_ms: int):
    """The messages of :func:`_send` on the pipe ``fd``, up to its end or the
    first that has not begun to arrive within ``wait_ms`` (if not negative)."""

    def read(size: int) -> bytearray:  # fewer bytes only where the pipe ends
        data = bytearray()
        while len(data) < size and (chunk := os.read(fd, size - len(data))):
            data += chunk
        return data

    poller = select.poll()  # not select.select, which fails on an fd above 1023
    poller.register(fd, select.POLLIN)
    while poller.poll(wait_ms):  # a negative wait has no bound
        size = int.from_bytes(read(8), "little")
        data = read(size)
        if not size or len(data) < size:
            return
        yield pickle.loads(data)


@contextlib.contextmanager
def _forked(workers: int, work, wait_ms: int = -1, reaped=None):
    """Run ``work()`` in a helper, a child forked (not spawned, which would
    import numpy again) onto the last CPU of this process's affinity mask,
    and yield an iterator over the messages it yields (:func:`_received`)
    while this thread runs on the rest of the mask.  The child sends each
    through :func:`_send` down an ``os.pipe`` and leaves only through
    ``os._exit``, so it prints no traceback.  On every way out the child is
    killed and reaped and the mask restored, and ``reaped``, if given,
    receives its resource usage from ``os.wait4``.

    Helper rule: the child is forked only at ``workers`` 2 or more on a
    mask of two CPUs or more (else it would share a CPU with this thread);
    otherwise the iterator is empty, the mask untouched and ``reaped``
    never called, so a job needs only its path for a helper that sends nothing.
    """
    global helper_maxrss_kb
    mask = os.sched_getaffinity(0) if workers >= 2 and hasattr(os, "sched_getaffinity") else ()
    if len(mask) < 2:
        yield iter(())
        return
    cpu = max(mask)
    reader, writer = os.pipe()
    try:
        with contextlib.suppress(OSError):  # above the system's limit: sends wait for reads
            fcntl.fcntl(reader, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        pid = os.fork()
    except BaseException:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:
        try:
            os.close(reader)
            os.sched_setaffinity(0, {cpu})
            with open(writer, "wb") as pipe:
                for message in work():
                    _send(pipe, message)
        finally:
            os._exit(0)
    try:
        os.close(writer)
        os.sched_setaffinity(0, mask - {cpu})
        yield _received(reader, wait_ms)
    finally:
        os.close(reader)
        os.kill(pid, 9)  # SIGKILL; importing the signal module takes about 1 ms
        usage = os.wait4(pid, 0)[2]
        os.sched_setaffinity(0, mask)
        helper_maxrss_kb = max(helper_maxrss_kb, usage.ru_maxrss)
        if reaped is not None:
            reaped(usage)


def _noise(plan: TransferPlan, rng: np.random.Generator, steps: int, workers: int,
           report: ProducerReport):
    """The iterator of every step's :class:`TransferNoise`, the draws of
    successive ``plan.draw(1, rng)`` calls: those of the producer process
    of :func:`_forked`, up to its first late block or its end, then the
    calls made here (the module docstring).  ``report`` receives what the
    producer did when it is reaped."""
    blocks, taken = -(-steps // _BLOCK_STEPS), 0

    def produce():
        for start in range(0, steps, _BLOCK_STEPS):
            block = [plan.draw(1, rng) for _ in range(min(_BLOCK_STEPS, steps - start))]
            yield TransferNoise.concatenate(block), rng.bit_generator.state

    def reaped(usage):
        report.cpu_s = usage.ru_utime + usage.ru_stime
        report.blocks, report.drawn_here = blocks, blocks - taken

    with _forked(workers, produce, _WAIT_MS, reaped) as sent:
        for block, rng.bit_generator.state in sent:
            taken += 1
            for t in range(block.stuck.shape[1]):
                yield TransferNoise(*(draws[:, t:t + 1] for draws in block))
    while True:
        yield plan.draw(1, rng)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _train(config: TrainingConfig, train_set, plan: TransferPlan | None, batch_hook,
           noise=None):
    """Shared loop.  With a ``plan``, every batch sees one transfer, whose
    draws it takes from ``noise``, an iterator of :func:`_noise`; both are
    None for plain training (also used when every source is disabled, which
    makes the noisy loop degenerate to the plain one exactly).

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
    # A diverging net overflows before its outputs turn NaN.  The NaN check
    # and the final-parameter check report it, so numpy's warnings are off.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for step, idx in enumerate(_batches(X.shape[0], config.batch_size, shuffle_rng)):
                Xb, yb = X.take(idx, axis=0), labels[idx]
                if noisy is not None:
                    noisy.transfer(plan, next(noise))
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
    process draws the noise ahead until one of its blocks is late, and this
    process draws the rest (see the module docstring), which changes no bit
    of the result; ``report`` then receives what the producer did."""
    x = config.hrs_fraction if config.sources.stuck else 0.0
    y = config.lrs_fraction if config.sources.stuck else 0.0
    if not (config.sources.tuning or config.sources.bias or x + y > 0):
        return _train(config, train_set, None, batch_hook)
    layouts = layouts_for_architecture(config.architecture, *config.tile)
    plan = TransferPlan(layouts, _effective_model(model, config.sources), x, y)
    noise = _noise(plan, _stream(config.seed, _STREAM_NOISE), config.steps(len(train_set.points)),
                   workers, report or ProducerReport())
    with contextlib.closing(noise):  # on every exit: any producer is reaped, the mask restored
        return _train(config, train_set, plan, batch_hook, noise)


def train_regular(config: TrainingConfig, train_set, batch_hook=None) -> nn.DenseNet:
    """Plain training without any variability consideration."""
    return _train(config, train_set, None, batch_hook)
