"""Minimal dense network with manual backprop, sigmoid activations and Adam.

Kept deliberately small: fully-connected layers, sigmoid after every layer
including the output, binary cross-entropy loss, and a finite-difference
gradient oracle used by the test suite to pin the analytic gradients.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from . import fields

__all__ = [
    "LayerParams",
    "DenseNet",
    "AdamState",
    "flatten",
    "unflatten",
    "forward",
    "bce_loss",
    "backward",
    "adam_step",
    "finite_difference_gradients",
    "predict",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

BCE_CLAMP = 1e-7


@dataclass
class LayerParams:
    weights: np.ndarray  # (fan_out, fan_in)
    bias: np.ndarray  # (fan_out,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError(
                f"bias length {self.bias.shape[0]} != fan_out {self.weights.shape[0]}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.bias.copy())


@dataclass
class DenseNet:
    layers: list[LayerParams]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a network needs at least one layer")
        for prev, nxt in zip(self.layers[:-1], self.layers[1:]):
            if nxt.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"layer shapes do not compose: {prev.weights.shape} -> {nxt.weights.shape}"
                )

    @classmethod
    def init(cls, sizes, rng: np.random.Generator) -> "DenseNet":
        """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) weights, zero biases."""
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError(f"architecture needs at least two sizes, got {sizes}")
        layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(1.0 / fan_in)
            layers.append(
                LayerParams(rng.uniform(-bound, bound, size=(fan_out, fan_in)), np.zeros(fan_out))
            )
        return cls(layers)

    @property
    def sizes(self) -> list[int]:
        return [self.layers[0].weights.shape[1]] + [l.weights.shape[0] for l in self.layers]

    def copy(self) -> "DenseNet":
        return DenseNet([l.copy() for l in self.layers])


def flatten(pairs) -> np.ndarray:
    """``(weights, bias)`` pairs, such as a net's parameters or the
    gradients of :func:`backward`, as one flat vector: layer by layer, the
    weights row-major, then the bias."""
    return np.concatenate([a.ravel() for pair in pairs for a in pair])


def unflatten(sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The inverse of :func:`flatten` for a net of the given layer sizes:
    per layer, the ``(fan_out, fan_in)`` weights and the bias as views of
    ``flat``."""
    sizes = list(sizes)
    pairs, start = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_out * fan_in
        pairs.append((flat[start:stop].reshape(fan_out, fan_in), flat[stop : stop + fan_out]))
        start = stop + fan_out
    if start != flat.size:
        raise ValueError(f"{flat.size} parameters do not match layer sizes {sizes}")
    return pairs


def forward(net: DenseNet, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward pass; sigmoid after every layer including the output.

    Returns (y_hat, cache) where the cache is the list of activations
    [X, a_1, ..., y_hat] consumed by :func:`backward`.
    """
    a = np.asarray(X, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"X must be a batch (2-D), got shape {a.shape}")
    activations = [a]
    for layer in net.layers:
        a = expit(a @ layer.weights.T + layer.bias)
        activations.append(a)
    return a, activations


def bce_loss(y_hat, y) -> float:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    y_hat = np.clip(np.asarray(y_hat, dtype=float), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=float).reshape(y_hat.shape)
    return float(np.mean(-(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat))))


def backward(net: DenseNet, cache: list[np.ndarray], y) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of bce_loss(forward(net, X), y) for every layer.

    ``cache`` must come from a forward pass of the same parameters.
    Returns [(dW, db), ...] in layer order.
    """
    y_hat = cache[-1]
    y = np.asarray(y, dtype=float).reshape(y_hat.shape)
    batch = y_hat.shape[0]
    delta = (y_hat - y) / batch  # d(mean BCE)/dz through the output sigmoid
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)
    for l in range(len(net.layers) - 1, -1, -1):
        grads[l] = (delta.T @ cache[l], delta.sum(axis=0))
        if l > 0:
            a = cache[l]
            delta = (delta @ net.layers[l].weights) * a * (1.0 - a)
    return grads


@dataclass
class AdamState:
    """Standard Adam accumulators with bias correction, kept as flat vectors.

    ``params`` holds every parameter of the net in layer order (weights
    row-major, then bias; see :func:`flatten`); the net's weight and
    bias arrays are views into it, so :func:`adam_step` updates them all
    with whole-vector operations.  ``m`` and ``v`` are laid out the same
    way, and so is a flat gradient passed to :func:`adam_step`.
    """

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_net(cls, net: DenseNet, **hyperparameters) -> "AdamState":
        """Zeroed accumulators for ``net``, whose parameter arrays become
        views into the state's ``params``; unset hyperparameters keep their
        defaults."""
        state = cls(**hyperparameters)
        state._adopt(net)
        state.m = np.zeros_like(state.params)
        state.v = np.zeros_like(state.params)
        return state

    def _adopt(self, net: DenseNet) -> None:
        """Copy the parameters of ``net`` into a new ``params`` vector and
        rebind the net's arrays to views of it."""
        self.params = flatten((l.weights, l.bias) for l in net.layers)
        for layer, (weights, bias) in zip(net.layers, unflatten(net.sizes, self.params)):
            layer.weights, layer.bias = weights, bias


def adam_step(net: DenseNet, grads, state: AdamState) -> DenseNet:
    """One in-place Adam update of every parameter.

    ``grads`` is the per-layer ``[(dW, db), ...]`` of :func:`backward`, or
    one flat gradient vector laid out like ``state.params``, which is used
    as it is.  ``net`` is updated through ``state.params``; a net whose
    arrays are not views into it (another net, or arrays replaced since) is
    adopted first.
    """
    if not all(l.weights.base is state.params and l.bias.base is state.params for l in net.layers):
        state._adopt(net)
    g = grads if isinstance(grads, np.ndarray) else flatten(grads)
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    state.params -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return net


def finite_difference_gradients(net: DenseNet, X, y, h: float = 1e-5):
    """Central-difference gradients of the loss; the independent oracle for
    :func:`backward`.  O(parameters) forward passes, test-scale only."""
    grads = []
    for layer in net.layers:
        dW = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up = bce_loss(forward(net, X)[0], y)
            layer.weights[idx] = orig - h
            down = bce_loss(forward(net, X)[0], y)
            layer.weights[idx] = orig
            dW[idx] = (up - down) / (2.0 * h)
        db = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + h
            up = bce_loss(forward(net, X)[0], y)
            layer.bias[idx] = orig - h
            down = bce_loss(forward(net, X)[0], y)
            layer.bias[idx] = orig
            db[idx] = (up - down) / (2.0 * h)
        grads.append((dW, db))
    return grads


def predict(net: DenseNet, X) -> np.ndarray:
    """Thresholded class labels: 1 where the sigmoid output exceeds 0.5."""
    y_hat, _ = forward(net, X)
    return (y_hat[:, 0] > 0.5).astype(int)


def accuracy(net: DenseNet, X, labels) -> float:
    return float(np.mean(predict(net, X) == np.asarray(labels)))


def save_checkpoint(net: DenseNet, path) -> None:
    """Layer shapes plus row-major parameter arrays, as JSON."""
    doc = {
        "layer_sizes": net.sizes,
        "layers": [
            {
                "shape": list(l.weights.shape),
                "weights": l.weights.ravel(order="C").tolist(),
                "bias": l.bias.tolist(),
            }
            for l in net.layers
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


_LAYER = {"shape": ("shape", fields.list_of(fields.integer)),
          "weights": ("weights", fields.list_of(fields.real)),
          "bias": ("bias", fields.list_of(fields.real))}


def _layer(doc) -> LayerParams:
    """One entry of a checkpoint's ``layers``."""
    (entry,) = fields.section(doc, _LAYER, required=True)
    shape, weights = entry["shape"], entry["weights"]
    if len(shape) != 2 or min(shape) < 1 or shape[0] * shape[1] != len(weights):
        raise ValueError(f"shape {list(shape)} does not hold {len(weights)} weights")
    return LayerParams(np.reshape(weights, shape), entry["bias"])


def load_checkpoint(path) -> DenseNet:
    """Load a checkpoint written by :func:`save_checkpoint`; its
    ``layer_sizes`` must match the shapes of its layers."""
    doc = fields.read_json(path, ValueError, "checkpoint")
    table = {"layer_sizes": ("sizes", fields.list_of(fields.integer)),
             "layers": ("net", lambda layers: DenseNet(list(fields.list_of(_layer)(layers))))}
    try:
        (entry,) = fields.section(doc, table, required=True)
        if entry["net"].sizes != list(entry["sizes"]):
            raise ValueError(f"layer_sizes {list(entry['sizes'])} do not match the layers")
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from exc
    return entry["net"]
