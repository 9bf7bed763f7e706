"""Minimal dense network with manual backprop, sigmoid activations and Adam.

Kept deliberately small: fully-connected layers, sigmoid after every layer
including the output, binary cross-entropy loss.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    "predict",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
]

BCE_CLAMP = 1e-7

# Adam's decay rates and denominator guard; both trainings use these.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@functools.cache
def _expit():
    """scipy's ``expit``, the sigmoid of :func:`forward`, loaded on the first call.

    Only scipy's compiled ``special/_special_ufuncs`` is loaded, from its
    file, not ``scipy/special/__init__.py`` (0.2 s and 17 MB, with
    ``numpy.testing`` and ``concurrent.futures``).  Its ``expit`` is the ufunc
    that ``from scipy.special import expit`` gives, since that import (in
    ``fit-model`` or the tests) reuses the module: every bit is the same.
    Older scipy keeps ``expit`` in ``_ufuncs``; there ``scipy.special`` is
    imported.  ``train`` and ``run`` call this before each training stage,
    and so before it forks; ``evaluate``, ``heatmap`` and
    ``gen-synthetic-model`` never do.
    """
    name, scipy = "scipy.special._special_ufuncs", importlib.util.find_spec("scipy")
    path = scipy and Path(scipy.submodule_search_locations[0], "special",
                          "_special_ufuncs" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if name not in sys.modules and path and path.is_file():
        loader = importlib.machinery.ExtensionFileLoader(name, str(path))
        spec = importlib.util.spec_from_loader(name, loader)
        loader.exec_module(sys.modules.setdefault(name, importlib.util.module_from_spec(spec)))
    expit = getattr(sys.modules.get(name), "expit", None)
    if expit is None:
        from scipy.special import expit
    return expit


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
        return DenseNet([LayerParams(l.weights.copy(), l.bias.copy()) for l in self.layers])


def flatten(pairs) -> np.ndarray:
    """``(weights, bias)`` pairs, such as a net's parameters or the
    gradients of :func:`backward`, as one flat vector in crossbar order:
    layer by layer, ``[W.T; b]`` row-major, the device order of
    :meth:`xbartrain.transfer.TransferPlan.apply_devices`."""
    return np.concatenate([a.T.ravel() for pair in pairs for a in pair])


def unflatten(sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The inverse of :func:`flatten` for a net of the given layer sizes:
    per layer, the ``(fan_out, fan_in)`` weights (the transpose of a
    contiguous ``W.T``) and the bias as views of ``flat``."""
    sizes = list(sizes)
    pairs, start = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_in * fan_out
        pairs.append((flat[start:stop].reshape(fan_in, fan_out).T, flat[stop : stop + fan_out]))
        start = stop + fan_out
    if start != flat.size:
        raise ValueError(f"{flat.size} parameters do not match layer sizes {sizes}")
    return pairs


def _blas_weights(layer: LayerParams, batch: int) -> np.ndarray:
    """The weights of ``layer`` for a product with ``batch`` rows.  BLAS's
    matrix-vector path, taken for one row, sums in the matrix's memory order,
    so it gets row-major weights and no product depends on the layout."""
    return layer.weights if batch > 1 else np.ascontiguousarray(layer.weights)


def forward(net: DenseNet, X) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward pass; sigmoid after every layer including the output.

    Returns (y_hat, cache) where the cache is the list of activations
    [X, a_1, ..., y_hat] consumed by :func:`backward`.
    """
    a = np.asarray(X, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"X must be a batch (2-D), got shape {a.shape}")
    activations = [a]
    expit = _expit()
    for layer in net.layers:
        a = expit(a @ _blas_weights(layer, a.shape[0]).T + layer.bias)
        activations.append(a)
    return a, activations


def bce_loss(y_hat, y) -> float:
    """Mean binary cross-entropy; predictions clamped to [1e-7, 1 - 1e-7]."""
    y_hat = np.clip(np.asarray(y_hat, dtype=float), BCE_CLAMP, 1.0 - BCE_CLAMP)
    y = np.asarray(y, dtype=float).reshape(y_hat.shape)
    return float(np.mean(-(y * np.log(y_hat) + (1.0 - y) * np.log(1.0 - y_hat))))


def backward(net: DenseNet, cache: list[np.ndarray], y,
             out=None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of bce_loss(forward(net, X), y) for every layer.

    ``cache`` must come from a forward pass of the same parameters.
    Returns [(dW, db), ...] in layer order, each ``dW`` the transpose of a
    contiguous ``dW.T``; with ``out`` (say :func:`unflatten` of a flat
    gradient) they are written into its arrays.
    """
    y_hat = cache[-1]
    y = np.asarray(y, dtype=float).reshape(y_hat.shape)
    batch = y_hat.shape[0]
    delta = (y_hat - y) / batch  # d(mean BCE)/dz through the output sigmoid
    grads = [(None, None)] * len(net.layers) if out is None else list(out)
    for l in range(len(net.layers) - 1, -1, -1):
        dw, db = grads[l]
        grads[l] = (np.matmul(cache[l].T, delta, out=None if dw is None else dw.T).T,
                    delta.sum(axis=0, out=db))
        if l > 0:
            a = cache[l]
            delta = (delta @ _blas_weights(net.layers[l], batch)) * a * (1.0 - a)
    return grads


@dataclass
class AdamState:
    """Standard Adam accumulators with bias correction, kept as flat vectors.

    ``params`` holds every parameter of the net in the crossbar order of
    :func:`flatten`; the net's weight and bias arrays are views into it
    (see :func:`unflatten`), so :meth:`update` changes them all with
    whole-vector operations.  ``m`` and ``v`` are laid out the same way, and
    so is a flat gradient passed to :meth:`update`.
    """

    lr: float = 0.01
    step: int = 0
    m: np.ndarray = field(default_factory=lambda: np.zeros(0))
    v: np.ndarray = field(default_factory=lambda: np.zeros(0))
    params: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @classmethod
    def for_net(cls, net: DenseNet, **hyperparameters) -> "AdamState":
        """Zeroed accumulators for ``net``, whose parameter arrays become
        views into the state's ``params``; ``lr`` is the one
        hyperparameter, and keeps its default when unset."""
        state = cls(**hyperparameters)
        state._adopt(net)
        return state

    def _adopt(self, net: DenseNet) -> None:
        """Copy the parameters of ``net`` into a new ``params`` vector and
        rebind the net's arrays to views of it; ``m`` and ``v`` start at
        zero unless they already hold one value per parameter."""
        self.params = flatten((l.weights, l.bias) for l in net.layers)
        for layer, (weights, bias) in zip(net.layers, unflatten(net.sizes, self.params)):
            layer.weights, layer.bias = weights, bias
        if len(self.m) != len(self.params):
            self.m, self.v = np.zeros_like(self.params), np.zeros_like(self.params)

    def update(self, g: np.ndarray) -> None:
        """One in-place Adam update of ``params`` by the flat gradient ``g``."""
        self.step += 1
        t = self.step
        c1 = 1.0 - ADAM_BETA1**t
        c2 = 1.0 - ADAM_BETA2**t
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        self.params -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def adam_step(net: DenseNet, grads, state: AdamState) -> DenseNet:
    """One in-place Adam update of every parameter.

    ``grads`` is the per-layer ``[(dW, db), ...]`` of :func:`backward`.
    ``net`` is updated through ``state.params``; a net whose arrays are not
    views into it (another net, or arrays replaced since) is adopted first.
    A caller that holds a flat gradient, such as training's step with its
    reused ``grad`` buffer, calls :meth:`AdamState.update` instead.
    """
    if not all(l.weights.base is state.params and l.bias.base is state.params for l in net.layers):
        state._adopt(net)
    state.update(flatten(grads))
    return net


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
