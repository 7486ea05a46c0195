"""Minimal trainable MLP with real gradients.

Dense layers (no bias) with ReLU activations and a softmax cross-entropy head.
Weights and gradients are float32 so payload sizes match what the collectives
move around; gradient-check tooling can rebuild the same arithmetic in float64.
Each lives in one flat array, with one view per layer, so the gradients can be
summed across ranks without packing them first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collectives import unpack
from .errors import StaleCacheError


@dataclass
class ForwardCache:
    """Activations retained by forward() for the matching backward()."""

    model: "RealModel"
    inputs: list[np.ndarray]   # input to each dense layer
    masks: list[np.ndarray]    # ReLU masks for hidden layers
    probs: np.ndarray          # softmax outputs
    targets: np.ndarray        # one-hot labels
    batch: int


def _as_targets(labels: np.ndarray, classes: int, dtype) -> np.ndarray:
    """One-hot targets for a 1-D array of integer class indices in ``[0, classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be a 1-D array of integer class indices, "
                         f"got {labels.dtype} with shape {labels.shape}")
    outside = labels[(labels < 0) | (labels >= classes)]
    if outside.size:   # a negative index would pick a class from the end
        raise ValueError(f"labels must lie in [0, {classes}), got {outside[0]}")
    onehot = np.zeros((labels.shape[0], classes), dtype=dtype)
    onehot[np.arange(labels.shape[0]), labels] = 1.0
    return onehot


class RealModel:
    """MLP defined by a dims chain, e.g. [4, 8, 3] = Dense(4,8)+ReLU+Dense(8,3)+softmax.

    Initialization is uniform(-r, r) with r = sqrt(6 / (fan_in + fan_out)),
    drawn from a generator seeded with ``seed``, so identical seeds give
    bit-identical weights.
    """

    def __init__(self, dims: list[int], seed: int, dtype=np.float32):
        self.dims = list(dims)
        self.seed = seed
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        shapes = list(zip(dims[:-1], dims[1:]))
        self.flat_weights = np.empty(sum(a * b for a, b in shapes), self.dtype)
        self.flat_grads = np.zeros_like(self.flat_weights)
        self.weights = unpack(self.flat_weights, shapes)
        self.grads = unpack(self.flat_grads, shapes)
        for w, (fan_in, fan_out) in zip(self.weights, shapes):
            r = np.sqrt(6.0 / (fan_in + fan_out))
            w[...] = rng.uniform(-r, r, size=(fan_in, fan_out))

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    def param_count(self) -> int:
        return self.flat_weights.size

    def forward(self, inputs: np.ndarray, labels: np.ndarray) -> tuple[float, ForwardCache]:
        """Run the network on 1-D integer class labels; return (mean cross-entropy loss, cache)."""
        x = np.asarray(inputs, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.dims[0]:
            raise ValueError(f"inputs shape {x.shape} does not match input dim {self.dims[0]}")
        batch = x.shape[0]
        targets = _as_targets(labels, self.num_classes, self.dtype)
        if targets.shape[0] != batch:
            raise ValueError(f"batch mismatch: {batch} inputs vs {targets.shape[0]} labels")

        layer_inputs, masks = [], []
        for i, w in enumerate(self.weights):
            layer_inputs.append(x)
            x = x @ w
            if i < self.num_layers - 1:
                mask = x > 0
                x = x * mask
                masks.append(mask)

        # stable softmax + cross entropy, mean over the batch
        shifted = x - x.max(axis=1, keepdims=True)
        expx = np.exp(shifted)
        probs = expx / expx.sum(axis=1, keepdims=True)
        eps = np.finfo(self.dtype).tiny
        loss = float(-(targets * np.log(probs + eps)).sum() / batch)

        cache = ForwardCache(self, layer_inputs, masks, probs, targets, batch)
        return loss, cache

    def backward(self, cache: ForwardCache) -> list[np.ndarray]:
        """Gradients of the mean loss w.r.t. every weight matrix, written into the views
        ``self.grads`` (which the next call overwrites) and returned."""
        if cache is None or cache.model is not self:
            raise StaleCacheError("backward() needs the cache from this model's forward()")
        delta = (cache.probs - cache.targets) / cache.batch
        delta = delta.astype(self.dtype, copy=False)
        for i in range(self.num_layers - 1, -1, -1):
            np.matmul(cache.inputs[i].T, delta, out=self.grads[i])
            if i > 0:
                delta = (delta @ self.weights[i].T) * cache.masks[i - 1]
        return self.grads

    def sgd_update(self, lr: float, weight_decay: float = 0.0) -> None:
        """w <- w - lr * (g + weight_decay * w) over the flat arrays, elementwise and in place."""
        step = self.flat_weights * weight_decay   # the formula's float operations, one buffer
        step += self.flat_grads
        step *= lr
        self.flat_weights -= step
