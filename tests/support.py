"""Helpers that only tests call: a recording endpoint, weight digests, the float64
gradient check and writing a training config to JSON."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ringtrain.model import RealModel


class Recording:
    """An endpoint of either transport that counts the messages its ``send`` and
    ``sendrecv`` calls have sent, and their payload bytes; a refused or failed call
    counts nothing. Everything else is the wrapped endpoint's."""

    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.n_sends = 0
        self.bytes_sent = 0

    def __getattr__(self, name):
        return getattr(self.endpoint, name)

    def _sent(self, payload: np.ndarray) -> None:
        self.n_sends += 1
        self.bytes_sent += payload.size * 4   # both transports move float32

    def send(self, dst, tag, payload):
        self.endpoint.send(dst, tag, payload)
        self._sent(payload)

    def sendrecv(self, dst, src, tag, payload):
        incoming = self.endpoint.sendrecv(dst, src, tag, payload)
        self._sent(payload)
        return incoming


def weight_checksum(model: RealModel) -> str:
    return hashlib.sha256(model.flat_weights.tobytes()).hexdigest()


def write_config(config, path) -> None:
    """Write a ``TrainingConfig`` as the JSON object ``TrainingConfig.from_json`` reads."""
    Path(path).write_text(json.dumps(asdict(config), indent=2) + "\n")


def finite_difference_check(model: RealModel, inputs: np.ndarray, labels: np.ndarray,
                            step: float = 1e-3) -> float:
    """Max relative error of backward() against central differences.

    Both paths run in float64 on a shadow copy so the comparison is not
    drowned by float32 rounding.
    """
    shadow = RealModel(model.dims, model.seed, dtype=np.float64)
    shadow.flat_weights[...] = model.flat_weights
    x = np.asarray(inputs, dtype=np.float64)
    _, cache = shadow.forward(x, labels)
    analytic = shadow.backward(cache)

    worst = 0.0
    for li, w in enumerate(shadow.weights):
        numeric = np.zeros_like(w)
        flat = w.reshape(-1)
        num_flat = numeric.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lp, _ = shadow.forward(x, labels)
            flat[j] = orig - step
            lm, _ = shadow.forward(x, labels)
            flat[j] = orig
            num_flat[j] = (lp - lm) / (2.0 * step)
        denom = np.maximum(np.abs(numeric), np.abs(analytic[li]))
        denom = np.maximum(denom, 1e-8)
        rel = np.abs(numeric - analytic[li]) / denom
        worst = max(worst, float(rel.max()))
    return worst
