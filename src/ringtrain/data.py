"""Built-in synthetic classification data.

Gaussian blobs with class means spread on a circle, generated deterministically
from a seed so every worker can materialize the identical dataset without any
data distribution step.
"""

from __future__ import annotations

import numpy as np


def make_blobs(n_samples: int, n_features: int = 2, n_classes: int = 2,
               seed: int = 0, spread: float = 0.6) -> tuple[np.ndarray, np.ndarray]:
    """Return (inputs float32 [n, d], labels int64 [n])."""
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, n_features))
    means[:, 0] = 2.0 * np.cos(angles)
    means[:, min(1, n_features - 1)] += 2.0 * np.sin(angles)
    labels = rng.integers(0, n_classes, size=n_samples)
    inputs = means[labels] + rng.normal(0.0, spread, size=(n_samples, n_features))
    return inputs.astype(np.float32), labels.astype(np.int64)
