"""Link model for the simulated transport: the time a message takes on a
:class:`~ringtrain.profiles.NetProfile` link."""

from __future__ import annotations

import numpy as np

from ..profiles import NetProfile


def sim_transfer_time(nbytes: int | np.ndarray, k_active: int, profile: NetProfile,
                      rng: np.random.Generator | None = None) -> float | np.ndarray:
    """Seconds to move ``nbytes`` over one link while ``k_active`` nodes share it.

    ``nbytes`` is one byte count, priced as a float, or an integer array of
    any shape of the counts of messages sent in its C (row-major) order,
    priced as an array of times of the same shape.
    t = latency + bytes*8 / (1e6 * effective_bw) * jitter, where jitter is a
    mean-one lognormal draw from ``rng`` per non-empty message, in C order,
    when the profile has jitter, and 1.0 otherwise. Zero-byte messages
    cost exactly the latency and draw nothing; a jittered non-empty transfer
    without a generator is a ValueError.
    """
    sigma = profile.jitter_frac
    jitter = 1.0
    if isinstance(nbytes, np.ndarray):
        if (nbytes < 0).any():
            raise ValueError("nbytes must be >= 0")
        nonempty = nbytes > 0
        if sigma > 0 and nonempty.any():
            jitter = np.ones(nbytes.shape)
            jitter[nonempty] = _lognormal(sigma, rng, np.count_nonzero(nonempty))
    elif nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    elif sigma > 0 and nbytes > 0:
        jitter = _lognormal(sigma, rng, None)
    return profile.latency + nbytes * 8.0 / (1e6 * profile.effective_bandwidth(k_active)) * jitter


def _lognormal(sigma: float, rng: np.random.Generator | None, size: int | None):
    """Mean-one lognormal factors: a float when ``size`` is None, else an array."""
    if rng is None:
        raise ValueError("a jittered transfer needs a random generator")
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=size)
