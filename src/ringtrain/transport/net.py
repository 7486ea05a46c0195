"""Link model for the simulated transport.

A profile describes one shared medium: nominal point-to-point bandwidth, a
per-message latency floor, a lognormal jitter width applied to the bandwidth
term, a contention coefficient that divides effective bandwidth as more nodes
share the medium, and a per-message disconnect probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NetProfile:
    base_bandwidth: float      # megabits per second
    latency: float             # seconds per message
    jitter_frac: float = 0.0   # std-dev fraction of the transfer time
    contention_coeff: float = 0.0
    disconnect_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.base_bandwidth <= 0:
            raise ValueError("base_bandwidth must be positive")
        if not 0.0 <= self.disconnect_prob < 1.0:
            raise ValueError("disconnect_prob must be in [0, 1)")
        if self.jitter_frac < 0 or self.contention_coeff < 0 or self.latency < 0:
            raise ValueError("latency, jitter_frac and contention_coeff must be >= 0")

    def effective_bandwidth(self, k_active: int) -> float:
        """Shared-medium bandwidth in Mbps when ``k_active`` nodes are up."""
        return self.base_bandwidth / (1.0 + self.contention_coeff * max(0, k_active - 2))


def sim_transfer_time(nbytes: int, k_active: int, profile: NetProfile,
                      rng: np.random.Generator | None = None) -> float:
    """Seconds to move ``nbytes`` over one link while ``k_active`` nodes share it.

    t = latency + bytes*8 / (1e6 * effective_bw), with the bandwidth term
    scaled by a mean-one lognormal jitter draw from ``rng`` when the profile
    has jitter; a jittered transfer without a generator is a ValueError.
    Zero-byte messages cost exactly the latency; jitter never touches it.
    """
    if nbytes < 0:
        raise ValueError("nbytes must be >= 0")
    if nbytes == 0:
        return profile.latency
    bw = profile.effective_bandwidth(k_active)
    t_bw = nbytes * 8.0 / (1e6 * bw)
    if profile.jitter_frac > 0:
        if rng is None:
            raise ValueError("a jittered transfer needs a random generator")
        sigma = profile.jitter_frac
        t_bw *= float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
    return profile.latency + t_bw
