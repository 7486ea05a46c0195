"""Calibration fitters for the simulator's free constants.

Each fitter adjusts exactly one constant against a single target operating
point; everything else stays frozen. The invocation overhead enters linearly
and is solved in closed form; the other two constants are found by bisection.
The shipped presets carry the fitted values, and the test suite re-runs the
fits to guard against drift.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..profiles import ComputeProfile, build_profile
from ..transport.net import NetProfile
from .cost import aggregation_comm_time, collective_time

ANCHOR_37_5_MB = int(37.5 * 2 ** 20)


def bisect_increasing(fn, lo: float, hi: float, target: float,
                      tol: float = 1e-9, max_iter: int = 100) -> float:
    """Solve fn(x) == target for an increasing fn on [lo, hi]."""
    flo, fhi = fn(lo), fn(hi)
    if not flo <= target <= fhi:
        raise ValueError(f"target {target} outside [{flo}, {fhi}] on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def contention_slowdown(net: NetProfile, compute: ComputeProfile,
                        size_bytes: int = ANCHOR_37_5_MB,
                        k_small: int = 2, k_large: int = 16,
                        alg: str = "tree") -> float:
    """Allreduce slowdown from k_small to k_large participants on one link."""
    rng = np.random.default_rng(net.seed)
    t_small = collective_time(size_bytes, k_small, net, compute, alg, rng)
    rng = np.random.default_rng(net.seed)
    t_large = collective_time(size_bytes, k_large, net, compute, alg, rng)
    return t_large / t_small


def fit_contention_coeff(net: NetProfile, compute: ComputeProfile,
                         target_ratio: float = 63.0,
                         size_bytes: int = ANCHOR_37_5_MB,
                         k_small: int = 2, k_large: int = 16,
                         hi: float = 64.0) -> float:
    """Contention coefficient that hits the target collective slowdown."""

    def ratio(coeff: float) -> float:
        return contention_slowdown(replace(net, contention_coeff=coeff), compute,
                                   size_bytes, k_small, k_large)

    return bisect_increasing(ratio, 0.0, hi, target_ratio)


def fit_invocation_overhead(net: NetProfile, compute: ComputeProfile,
                            target_seconds: float = 84.0,
                            model: str = "Inception-v3", k: int = 138) -> float:
    """Per-invocation overhead that lands chunk-wise aggregation on target.

    Chunk-wise time is ``num_chunks * overhead`` plus its time at zero
    overhead, so the overhead follows directly from one cost walk.
    """
    profile = build_profile(model)
    t0 = aggregation_comm_time(profile, k, net,
                               replace(compute, invocation_overhead=0.0),
                               "ring_chunkwise")
    if target_seconds < t0:
        raise ValueError(f"target {target_seconds} below the zero-overhead time {t0}")
    return (target_seconds - t0) / profile.num_chunks


def fit_throughput_boundary(net: NetProfile, compute: ComputeProfile,
                            model: str = "GoogleNet", batch: int = 32,
                            k_small: int = 16, k_large: int = 32,
                            lo: float = 1e6, hi: float = 1e12) -> float:
    """Throughput at which total(k_large) == total(k_small) for a fixed batch.

    Above the boundary the compute savings from doubling the workers no longer
    cover the extra communication, so total time inverts.
    """
    profile = build_profile(model)
    comm_small = aggregation_comm_time(profile, k_small, net, compute, "ring_packed")
    comm_large = aggregation_comm_time(profile, k_large, net, compute, "ring_packed")

    def inversion(throughput: float) -> float:
        cp = replace(compute, throughput=throughput)
        total_small = cp.compute_time(profile, batch // k_small) + comm_small
        total_large = cp.compute_time(profile, batch // k_large) + comm_large
        return total_large - total_small

    return bisect_increasing(inversion, lo, hi, 0.0)
