"""Calibration fitters for the simulator's free constants.

Each fitter adjusts exactly one constant against a single target operating
point, which its docstring names; everything else stays frozen. The
invocation overhead enters linearly and is solved in closed form; the other
two constants are found by bisection. The shipped presets carry the fitted
values, and the test suite re-runs the fits to guard against drift.
"""

from __future__ import annotations

from dataclasses import replace

from ..profiles import ComputeProfile, NetProfile, build_profile
from .cost import aggregation_comm_time, collective_time

ANCHOR_37_5_MB = int(37.5 * 2 ** 20)


def bisect_increasing(fn, lo: float, hi: float, target: float) -> float:
    """Solve fn(x) == target for an increasing fn on [lo, hi] to a relative 1e-9."""
    flo, fhi = fn(lo), fn(hi)
    if not flo <= target <= fhi:
        raise ValueError(f"target {target} outside [{flo}, {fhi}] on [{lo}, {hi}]")
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def contention_slowdown(net: NetProfile, compute: ComputeProfile) -> float:
    """Slowdown of a 37.5 MB tree allreduce from 2 to 16 participants on one link.

    Each time draws its jitter from a fresh generator seeded from ``net.seed``.
    """
    t_small = collective_time(ANCHOR_37_5_MB, 2, net, compute, "tree")
    t_large = collective_time(ANCHOR_37_5_MB, 16, net, compute, "tree")
    return t_large / t_small


def fit_contention_coeff(net: NetProfile, compute: ComputeProfile,
                         target_ratio: float = 63.0) -> float:
    """Contention coefficient in [0, 64] that hits the target collective slowdown."""

    def ratio(coeff: float) -> float:
        return contention_slowdown(replace(net, contention_coeff=coeff), compute)

    return bisect_increasing(ratio, 0.0, 64.0, target_ratio)


def fit_invocation_overhead(net: NetProfile, compute: ComputeProfile,
                            target_seconds: float = 84.0) -> float:
    """Per-invocation overhead that lands chunk-wise Inception-v3 at K=138 on target.

    Chunk-wise time is ``num_chunks * overhead`` plus its time at zero
    overhead, so the overhead follows directly from one cost walk.
    """
    profile = build_profile("Inception-v3")
    t0 = aggregation_comm_time(profile, 138, net,
                               replace(compute, invocation_overhead=0.0),
                               "ring_chunkwise")
    if target_seconds < t0:
        raise ValueError(f"target {target_seconds} below the zero-overhead time {t0}")
    return (target_seconds - t0) / profile.num_chunks


def fit_throughput_boundary(net: NetProfile, compute: ComputeProfile) -> float:
    """Throughput at which a GoogleNet global batch of 32 takes as long on K=32 as on K=16.

    Bisects on [1e6, 1e12]. Above the boundary the compute savings from
    doubling the workers no longer cover the extra communication, so total
    time inverts.
    """
    profile = build_profile("GoogleNet")
    comm_small = aggregation_comm_time(profile, 16, net, compute, "ring_packed")
    comm_large = aggregation_comm_time(profile, 32, net, compute, "ring_packed")

    def inversion(throughput: float) -> float:
        cp = replace(compute, throughput=throughput)
        total_small = cp.compute_time(profile, 2) + comm_small   # 32 samples on 16 workers
        total_large = cp.compute_time(profile, 1) + comm_large   # 32 samples on 32 workers
        return total_large - total_small

    return bisect_increasing(inversion, 1e6, 1e12, 0.0)
