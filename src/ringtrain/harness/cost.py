"""Analytic timing of collective message schedules.

These functions walk the exact message schedule a collective would execute and
sum simulated transfer times, without moving any payload. The ring cost
follows rank 0's 2(K-1) receives from ``collectives.ring_steps``, the schedule
``ring_allreduce`` runs, with the real uneven segment sizes; the tree
baseline models a segmented, pipelined binomial reduce+broadcast, which is how
production libraries keep large-message allreduce time nearly independent of
the participant count.

Each call draws every message's jitter from one generator seeded from
``net.seed``. ``ring_comm_time``, ``tree_comm_time`` and ``collective_time``
also take the caller's generator instead, so a sweep can share one.
"""

from __future__ import annotations

import math

import numpy as np

from ..collectives import AGGREGATIONS, ring_steps, segment_bounds
from ..profiles import FLOAT_BYTES, ComputeProfile, ModelProfile
from ..transport.net import NetProfile, sim_transfer_time


def _jitter_rng(net: NetProfile, rng: np.random.Generator | None) -> np.random.Generator:
    return np.random.default_rng(net.seed) if rng is None else rng


def ring_comm_time(n_elems: int, k: int, net: NetProfile,
                   rng: np.random.Generator | None = None) -> float:
    """Rank-0 time for one ring allreduce of ``n_elems`` float32 elements."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0.0
    rng = _jitter_rng(net, rng)
    bounds = segment_bounds(n_elems, k)
    total = 0.0
    for _, recv_seg, _ in ring_steps(0, k):
        lo, hi = bounds[recv_seg]
        total += sim_transfer_time((hi - lo) * FLOAT_BYTES, k, net, rng)
    return total


def tree_comm_time(n_bytes: int, k: int, net: NetProfile, segment_bytes: int,
                   rng: np.random.Generator | None = None) -> float:
    """Critical-path time of a pipelined binomial reduce + broadcast.

    A message of m segments crosses a depth-d tree in (d - 1 + m) segment
    slots per direction; both directions are charged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return 0.0
    rng = _jitter_rng(net, rng)
    depth = max(1, math.ceil(math.log2(k)))
    full, last = divmod(n_bytes, segment_bytes)
    # a zero-byte collective still crosses every hop once per direction
    segments = [segment_bytes] * full + ([last] if last else ([0] if n_bytes == 0 else []))
    fill_bytes = min(segment_bytes, n_bytes)
    total = 0.0
    for _direction in range(2):
        for seg in segments:
            total += sim_transfer_time(seg, k, net, rng)
        for _ in range(depth - 1):     # pipeline fill slots
            total += sim_transfer_time(fill_bytes, k, net, rng)
    return total


def _invocation_time(collective: str, n_bytes: int, k: int, net: NetProfile,
                     compute: ComputeProfile, rng: np.random.Generator) -> float:
    """Message time of one ring or tree allreduce of ``n_bytes``, without overhead."""
    if collective == "ring":
        return ring_comm_time(n_bytes // FLOAT_BYTES, k, net, rng)
    if collective == "tree":
        return tree_comm_time(n_bytes, k, net, compute.tree_segment_bytes, rng)
    raise ValueError(f"unknown collective {collective!r}")


def aggregation_comm_time(profile: ModelProfile, k: int, net: NetProfile,
                          compute: ComputeProfile, alg: str) -> float:
    """Communication-phase time for one iteration's gradient aggregation.

    Every invocation pays the invocation overhead: a packed strategy makes
    one invocation and pays the pack/unpack memory copies once, a chunk-wise
    strategy makes one invocation per chunk and never copies.
    """
    if k == 1:
        return 0.0
    if alg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {alg!r}")
    collective, packed = AGGREGATIONS[alg]
    buffers = [profile.total_bytes] if packed else [n * FLOAT_BYTES for n in profile.chunk_elems]
    copies = 2 * profile.total_bytes / compute.pack_bandwidth if packed else 0.0
    rng = np.random.default_rng(net.seed)
    total = 0.0
    for n_bytes in buffers:
        total += (compute.invocation_overhead + copies
                  + _invocation_time(collective, n_bytes, k, net, compute, rng))
    return total


def collective_time(n_bytes: int, k: int, net: NetProfile, compute: ComputeProfile,
                    alg: str, rng: np.random.Generator | None = None) -> float:
    """Bare allreduce benchmark time for a buffer of ``n_bytes``."""
    if k == 1:
        return 0.0
    return compute.invocation_overhead + _invocation_time(alg, n_bytes, k, net, compute,
                                                          _jitter_rng(net, rng))
