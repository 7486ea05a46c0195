"""Analytic timing of collective message schedules.

These functions price the exact message schedule a collective would execute
with one array call to ``sim_transfer_time``, moving no payload, and sum the
times in message order. The ring cost follows rank 0's 2(K-1) receives from
``collectives.ring_steps``, the schedule ``ring_allreduce`` runs, with the
real uneven segment sizes; the tree baseline models a segmented, pipelined
binomial reduce+broadcast, which is how production libraries keep
large-message allreduce time nearly independent of the participant count.

Each call draws every message's jitter from one generator seeded from
``net.seed``. ``collective_time`` also takes the caller's generator instead,
so a sweep can share one.
"""

from __future__ import annotations

import numpy as np

from ..collectives import AGGREGATIONS, ring_steps, segment_size
from ..profiles import FLOAT_BYTES, ComputeProfile, ModelProfile
from ..transport.net import NetProfile, sim_transfer_time


def _schedule(collective: str, k: int, segment_bytes: int | None):
    """Byte counts of one allreduce's messages, in order, as a function of its size.

    The tree sends m segments across a depth-d tree in (d - 1 + m) segment
    slots per direction, and both directions are charged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if collective == "ring":
        order = np.array([recv for *_, recv, _ in ring_steps(0, k)], dtype=np.int64)
        return lambda n_bytes: segment_size(n_bytes // FLOAT_BYTES, k, order) * FLOAT_BYTES
    if collective == "tree":
        depth = max(1, (k - 1).bit_length())   # the rounds of collectives.tree_steps

        def tree(n_bytes: int) -> np.ndarray:
            full, last = divmod(n_bytes, segment_bytes)
            # a zero-byte collective still crosses every hop once per direction
            one_way = np.repeat([segment_bytes, last, min(segment_bytes, n_bytes)],
                                [full, int(last > 0 or n_bytes == 0), depth - 1])
            return np.tile(one_way, 2)
        return tree
    raise ValueError(f"unknown collective {collective!r}")


def _comm_time(sizes: np.ndarray, k: int, net: NetProfile,
               rng: np.random.Generator | None) -> float:
    """Time of messages sent one after another, summed in message order."""
    rng = np.random.default_rng(net.seed) if rng is None else rng
    return float(np.cumsum(sim_transfer_time(sizes, k, net, rng))[-1])


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
    sizes_of = _schedule(collective, k, compute.tree_segment_bytes)
    rng = np.random.default_rng(net.seed)
    total = 0.0
    for n_bytes in buffers:
        total += (compute.invocation_overhead + copies
                  + _comm_time(sizes_of(n_bytes), k, net, rng))
    return total


def collective_time(n_bytes: int, k: int, net: NetProfile, compute: ComputeProfile,
                    alg: str, rng: np.random.Generator | None = None) -> float:
    """Bare allreduce benchmark time for a buffer of ``n_bytes``."""
    if k == 1:
        return 0.0
    sizes = _schedule(alg, k, compute.tree_segment_bytes)(n_bytes)
    return compute.invocation_overhead + _comm_time(sizes, k, net, rng)
