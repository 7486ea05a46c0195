"""Analytic timing of collective message schedules.

These functions price the exact message schedule a collective would execute,
moving no payload, in blocks of at most ``BLOCK_MESSAGES`` messages with one
array call to ``sim_transfer_time`` each, so memory stays bounded for any
payload, and sum the times in message order. The ring cost follows rank 0's
2(K-1) receives from ``collectives.ring_steps``, the schedule
``ring_allreduce`` runs, with the real uneven segment sizes of
``profiles.segment_size``; the tree baseline models a segmented, pipelined
binomial reduce+broadcast over the rounds of ``collectives.tree_steps``,
which is how production libraries keep large-message allreduce time nearly
independent of the participant count.

Each call draws every message's jitter from one generator seeded from
``net.seed``, in message order. ``collective_time`` also takes the caller's
generator instead, so a sweep can share one. A jitter-free link draws
nothing, so a buffer's time depends on its size alone: there each distinct
size is priced once, message by message, and its time is given to every
buffer of that size, which is exactly what pricing each buffer would give.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..collectives import ring_steps, tree_steps
from ..preset import AGGREGATIONS, check_workers
from ..profiles import FLOAT_BYTES, ComputeProfile, ModelProfile, NetProfile, segment_size
from ..transport.net import sim_transfer_time

# Messages priced per sim_transfer_time call: few calls, and a cost call's
# arrays stay near 0.4 MiB whatever the payload or the number of chunks.
BLOCK_MESSAGES = 8192


@lru_cache(maxsize=32)
def _ring_order(k: int) -> np.ndarray:
    """Rank 0's ring receive segments in step order, shared read-only per K."""
    order = np.array([recv for *_, recv, _ in ring_steps(0, k)], dtype=np.int64)
    order.flags.writeable = False
    return order


def _schedule(collective: str, k: int, segment_bytes: int | None, n_bytes: np.ndarray):
    """``(count, sizes)`` of one allreduce of each buffer in ``n_bytes``.

    Each sends ``count`` messages; ``sizes(rows, lo, hi)`` gives the byte
    counts of messages lo..hi-1 of buffers ``n_bytes[rows]``, one row each.
    The tree sends m segments across a depth-d tree, d the reduce rounds of
    ``tree_steps``, in (d - 1 + m) segment slots per direction, and both
    directions are charged; as its count depends on the size, it takes one
    buffer.
    """
    check_workers(k, "k")
    if collective == "ring":
        order = _ring_order(k)
        elems = n_bytes[:, None] // FLOAT_BYTES
        return len(order), lambda rows, lo, hi: (
            segment_size(elems[rows], k, order[lo:hi]) * FLOAT_BYTES)
    if collective == "tree":
        (size,) = n_bytes.tolist()
        if size < 0:
            raise ValueError("nbytes must be >= 0")
        # rank 0 receives in every reduce round of the tree
        depth = max(1, sum(reduce for *_, reduce in tree_steps(0, k)))
        full, last = divmod(size, segment_bytes)
        # (bytes, messages) runs of both directions; a zero-byte collective
        # still crosses every hop once per direction
        runs = [(segment_bytes, full), (last, int(last > 0 or size == 0)),
                (min(segment_bytes, size), depth - 1)] * 2

        def tree(rows, lo: int, hi: int) -> np.ndarray:
            counts, start = [], 0
            for _, n in runs:
                counts.append(max(0, min(start + n, hi) - max(start, lo)))
                start += n
            return np.repeat([b for b, _ in runs], counts)[None, :]
        return sum(n for _, n in runs), tree
    raise ValueError(f"unknown collective {collective!r}")


def _comm_times(collective: str, k: int, net: NetProfile, segment_bytes: int | None,
                n_bytes: np.ndarray, rng: np.random.Generator | None) -> np.ndarray:
    """Each buffer's allreduce time: its messages' times summed in message order.

    A block is a run of whole buffers, or a stretch of one buffer's messages
    whose running sum is carried into the next block as the first term of its
    cumulative sum, so the additions are those of a message-by-message walk.
    """
    rng = np.random.default_rng(net.seed) if rng is None else rng
    inverse = None
    if net.jitter_frac == 0:   # no draws: buffers of one size take one time
        n_bytes, inverse = np.unique(n_bytes, return_inverse=True)
    count, sizes = _schedule(collective, k, segment_bytes, n_bytes)
    rows, width = max(1, BLOCK_MESSAGES // count), min(count, BLOCK_MESSAGES)
    times = np.empty(len(n_bytes))
    for first in range(0, len(n_bytes), rows):
        block = slice(first, first + rows)
        for lo in range(0, count, width):
            t = sim_transfer_time(sizes(block, lo, min(lo + width, count)), k, net, rng)
            total = np.cumsum(np.hstack((total, t)) if lo else t, axis=1)[:, -1:]
        times[block] = total[:, 0]
    return times if inverse is None else times[inverse]


def aggregation_comm_time(profile: ModelProfile, k: int, net: NetProfile,
                          compute: ComputeProfile, alg: str) -> float:
    """Communication-phase time for one iteration's gradient aggregation.

    Every invocation pays ``compute.invocation_time``, the charge the
    simulated engine pays too: a packed strategy makes one invocation and
    pays the pack/unpack memory copies once, a chunk-wise strategy makes one
    invocation per chunk and never copies. One rank makes no invocation and
    is charged nothing. The chunk-wise ring prices a run of whole chunks per
    array call and adds the invocations' times in chunk order.
    """
    if k == 1:
        return 0.0
    if alg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {alg!r}")
    collective, packed = AGGREGATIONS[alg]
    buffers = np.array([profile.total_elems] if packed else profile.chunk_elems, np.int64)
    charge = compute.invocation_time(profile.total_bytes, packed)
    comm = _comm_times(collective, k, net, compute.tree_segment_bytes, buffers * FLOAT_BYTES, None)
    return float(np.cumsum(np.append(0.0, charge + comm))[-1])


def collective_time(n_bytes: int, k: int, net: NetProfile, compute: ComputeProfile,
                    alg: str, rng: np.random.Generator | None = None) -> float:
    """Bare allreduce benchmark time for a buffer of ``n_bytes``."""
    if k == 1:
        return 0.0
    comm = _comm_times(alg, k, net, compute.tree_segment_bytes,
                       np.array([n_bytes], dtype=np.int64), rng)
    return compute.invocation_time(n_bytes, False) + float(comm[0])
