"""Allreduce collectives over an abstract transport.

Two algorithms with the same contract (each overwrites a rank's C-contiguous
float32 array, in place, with the elementwise SUM over all ranks' arrays, and
returns it), each a message schedule (``ring_steps``, ``tree_steps``) that one
executor runs:

* ``ring_allreduce``: K-1 scatter-reduce steps then K-1 allgather steps
  around a logical ring; each rank sends exactly 2(K-1) messages of roughly
  n/K elements. Rank r always sends to (r+1) mod K and receives from
  (r-1) mod K, in one ``endpoint.sendrecv`` per step.
* ``tree_allreduce``: binomial-tree reduce to rank 0 followed by a
  binomial-tree broadcast; the stand-in for a generic library allreduce.

Averaging is deliberately not done here; callers divide by K themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import LayoutError, ProtocolError
from .preset import MAX_WORKERS, check_workers
from .profiles import segment_size

# Each collective invocation claims a block of tags so that concurrent or
# back-to-back calls can never match each other's messages: one tag per step
# of a ring over the most ranks a config admits.
_TAG_BLOCK = 2 * (MAX_WORKERS - 1)


@dataclass
class CommGroup:
    """A rank's membership in a collective group, bound to a transport endpoint."""

    endpoint: object
    invocations: int = field(default=0, init=False)   # collective calls issued so far

    def __post_init__(self):
        check_workers(self.size, "ranks")   # a ring over more would spill into the next tag block

    @property
    def rank(self) -> int:
        return self.endpoint.rank

    @property
    def size(self) -> int:
        return self.endpoint.size

    def next_tag_block(self) -> int:
        base = (self.invocations % (2 ** 18)) * _TAG_BLOCK
        self.invocations += 1
        return base


def pack(grads: list[np.ndarray]) -> np.ndarray:
    """Concatenate all chunks into one new contiguous float32 array."""
    if len(grads) == 0:
        raise ValueError("cannot pack an empty gradient set")
    return np.concatenate([np.ascontiguousarray(chunk, dtype=np.float32).reshape(-1)
                           for chunk in grads])


def unpack(data: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of pack(): one view of the flat ``data`` per shape, in order; nothing is
    copied, so writing a chunk writes ``data``."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != data.size:
        raise LayoutError(
            f"shapes cover {sum(sizes)} elements but buffer holds {data.size}")
    pieces = np.split(data, np.cumsum(sizes)[:-1])
    return [piece.reshape(shape) for piece, shape in zip(pieces, shapes)]


def ring_steps(rank: int, k: int):
    """Yield rank's 2(K-1) ring steps as ``(tag, dst, send_seg, src, recv_seg, reduce)``.

    The first K-1 steps scatter-reduce (the received segment is added in);
    after them rank r owns the completed segment (r+1) mod K. The last K-1
    steps allgather (the received segment overwrites). Rank r sends to
    (r+1) mod K, so its ``send_seg`` at step i is rank r+1's ``recv_seg``.
    """
    right, left = (rank + 1) % k, (rank - 1) % k
    for step in range(k - 1):
        yield step, right, (rank - step) % k, left, (rank - step - 1) % k, True
    for step in range(k - 1):
        yield k - 1 + step, right, (rank + 1 - step) % k, left, (rank - step) % k, False


def tree_steps(rank: int, k: int):
    """Yield rank's binomial-tree steps in ``ring_steps``' form, over one whole-buffer segment.

    Reduce rounds 0..L-1 add each rank's buffer into rank 0's along the
    binomial tree; broadcast rounds L..2L-1 copy the sum back down the same
    edges. The round is the tag; each step only sends or only receives (the
    other side is None).
    """
    levels = (k - 1).bit_length()
    for rnd in range(levels):
        mask = 1 << rnd
        if rank % (2 * mask) == mask:
            yield rnd, rank - mask, 0, None, None, True
            break
        if rank % (2 * mask) == 0 and rank + mask < k:
            yield rnd, None, None, rank + mask, 0, True
    for rnd in range(levels):
        mask = 1 << (levels - 1 - rnd)
        if rank % (2 * mask) == 0 and rank + mask < k:
            yield levels + rnd, rank + mask, 0, None, None, False
        elif rank % (2 * mask) == mask:
            yield levels + rnd, None, None, rank - mask, 0, False


def _allreduce(data: np.ndarray, group: CommGroup, steps, n_segments: int) -> np.ndarray:
    """Run this rank's ``steps`` over ``data`` cut by ``segment_size`` into ``n_segments``
    views, summing in place; returns ``data``."""
    if data.dtype != np.float32 or not data.flags.c_contiguous:
        raise ValueError("a collective sums a C-contiguous float32 array in place")
    flat = data.reshape(-1)   # a view: data is contiguous
    ep = group.endpoint
    tag0 = group.next_tag_block()
    edges = list(accumulate((segment_size(flat.size, n_segments, s) for s in range(n_segments)),
                            initial=0))
    segments = [flat[lo:hi] for lo, hi in zip(edges, edges[1:])]
    for tag, dst, send_seg, src, recv_seg, reduce in steps:
        if src is None:
            ep.send(dst, tag0 + tag, segments[send_seg])
            continue
        incoming = (ep.recv(src, tag0 + tag) if dst is None else
                    ep.sendrecv(dst, src, tag0 + tag, segments[send_seg]))
        segment = segments[recv_seg]
        if incoming.size != segment.size:
            raise ProtocolError(
                f"rank {group.rank}: segment {recv_seg} from rank {src} arrived with "
                f"{incoming.size} elements, expected {segment.size}", rank=src)
        if reduce:
            segment += incoming
        else:
            segment[:] = incoming   # a TCP payload views its frame's buffer; copy it out
    return data


def ring_allreduce(data: np.ndarray, group: CommGroup) -> np.ndarray:
    """Elementwise sum of equal-length arrays across all ranks (ring), in place."""
    return _allreduce(data, group, ring_steps(group.rank, group.size), group.size)


def tree_allreduce(data: np.ndarray, group: CommGroup) -> np.ndarray:
    """Elementwise sum across all ranks via binomial reduce + broadcast, in place."""
    return _allreduce(data, group, tree_steps(group.rank, group.size), 1)
