"""Allreduce collectives over an abstract transport.

Two algorithms with the same contract (each takes a rank's float array and
returns a new float32 array holding the elementwise SUM over all ranks'
arrays):

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

import numpy as np

from .errors import LayoutError, ProtocolError

# Each aggregation strategy: the collective it runs and whether it packs all
# gradient chunks into one buffer (one invocation per step) or runs one
# invocation per chunk. The executor and the cost model both read this table.
AGGREGATIONS = {
    "ring_packed": ("ring", True),
    "tree_packed": ("tree", True),
    "ring_chunkwise": ("ring", False),
}

# Each collective invocation claims a block of tags so that concurrent or
# back-to-back calls can never match each other's messages.
_TAG_BLOCK = 1 << 12


@dataclass
class CommGroup:
    """A rank's membership in a collective group, bound to a transport endpoint."""

    endpoint: object
    invocations: int = field(default=0, init=False)   # collective calls issued so far

    def __post_init__(self):
        # a ring invocation uses 2(K-1) tags; more would spill into the next block
        if 2 * (self.size - 1) > _TAG_BLOCK:
            raise ValueError(f"a ring over {self.size} ranks needs more than "
                             f"{_TAG_BLOCK} tags per invocation")

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
    """Concatenate all chunks into one contiguous float32 array."""
    if len(grads) == 0:
        raise ValueError("cannot pack an empty gradient set")
    return np.concatenate([np.ascontiguousarray(chunk, dtype=np.float32).reshape(-1)
                           for chunk in grads])


def unpack(data: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Inverse of pack(): copies each chunk of ``shapes`` out; bit-exact round trip."""
    sizes = [math.prod(shape) for shape in shapes]
    if sum(sizes) != data.size:
        raise LayoutError(
            f"shapes cover {sum(sizes)} elements but buffer holds {data.size}")
    pieces = np.split(data, np.cumsum(sizes)[:-1])
    return [piece.reshape(shape).copy() for piece, shape in zip(pieces, shapes)]


def segment_size(n: int, k: int, seg):
    """Elements in ring segment ``seg`` (an int or an int array) of n split k ways.

    Segment s gets ceil(n/k) elements when s < n mod k, floor(n/k) otherwise;
    zero-length segments are legal when n < k. No padding, so byte counts on
    the wire stay faithful.
    """
    base, rem = divmod(n, k)
    return base + (seg < rem)


def segment_bounds(n: int, k: int) -> list[tuple[int, int]]:
    """``(start, end)`` of each of the k ring segments of n elements, in order."""
    bounds = []
    start = 0
    for s in range(k):
        end = start + segment_size(n, k, s)
        bounds.append((start, end))
        start = end
    return bounds


def ring_steps(rank: int, k: int):
    """Yield rank's 2(K-1) ring steps as ``(send_seg, recv_seg, reduce)``.

    The first K-1 steps scatter-reduce (the received segment is added in);
    after them rank r owns the completed segment (r+1) mod K. The last K-1
    steps allgather (the received segment overwrites). Rank r sends to
    (r+1) mod K, so its ``send_seg`` at step i is rank r+1's ``recv_seg``.
    """
    for step in range(k - 1):
        yield (rank - step) % k, (rank - step - 1) % k, True
    for step in range(k - 1):
        yield (rank + 1 - step) % k, (rank - step) % k, False


def ring_allreduce(data: np.ndarray, group: CommGroup) -> np.ndarray:
    """Elementwise sum of equal-length arrays across all ranks (ring)."""
    k = group.size
    out = data.astype(np.float32, copy=True)
    if k == 1:
        return out
    ep = group.endpoint
    rank = group.rank
    tag0 = group.next_tag_block()
    right = (rank + 1) % k
    left = (rank - 1) % k
    bounds = segment_bounds(out.size, k)
    for i, (send_seg, recv_seg, reduce) in enumerate(ring_steps(rank, k)):
        lo, hi = bounds[send_seg]
        incoming = ep.sendrecv(right, left, tag0 + i, out[lo:hi])
        lo, hi = bounds[recv_seg]
        if incoming.size != hi - lo:
            raise ProtocolError(
                f"rank {rank}: segment {recv_seg} arrived with {incoming.size} "
                f"elements, expected {hi - lo}")
        if reduce:
            out[lo:hi] += incoming
        else:
            out[lo:hi] = incoming
    return out


def tree_allreduce(data: np.ndarray, group: CommGroup) -> np.ndarray:
    """Elementwise sum across all ranks via binomial reduce + broadcast."""
    k = group.size
    out = data.astype(np.float32, copy=True)
    if k == 1:
        return out
    ep = group.endpoint
    rank = group.rank
    tag0 = group.next_tag_block()
    n = out.size
    masks = [1 << i for i in range((k - 1).bit_length())]   # 1, 2, 4, ... below k
    levels = len(masks)

    # binomial reduce to rank 0; tags are keyed to the round so every rank agrees
    for rnd, mask in enumerate(masks):
        if rank % (2 * mask) == mask:
            ep.send(rank - mask, tag0 + rnd, out)
            break
        partner = rank + mask
        if rank % (2 * mask) == 0 and partner < k:
            incoming = ep.recv(partner, tag0 + rnd)
            if incoming.size != n:
                raise ProtocolError(
                    f"rank {rank}: reduce payload of {incoming.size} elements, "
                    f"expected {n}")
            out += incoming

    # binomial broadcast from rank 0, mirroring the reduce rounds
    for rnd, mask in enumerate(reversed(masks)):
        tag = tag0 + levels + rnd
        if rank % (2 * mask) == 0:
            partner = rank + mask
            if partner < k:
                ep.send(partner, tag, out)
        elif rank % (2 * mask) == mask:
            incoming = ep.recv(rank - mask, tag)
            if incoming.size != n:
                raise ProtocolError(
                    f"rank {rank}: broadcast payload of {incoming.size} elements, "
                    f"expected {n}")
            out[:] = incoming   # a TCP payload views its frame's buffer; the result is out
    return out


def allreduce_chunkwise(grads: list[np.ndarray], group: CommGroup) -> list[np.ndarray]:
    """One ring allreduce invocation per chunk, in chunk order."""
    return [ring_allreduce(chunk.reshape(-1), group).reshape(chunk.shape) for chunk in grads]
