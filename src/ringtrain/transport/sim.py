"""Deterministic in-process transport with a virtual clock.

Ranks run as cooperating tasks inside one process. Each endpoint keeps its own
virtual clock: sends are buffered (a full-duplex NIC does the work, so the
sender's clock does not advance) and stamped with an arrival time computed from
the link profile; a receive blocks until the matching message exists and then
advances the receiver's clock to at least the arrival time.

Every directed link draws jitter and disconnect samples from its own seeded
stream, so simulated durations are reproducible no matter how the task
scheduler interleaves ranks.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np

from ..errors import PeerDisconnected, RecvTimeout, TagMismatch
from .net import NetProfile, sim_transfer_time


class SimEndpoint:
    """One rank's handle onto the simulated network."""

    def __init__(self, cluster: "SimCluster", rank: int):
        self._cluster = cluster
        self.rank = rank
        self.size = cluster.size
        self.clock = 0.0
        self.n_sends = 0
        self.bytes_sent = 0

    def advance(self, seconds: float) -> None:
        """Account for local (compute) time on this rank's clock."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self.clock += seconds

    def send(self, dst: int, tag: int, payload: np.ndarray) -> None:
        if dst == self.rank or not 0 <= dst < self.size:
            raise ValueError(f"invalid destination rank {dst}")
        data = np.array(payload, dtype=np.float32, copy=True)
        nbytes = data.size * 4
        cl = self._cluster
        rng = cl.link_rng(self.rank, dst)
        if cl.profile.disconnect_prob > 0 and rng.random() < cl.profile.disconnect_prob:
            raise PeerDisconnected(
                f"simulated disconnect on link {self.rank}->{dst}", rank=dst)
        arrival = self.clock + sim_transfer_time(nbytes, self.size, cl.profile, rng)
        with cl.cond:
            cl.queues[(self.rank, dst)].append((tag, arrival, data))
            cl.cond.notify_all()
        self.n_sends += 1
        self.bytes_sent += nbytes

    def recv(self, src: int, tag: int, timeout: float = 30.0) -> np.ndarray:
        if src == self.rank or not 0 <= src < self.size:
            raise ValueError(f"invalid source rank {src}")
        cl = self._cluster
        queue = cl.queues[(src, self.rank)]
        with cl.cond:
            ready = cl.cond.wait_for(
                lambda: len(queue) > 0 or cl.failed is not None, timeout=timeout)
            if not queue and cl.failed is not None:
                failed_rank, exc = cl.failed
                raise PeerDisconnected(
                    f"rank {self.rank}: aborting, rank {failed_rank} failed: {exc}",
                    rank=failed_rank)
            if not ready:
                raise RecvTimeout(
                    f"rank {self.rank}: no message from rank {src} tag {tag} "
                    f"within {timeout}s", rank=src)
            got_tag, arrival, data = queue[0]
            if got_tag != tag:
                raise TagMismatch(
                    f"rank {self.rank}: expected tag {tag} from rank {src}, "
                    f"got {got_tag}", rank=src)
            queue.popleft()
        if arrival > self.clock:
            self.clock = arrival
        return data

    def sendrecv(self, dst: int, src: int, tag: int, payload: np.ndarray) -> np.ndarray:
        """Send ``payload`` to ``dst`` and receive the ``src`` message with the same tag.

        The send is buffered, so it cannot hold up the receive.
        """
        self.send(dst, tag, payload)
        return self.recv(src, tag)


class SimCluster:
    """Factory for a group of simulated endpoints sharing one medium."""

    def __init__(self, size: int, profile: NetProfile):
        if size < 1:
            raise ValueError("cluster size must be >= 1")
        self.size = size
        self.profile = profile
        self.cond = threading.Condition()
        self.failed: tuple[int, BaseException] | None = None
        self.queues: dict[tuple[int, int], deque] = {
            (s, d): deque() for s in range(size) for d in range(size) if s != d}
        self._rngs: dict[tuple[int, int], np.random.Generator] = {}
        self.endpoints = [SimEndpoint(self, r) for r in range(size)]

    def link_rng(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        if key not in self._rngs:
            ss = np.random.SeedSequence(entropy=self.profile.seed, spawn_key=key)
            self._rngs[key] = np.random.default_rng(ss)
        return self._rngs[key]

    def run(self, fn, *args) -> list:
        """Run ``fn(endpoint, *args)`` once per rank on worker threads.

        Returns per-rank results; the first rank failure is re-raised after
        all threads finish.
        """
        results = [None] * self.size

        def task(rank: int):
            try:
                results[rank] = fn(self.endpoints[rank], *args)
            except BaseException as exc:  # noqa: BLE001 - propagated below
                with self.cond:
                    if self.failed is None:
                        self.failed = (rank, exc)
                    self.cond.notify_all()

        threads = [threading.Thread(target=task, args=(r,), daemon=True)
                   for r in range(self.size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if self.failed is not None:
            # first failure chronologically is the root cause
            raise self.failed[1]
        return results


def sim_probe_bandwidth(profile: NetProfile, duration_s: float) -> tuple[float, bool]:
    """Simulated point-to-point probe: stream 4 MiB messages for a virtual duration.

    Returns (Mbps, aborted). With disconnect_prob == 1 the very first message
    drops and the probe aborts with a partial-result flag.
    """
    message_bytes = 4 * 2 ** 20
    rng = np.random.default_rng(profile.seed)
    elapsed = 0.0
    acked = 0
    aborted = False
    while elapsed < duration_s:
        if profile.disconnect_prob > 0 and rng.random() < profile.disconnect_prob:
            aborted = True
            break
        elapsed += sim_transfer_time(message_bytes, 2, profile, rng)
        acked += message_bytes
    if elapsed <= 0.0:
        return 0.0, aborted
    return acked * 8.0 / (1e6 * elapsed), aborted
