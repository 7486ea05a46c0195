"""Deterministic in-process transport with a virtual clock.

Ranks run inside one process, each on its own thread, but only one at a time:
the rank that holds the turn runs until a receive finds its link empty or its
task returns, then hands the turn to the next rank in rank order that can
run: one whose awaited link holds a message, one that has not started, or
any rank once a rank has failed. A hand-off that finds no rank able to run is
a deadlock, and the first blocked rank after it raises ``RecvTimeout`` at once,
naming itself and the peer it waits on. Only the turn holder touches the
message queues, so they need no lock.

Each endpoint keeps its own virtual clock: sends are buffered (a full-duplex
NIC does the work, so the sender's clock does not advance) and stamped with an
arrival time computed from the link profile; a receive takes the matching
message and advances the receiver's clock to at least the arrival time.
Every directed link draws jitter and disconnect samples from its own seeded
stream, so simulated durations do not depend on the order ranks run in.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import replace

import numpy as np

from ..errors import PeerDisconnected, RecvTimeout, TagMismatch
from ..preset import check_workers
from ..profiles import NetProfile
from .net import sim_transfer_time

# A rank's state in a run, besides "blocked on peer p" (p >= 0).
_NEW, _DONE = -1, -2


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
        cl.queues[(self.rank, dst)].append((tag, arrival, data))
        self.n_sends += 1
        self.bytes_sent += nbytes

    def recv(self, src: int, tag: int) -> np.ndarray:
        if src == self.rank or not 0 <= src < self.size:
            raise ValueError(f"invalid source rank {src}")
        cl = self._cluster
        queue = cl.queues[(src, self.rank)]
        if not queue and cl.turns is not None:
            cl.pass_turn(self.rank, src)
        if not queue:
            if cl.failed is not None:
                failed_rank, exc = cl.failed
                raise PeerDisconnected(
                    f"rank {self.rank}: aborting, rank {failed_rank} failed: {exc}",
                    rank=failed_rank)
            raise RecvTimeout(
                f"rank {self.rank}: no message from rank {src} tag {tag}, "
                f"and no rank can run (deadlock)", rank=src)
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
        check_workers(size, "cluster size")   # run() starts one thread per rank
        self.size = size
        self.profile = profile
        self.failed: tuple[int, BaseException] | None = None
        # each directed link's queue and rng are made on first use
        self.queues: dict[tuple[int, int], deque] = defaultdict(deque)
        self._rngs: dict[tuple[int, int], np.random.Generator] = {}
        self.endpoints = [SimEndpoint(self, r) for r in range(size)]
        # during run(): each rank's state, and one lock per rank that is held
        # (so acquiring it waits) until the rank is given the turn
        self.states: list[int] = []
        self.turns: list[threading.Lock] | None = None

    def link_rng(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        if key not in self._rngs:
            ss = np.random.SeedSequence(entropy=self.profile.seed, spawn_key=key)
            self._rngs[key] = np.random.default_rng(ss)
        return self._rngs[key]

    def _can_run(self, rank: int) -> bool:
        state = self.states[rank]
        return state != _DONE and (state == _NEW or self.failed is not None
                                   or bool(self.queues[(state, rank)]))

    def pass_turn(self, rank: int, state: int) -> None:
        """Set ``rank``'s state (the peer it awaits, or ``_DONE``) and give the turn
        to the next rank in rank order that can run, or, when none can, to the
        first blocked one, whose receive then reports the deadlock. Unless
        ``rank`` is done, return when the turn comes back to it."""
        self.states[rank] = state
        order = [(rank + i) % self.size for i in range(1, self.size + 1)]
        nxt = next((r for r in order if self._can_run(r)), None)
        if nxt is None:
            nxt = next((r for r in order if self.states[r] != _DONE), rank)
        if nxt != rank:
            self.turns[nxt].release()
            if state != _DONE:
                self.turns[rank].acquire()

    def run(self, fn) -> list:
        """Run ``fn(endpoint)`` once per rank, each on its own thread, one
        rank at a time, starting with rank 0.

        Returns per-rank results; the first rank failure is re-raised after
        all threads finish.
        """
        results = [None] * self.size
        self.states = [_NEW] * self.size
        self.turns = [threading.Lock() for _ in range(self.size)]
        for lock in self.turns:
            lock.acquire()

        def task(rank: int):
            self.turns[rank].acquire()
            try:
                results[rank] = fn(self.endpoints[rank])
            except BaseException as exc:  # noqa: BLE001 - propagated below
                if self.failed is None:
                    self.failed = (rank, exc)
            finally:
                self.pass_turn(rank, _DONE)

        threads = [threading.Thread(target=task, args=(r,), daemon=True)
                   for r in range(self.size)]
        for t in threads:
            t.start()
        self.turns[0].release()
        for t in threads:
            t.join()
        self.turns = None
        if self.failed is not None:
            # the first failure in turn order is the root cause
            raise self.failed[1]
        return results


# The simulated probe's message size, and the most messages its repeats may send
# in all: about 10 s of simulation, rather than minutes or forever.
PROBE_MESSAGE_BYTES = 4 * 2 ** 20
MAX_PROBE_MESSAGES = 10_000_000


def sim_probe_bandwidth(profile: NetProfile, seconds: float,
                        repeat: int) -> tuple[list[float], bool]:
    """Simulated point-to-point probe: ``repeat`` runs of 4 MiB messages, ``seconds`` each.

    Returns (Mbps per run, aborted). Run ``i`` draws from
    ``default_rng(profile.seed + i)``. Each message drops with the profile's
    ``disconnect_prob``; a dropped message ends its run and sets ``aborted``,
    and that run's rate covers the messages acknowledged before it. A probe
    that could need more than ``MAX_PROBE_MESSAGES`` messages at the link's
    jitter-free transfer time is a ``ValueError``, raised before any draw.
    """
    per_message = sim_transfer_time(PROBE_MESSAGE_BYTES, 2, replace(profile, jitter_frac=0.0))
    if repeat * seconds > MAX_PROBE_MESSAGES * per_message:
        raise ValueError(f"{repeat} probe runs of {seconds} s need more than "
                         f"the {MAX_PROBE_MESSAGES} messages a simulated probe may send "
                         f"({per_message:.3g} s each)")
    rates, aborted = [], False
    for i in range(repeat):
        rng = np.random.default_rng(profile.seed + i)
        elapsed, acked = 0.0, 0
        while elapsed < seconds:
            if profile.disconnect_prob > 0 and rng.random() < profile.disconnect_prob:
                aborted = True
                break
            elapsed += sim_transfer_time(PROBE_MESSAGE_BYTES, 2, profile, rng)
            acked += PROBE_MESSAGE_BYTES
        rates.append(acked * 8.0 / (1e6 * elapsed) if elapsed > 0.0 else 0.0)
    return rates, aborted
