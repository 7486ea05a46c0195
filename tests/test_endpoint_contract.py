"""The endpoint contract, each rule stated once and run on both transports.

The ``runner`` fixture runs ``fn(endpoint)`` once on each of K endpoints of one
transport: a ``SimCluster`` (K <= 8), or a loopback TCP mesh of K <= 3 ranks, built the
way ``tcp_mesh`` builds it, each rank on its own thread, with every socket closed when
the run ends. A run returns each rank's outcome: what ``fn`` returned, or the exception
it raised. A rank that raises is a dead peer to the others: the simulator aborts every
rank that waits on it, and a TCP rank closes its endpoint at once, as a worker process
that exits does. A TCP rank that returns keeps its links open until every rank has
returned, so a receive from it waits rather than finding the link closed.

Rules of one transport alone stay in ``test_transport.py``: frame bytes, socket
deadlines, mid-frame timeouts, the rendezvous, ``TestSelectorStep``, the simulator's
link streams, turn order, deadlock at once and the thread bound.
"""

import threading
import time
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ringtrain.collectives import CommGroup, ring_allreduce, tree_allreduce
from ringtrain.errors import PeerDisconnected, ProtocolError, RecvTimeout, TagMismatch
from ringtrain.transport.net import NetProfile
from ringtrain.transport.sim import SimCluster
from ringtrain.transport.tcp import Coordinator, rendezvous
from support import Recording

ETH = NetProfile(base_bandwidth=940.0, latency=1e-4, seed=10)
DOWN = replace(ETH, disconnect_prob=0.999999)   # links drop all but one in a million messages


def run_sim(k: int, fn, timeout: float = 5.0, links_down: bool = False) -> list:
    """Run ``fn`` on a SimCluster's endpoints, over links that drop every message if
    ``links_down``. ``timeout`` is unused: a receive no rank can satisfy ends at once."""
    outcomes = [None] * k

    def task(ep):
        try:
            outcomes[ep.rank] = fn(ep)
        except Exception as exc:
            outcomes[ep.rank] = exc
            raise   # the cluster then aborts the ranks that wait on this one

    try:
        SimCluster(k, DOWN if links_down else ETH).run(task)
    except Exception as exc:   # the first failure, which is already an outcome
        assert any(exc is outcome for outcome in outcomes)
    return outcomes


def run_tcp(k: int, fn, timeout: float = 5.0, links_down: bool = False) -> list:
    """Run ``fn`` on the endpoints of a loopback mesh, one thread per rank, each endpoint
    bounding every frame by ``timeout`` seconds; with ``links_down``, every link is
    closed before ``fn`` starts."""
    coord = Coordinator("127.0.0.1", 0, k)
    coord.start()
    outcomes, endpoints = [None] * k, [None] * k
    meshed = threading.Barrier(k, timeout=10.0)   # every link is up before any rank runs

    def rank_task(rank):
        try:
            ep = endpoints[rank] = rendezvous(coord.address, rank, k, timeout=10.0)
            meshed.wait()
            ep.timeout = timeout
            if links_down:
                ep.close()
            outcomes[rank] = fn(ep)
        except Exception as exc:
            outcomes[rank] = exc
            if endpoints[rank] is not None:
                endpoints[rank].close()

    threads = [threading.Thread(target=rank_task, args=(r,)) for r in range(k)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    coord.join(timeout=10.0)
    for ep in endpoints:
        if ep is not None:
            ep.close()
    assert not any(t.is_alive() for t in threads) and not coord.is_alive()
    assert coord.error is None
    return outcomes


class Runner(NamedTuple):
    name: str
    run: Callable
    max_k: int


RUNNERS = {"sim": Runner("sim", run_sim, 8), "tcp": Runner("tcp", run_tcp, 3)}
MAX_K = max(r.max_k for r in RUNNERS.values())   # a larger K is skipped on a smaller runner


@pytest.fixture(scope="module", params=sorted(RUNNERS))
def runner(request):
    return RUNNERS[request.param]


def succeeded(outcomes: list) -> list:
    """The outcomes, after raising the first rank failure among them."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


ALGS = st.sampled_from([ring_allreduce, tree_allreduce])
ONES = np.ones(4, np.float32)
# rank r holds (r + 1) * [0, 1, ..., 36]
STAIRS = {k: np.arange(37) * np.arange(1, k + 1)[:, None] for k in (2, 5, 8)}
# with floats, a rank that summed in another order would differ in the bytes
FLOATS = np.random.default_rng(8).normal(size=(5, 64)).astype(np.float32)


@settings(max_examples=60, deadline=None)
@example(alg=tree_allreduce, rows=np.random.default_rng(0).integers(-2 ** 10, 2 ** 10, (3, 5)))
@example(alg=ring_allreduce, rows=STAIRS[2])
@example(alg=ring_allreduce, rows=STAIRS[5])
@example(alg=ring_allreduce, rows=STAIRS[8])
@example(alg=tree_allreduce, rows=STAIRS[2])
@example(alg=tree_allreduce, rows=STAIRS[5])
@example(alg=tree_allreduce, rows=STAIRS[8])
@example(alg=ring_allreduce, rows=np.ones((4, 8), np.int64))
@example(alg=ring_allreduce, rows=np.arange(5)[None])
@example(alg=ring_allreduce, rows=FLOATS)
@given(alg=ALGS, rows=hnp.arrays(np.int64, st.tuples(st.integers(1, MAX_K), st.integers(0, 70)),
                                 elements=st.integers(-2 ** 10, 2 ** 10 - 1)))
def test_a_collective_sums_integers_exactly_in_place_alike_on_every_rank(runner, alg, rows):
    k = len(rows)   # rank r holds rows[r]; integer rows sum exactly in float32
    assume(k <= runner.max_k)
    inputs = [row.astype(np.float32) for row in rows]

    def task(ep):
        ep = Recording(ep)
        return alg(inputs[ep.rank], CommGroup(ep)), ep.n_sends

    results = succeeded(runner.run(k, task))
    for buf, (out, sends) in zip(inputs, results):
        assert out is buf   # each rank's own array now holds the sum
        assert out.dtype == np.float32 and out.flags.writeable
        assert out.tobytes() == results[0][0].tobytes()
        assert (sends == 0) == (k == 1)   # a lone rank keeps its own array and sends nothing
        if rows.dtype != np.float32:
            assert (out == rows.sum(axis=0)).all()


def test_a_message_is_delivered_by_tag_and_another_tag_is_a_mismatch_that_consumes_it(runner):
    payload = np.arange(4, dtype=np.float32)

    def task(ep):
        if ep.rank == 0:
            ep.send(1, 5, payload)
            try:
                ep.recv(2, 8)
            except TagMismatch as exc:
                return exc, ep.recv(2, 10)   # the next message on the link
        if ep.rank == 1:
            return ep.recv(0, 5)
        ep.send(0, 9, payload)
        ep.send(0, 10, payload + 1)

    (mismatch, after), delivered, sender = succeeded(runner.run(3, task))
    assert delivered.tobytes() == payload.tobytes() and sender is None
    assert mismatch.rank == 2
    assert str(mismatch) == "rank 0: expected tag 8 from rank 2, got 9"
    assert after.tobytes() == (payload + 1).tobytes()


@settings(max_examples=30, deadline=None)
@given(alg=ALGS, k=st.integers(2, 5), n=st.integers(1, 70), data=st.data())
def test_a_short_segment_is_a_protocol_error_naming_its_sender(runner, alg, k, n, data):
    assume(k <= runner.max_k)
    short = data.draw(st.integers(0, k - 1))   # the one rank that holds n - 1 elements
    outcomes = runner.run(k, lambda ep: alg(np.ones(n - (ep.rank == short), np.float32),
                                            CommGroup(ep)))
    failures = {rank: exc for rank, exc in enumerate(outcomes) if isinstance(exc, ProtocolError)}
    assert failures
    for receiver, exc in failures.items():
        assert exc.rank is not None and exc.rank != receiver
        assert short in (receiver, exc.rank)
        assert f"from rank {exc.rank}" in str(exc)


@pytest.mark.parametrize("links_down,call", [
    (False, lambda ep: ep.sendrecv(1, 1, 5, ONES)),   # rank 1 fails before it sends
    (True, lambda ep: ep.send(1, 0, ONES)),
], ids=["the-peer-failed", "the-link-is-down"])
def test_a_dead_peer_is_a_disconnect_naming_it(runner, links_down, call):
    def task(ep):
        if ep.rank == 0:
            return call(ep)
        if not links_down:
            raise RuntimeError("rank 1 fails")

    disconnect, _ = runner.run(2, task, links_down=links_down)
    assert isinstance(disconnect, PeerDisconnected) and disconnect.rank == 1


def test_a_receive_no_sender_will_satisfy_ends_in_bounded_time_naming_the_peer(runner):
    t0 = time.monotonic()
    timeout, returned = runner.run(2, lambda ep: None if ep.rank else ep.recv(1, 0), timeout=0.2)
    assert time.monotonic() - t0 < 2.0
    assert isinstance(timeout, RecvTimeout) and timeout.rank == 1
    assert returned is None


@pytest.mark.parametrize("n", [1, 8, 10, 13, 1000])
def test_a_ring_invocation_sends_two_k_minus_one_messages_per_rank(runner, n):
    def task(ep):
        ep = Recording(ep)
        group, counts = CommGroup(ep), []
        for _ in range(2):
            ring_allreduce(np.ones(n, np.float32), group)
            counts.append((ep.n_sends, ep.bytes_sent))
        return counts

    for k in range(1, runner.max_k + 1):
        ideal = 2 * n * 4 * (k - 1) / k
        for (first, first_bytes), (both, both_bytes) in succeeded(runner.run(k, task)):
            assert (first, both) == (2 * (k - 1), 4 * (k - 1))
            assert both_bytes == 2 * first_bytes
            assert abs(first_bytes - ideal) <= 2 * (k - 1) * 4   # segment rounding slack
            assert first_bytes <= 2 * (k - 1) * 4 * -(-n // k)   # no message over a segment


@pytest.mark.parametrize("call,message", [
    (lambda ep: ep.send(0, 3, ONES), "invalid destination rank 0"),
    (lambda ep: ep.send(3, 3, ONES), "invalid destination rank 3"),
    (lambda ep: ep.recv(0, 3), "invalid source rank 0"),
    (lambda ep: ep.recv(-1, 3), "invalid source rank -1"),
    (lambda ep: ep.sendrecv(-1, 1, 3, ONES), "invalid destination rank -1"),
    (lambda ep: ep.sendrecv(1, 3, 3, ONES), "invalid source rank 3"),
], ids=["send-to-self", "send-past-the-last-rank", "recv-from-self",
        "recv-from-a-negative-rank", "sendrecv-to-a-negative-rank",
        "sendrecv-from-past-the-last-rank"])
def test_a_peer_outside_the_cluster_or_the_rank_itself_is_refused_before_any_send(
        runner, call, message):
    payload = np.arange(4, dtype=np.float32)

    def task(ep):
        if ep.rank:   # the first message on each link must be the one sent after the refusal
            return ep.recv(0, 7)
        before = ep.clock
        try:
            call(ep)
        except ValueError as exc:
            refused = str(exc), before, ep.clock
        else:
            refused = None
        for peer in (1, 2):
            ep.send(peer, 7, payload)
        return refused

    (refusal, before, after), *received = succeeded(runner.run(3, task))
    assert refusal == message
    assert [got.tobytes() for got in received] == [payload.tobytes()] * 2
    if runner.name == "sim":   # the wall clock of TCP moves on its own
        assert after == before


def test_a_negative_charge_is_refused_and_moves_no_clock(runner):
    def task(ep):
        ep = Recording(ep)
        before = ep.clock
        try:
            ep.advance(-1e-9)
        except ValueError as exc:
            return str(exc), before, ep.clock, ep.n_sends

    for message, before, after, sends in succeeded(runner.run(2, task)):
        assert message == "cannot advance the clock backwards"
        assert sends == 0
        if runner.name == "sim":   # the wall clock of TCP moves on its own
            assert after == before == 0.0


def test_both_transports_sum_to_the_same_bytes():
    size, n = 3, 57
    rng = np.random.default_rng(12)
    payloads = [rng.normal(size=n).astype(np.float32) for _ in range(size)]

    def task(ep):
        group = CommGroup(ep)
        return (ring_allreduce(payloads[ep.rank].copy(), group).tobytes(),
                tree_allreduce(payloads[ep.rank].copy(), group).tobytes())

    assert succeeded(run_sim(size, task)) == succeeded(run_tcp(size, task))
