import gc
import hashlib
import json
import socket
import struct
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from ringtrain.collectives import CommGroup, ring_allreduce, tree_allreduce
from ringtrain.errors import (PeerDisconnected, ProtocolError, RecvTimeout, TagMismatch,
                              WireProtocolError)
from ringtrain.transport.frame import (FRAME_MAGIC, MAX_PAYLOAD_BYTES, decode_header,
                                       encode_frame, floats_to_wire, wire_to_floats)
from ringtrain.transport.net import NetProfile, sim_transfer_time
from ringtrain.transport.sim import SimCluster, sim_probe_bandwidth
from ringtrain.transport.tcp import (TAG_HELLO, TAG_REGISTER, TAG_TABLE, Coordinator,
                                     FramedSocket, TcpEndpoint, rendezvous,
                                     tcp_probe_client, tcp_probe_server)

ETH = NetProfile(base_bandwidth=940.0, latency=1e-4, seed=10)


def socket_pair():
    srv = socket.socket()
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    cli = socket.create_connection(srv.getsockname())
    acc, _ = srv.accept()
    srv.close()
    return FramedSocket(cli), FramedSocket(acc)


class TestFrame:
    def test_header_roundtrip(self):
        frame = b"".join(encode_frame(7, b"abc"))
        assert frame[:4] == FRAME_MAGIC == b"\x52\x54\x52\x4e"
        tag, length = decode_header(frame[:12])
        assert (tag, length) == (7, 3)

    def test_bad_magic_rejected(self):
        with pytest.raises(WireProtocolError):
            decode_header(b"XXXX" + b"\x00" * 8)

    def test_float_payload_is_little_endian(self):
        arr = np.array([1.0, -2.5], dtype=np.float32)
        wire = floats_to_wire(arr)
        assert wire == arr.astype("<f4").tobytes()
        back = wire_to_floats(wire)
        assert (back == arr).all()

    def test_empty_payload_roundtrip(self):
        a, b = socket_pair()
        a.send_frame(3, b"")
        tag, payload = b.recv_frame()
        assert (tag, payload) == (3, b"")
        a.close(), b.close()


class TestFramedTcp:
    def test_large_payload_bitwise_roundtrip(self):
        # 37.5 MB, checksum-compared across a loopback hop
        blob = np.random.default_rng(0).integers(
            0, 255, size=int(37.5 * 2 ** 20), dtype=np.uint8).tobytes()
        a, b = socket_pair()
        sender = threading.Thread(target=a.send_frame, args=(1, blob))
        sender.start()
        tag, got = b.recv_frame(timeout=60)
        sender.join()
        assert tag == 1
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(blob).hexdigest()
        a.close(), b.close()

    def test_corrupted_magic_marks_connection_dead(self):
        a, b = socket_pair()
        a.sock.sendall(b"JUNK" + b"\x00" * 8)
        with pytest.raises(WireProtocolError):
            b.recv_frame()
        assert b.dead
        with pytest.raises(PeerDisconnected):
            b.recv_frame()
        a.close(), b.close()

    def test_gathered_send_puts_the_documented_bytes_on_the_wire(self):
        a, b = socket_pair()
        payload = np.array([1.0, -2.5, 3.25], dtype=np.float32)
        a.send_frame(0x01020304, floats_to_wire(payload))
        expected = b"RTRN" + bytes([1, 2, 3, 4, 0, 0, 0, 12]) + payload.astype("<f4").tobytes()
        b.sock.settimeout(5.0)
        raw = b""
        while len(raw) < len(expected):
            raw += b.sock.recv(64)
        assert raw == expected
        a.close(), b.close()

    def test_oversized_length_is_rejected_without_allocating(self):
        a, b = socket_pair()
        a.sock.sendall(FRAME_MAGIC + struct.pack(">II", 7, 0xFFFFFFFF))
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(WireProtocolError):
                b.recv_frame(timeout=5.0)
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 * 2 ** 20
        assert b.dead
        a.close(), b.close()

    @pytest.mark.parametrize("header", [
        b"JUNK" + bytes(8),
        FRAME_MAGIC + struct.pack(">II", 7, MAX_PAYLOAD_BYTES + 1),
    ], ids=["bad-magic", "oversized-length"])
    def test_corrupt_frame_names_the_sending_rank(self, header):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a})
        b.sock.sendall(header)
        with pytest.raises(WireProtocolError) as info:
            endpoint.recv(1, 7, timeout=5.0)
        assert info.value.rank == 1
        a.close(), b.close()

    def test_strided_array_arrives_bit_exact(self):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a})
        payload = np.random.default_rng(4).normal(size=301).astype(np.float32)[::3]
        assert not payload.flags.c_contiguous
        endpoint.send(1, 9, payload)
        tag, data = b.recv_frame(timeout=5.0)
        assert tag == 9
        assert wire_to_floats(data).tobytes() == payload.tobytes()
        a.close(), b.close()

    def test_recv_timeout(self):
        a, b = socket_pair()
        with pytest.raises(RecvTimeout):
            b.recv_frame(timeout=0.1)
        a.close(), b.close()

    def test_a_drip_fed_frame_times_out_as_a_whole(self):
        a, b = socket_pair()
        frame = b"".join(encode_frame(7, b""))   # a 12-byte frame, one byte per 0.2 s
        stop = threading.Event()

        def drip():
            for byte in frame:
                if stop.wait(0.2):
                    return
                a.sock.sendall(bytes([byte]))

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(RecvTimeout):
                b.recv_frame(timeout=0.5)
            assert time.perf_counter() - t0 < 1.5
        finally:
            stop.set()
            dripper.join(timeout=5.0)
            a.close(), b.close()
        assert not dripper.is_alive()

    @pytest.mark.parametrize("cut", [6, 12, 16], ids=["in-header", "after-header", "in-payload"])
    def test_a_timeout_inside_a_frame_marks_the_link_dead(self, cut):
        a, b = socket_pair()
        with pytest.raises(RecvTimeout):   # no byte of a frame read yet: the link lives
            b.recv_frame(timeout=0.05)
        assert not b.dead
        frame = b"".join(encode_frame(7, b"12345678"))
        a.sock.sendall(frame[:cut])
        with pytest.raises(RecvTimeout):
            b.recv_frame(timeout=0.2)
        assert b.dead
        a.sock.sendall(frame[cut:])
        with pytest.raises(PeerDisconnected):
            b.recv_frame(timeout=0.2)
        a.close(), b.close()

    def test_peer_closed(self):
        a, b = socket_pair()
        a.close()
        with pytest.raises(PeerDisconnected):
            b.recv_frame(timeout=1.0)
        b.close()

    def test_zero_timeout_recv_polls_and_keeps_the_link(self):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a})
        endpoint.timeout = 1.5
        t0 = time.perf_counter()
        with pytest.raises(RecvTimeout):
            endpoint.recv(1, 7, timeout=0)
        assert time.perf_counter() - t0 < 1.0
        assert not a.dead
        payload = np.arange(3, dtype=np.float32)
        b.send_frame(7, floats_to_wire(payload))
        assert (endpoint.recv(1, 7) == payload).all()
        a.close(), b.close()


@contextmanager
def no_unclosed_sockets():
    """Fail if a socket that became garbage inside the block was never closed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def tcp_mesh(size):
    """Rendezvous ``size`` ranks on loopback; returns their endpoints by rank."""
    coord = Coordinator("127.0.0.1", 0, size)
    coord.start()
    endpoints = [None] * size

    def join(rank):
        endpoints[rank] = rendezvous(coord.address, rank, size, timeout=10)

    threads = [threading.Thread(target=join, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    coord.join()
    assert coord.error is None
    return endpoints


class TestTcpSendTimeout:
    def test_a_short_recv_timeout_does_not_bound_the_next_send(self):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a})
        endpoint.timeout = 5.0
        with pytest.raises(RecvTimeout):
            endpoint.recv(1, 7, timeout=0.01)
        payload = np.arange(4 * 2 ** 20, dtype=np.float32)   # 16 MB, beyond the socket buffers
        got = []

        def slow_reader():
            time.sleep(0.3)
            got.append(b.recv_frame(timeout=5.0))

        reader = threading.Thread(target=slow_reader, daemon=True)
        reader.start()
        try:
            endpoint.send(1, 8, payload)
            reader.join(timeout=10.0)
        finally:
            a.close(), b.close()
        assert not reader.is_alive()
        tag, data = got[0]
        assert tag == 8
        assert (wire_to_floats(data) == payload).all()


class TestTcpSendRecv:
    def test_exchanging_segments_larger_than_the_socket_buffers_does_not_deadlock(self):
        endpoints = tcp_mesh(2)
        n = 8 * 2 ** 20   # 32 MB per direction
        payloads = [np.arange(n, dtype=np.float32) * (1 - 2 * r) for r in range(2)]
        results, errors = [None, None], []

        def exchange(rank):
            try:
                results[rank] = endpoints[rank].sendrecv(1 - rank, 1 - rank, 5, payloads[rank])
            except Exception as exc:  # noqa: BLE001 - inspected below
                errors.append(exc)

        for ep in endpoints:
            ep.timeout = 3.0
        threads = [threading.Thread(target=exchange, args=(r,), daemon=True) for r in range(2)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        elapsed = time.perf_counter() - t0
        for ep in endpoints:
            ep.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert elapsed < 3.0
        for rank in range(2):
            assert (results[rank] == payloads[1 - rank]).all()

    def test_closed_peer_raises_naming_the_peer(self):
        e0, e1 = tcp_mesh(2)
        e0.timeout = 3.0
        e1.close()
        with pytest.raises(PeerDisconnected) as info:
            e0.sendrecv(1, 1, 5, np.arange(4, dtype=np.float32))
        assert info.value.rank == 1
        e0.close()


class TestRendezvousMesh:
    def test_mesh_send_recv_and_tag_mismatch(self):
        endpoints = tcp_mesh(3)
        e0, e1, e2 = endpoints
        payload = np.arange(4, dtype=np.float32)
        e0.send(1, 5, payload)
        assert (e1.recv(0, 5) == payload).all()
        e2.send(0, 9, payload)
        with pytest.raises(TagMismatch):
            e0.recv(2, 8)
        for e in endpoints:
            e.close()

    def test_rendezvous_timeout_when_worker_missing(self):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=0.5)
        coord.start()
        with pytest.raises((RecvTimeout, PeerDisconnected)):
            rendezvous(coord.address, 0, 2, timeout=1.0)
        coord.join()
        assert isinstance(coord.error, RecvTimeout)

    def test_a_coordinator_with_no_time_left_times_out(self):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=0)
        coord.start()
        coord.join(timeout=5.0)
        assert not coord.is_alive()
        assert isinstance(coord.error, RecvTimeout)
        assert str(coord.error) == "rendezvous timed out with 0/2 workers"

    def test_a_silent_registration_ends_at_the_rendezvous_deadline(self):
        t0 = time.monotonic()
        coord = Coordinator("127.0.0.1", 0, 2, timeout=1.0)
        coord.start()
        time.sleep(0.9)
        with socket.create_connection(coord.address):   # connects, never registers
            coord.join(timeout=5.0)
        assert not coord.is_alive()
        assert isinstance(coord.error, RecvTimeout)
        assert str(coord.error) == "rendezvous timed out with 0/2 workers"
        assert time.monotonic() - t0 < 1.5

    def test_failed_coordinator_exchange_leaves_no_socket_open(self):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=0.5)
        coord.start()
        with no_unclosed_sockets():
            with pytest.raises((RecvTimeout, PeerDisconnected)):
                rendezvous(coord.address, 0, 2, timeout=1.0)
            coord.join()

    def test_incomplete_mesh_leaves_no_socket_open(self):
        coord = Coordinator("127.0.0.1", 0, 3, timeout=5.0)
        coord.start()
        errors = []

        def join(rank):
            try:
                rendezvous(coord.address, rank, 3, timeout=1.0)
            except RecvTimeout as exc:
                errors.append(str(exc))   # not exc: its frames would keep a leak alive

        with no_unclosed_sockets():
            workers = [threading.Thread(target=join, args=(r,)) for r in (0, 1)]
            for w in workers:
                w.start()
            # rank 2 registers but never joins the mesh: rank 1 has dialed
            # rank 0, and rank 0 has accepted rank 1, when both time out
            absent = FramedSocket(socket.create_connection(coord.address))
            absent.send_frame(TAG_REGISTER, json.dumps(
                {"rank": 2, "host": "127.0.0.1", "port": 1}).encode())
            assert absent.recv_frame(5.0)[0] == TAG_TABLE
            absent.close()
            for w in workers:
                w.join(timeout=10.0)
            coord.join()
        assert sorted(errors) == [f"rank {r}: timed out waiting for peers" for r in (0, 1)]

    def test_duplicate_registration_is_a_protocol_error(self):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=2.0)
        coord.start()
        t0 = time.perf_counter()
        socks = []
        for _ in range(2):
            fs = FramedSocket(socket.create_connection(coord.address))
            fs.send_frame(TAG_REGISTER, json.dumps(
                {"rank": 0, "host": "127.0.0.1", "port": 1}).encode())
            socks.append(fs)
        coord.join()
        assert time.perf_counter() - t0 < 1.0
        assert isinstance(coord.error, ProtocolError)
        assert "rank 0" in str(coord.error)
        for fs in socks:
            fs.close()

    @pytest.mark.parametrize("first_frame,error", [
        ((7, b"{}"), TagMismatch),
        ((TAG_REGISTER, b"not json"), ValueError),
        ((TAG_REGISTER, json.dumps({"rank": 5, "host": "127.0.0.1", "port": 1}).encode()),
         ValueError),
        (None, PeerDisconnected),   # the connection closes before any frame
    ])
    def test_rejected_registration_leaves_no_socket_open(self, first_frame, error):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=5.0)
        coord.start()
        with no_unclosed_sockets():
            fs = FramedSocket(socket.create_connection(coord.address))
            if first_frame is not None:
                fs.send_frame(*first_frame)
            fs.close()
            coord.join()
            # keep only the type: the error's frames would keep a leak alive
            failure, coord.error = type(coord.error), None
        assert issubclass(failure, error)

    @pytest.mark.parametrize("hello_rank", [0, 2])
    def test_hello_from_an_unexpected_rank_is_rejected(self, hello_rank):
        coord = Coordinator("127.0.0.1", 0, 2, timeout=5.0)
        coord.start()
        errors = []

        def join_as_rank0():
            try:
                rendezvous(coord.address, 0, 2, timeout=5.0)
            except Exception as exc:  # noqa: BLE001 - inspected below
                errors.append(exc)

        worker = threading.Thread(target=join_as_rank0)
        worker.start()
        fs = FramedSocket(socket.create_connection(coord.address))
        fs.send_frame(TAG_REGISTER, json.dumps(
            {"rank": 1, "host": "127.0.0.1", "port": 1}).encode())
        tag, table = fs.recv_frame(5.0)
        assert tag == TAG_TABLE
        fs.close()
        host, port = json.loads(table.decode())["0"]
        peer = FramedSocket(socket.create_connection((host, port)))
        peer.send_frame(TAG_HELLO, json.dumps({"rank": hello_rank}).encode())
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        coord.join()
        peer.close()
        assert len(errors) == 1 and isinstance(errors[0], ProtocolError)
        assert f"rank {hello_rank}" in str(errors[0])


def test_tcp_tree_allreduce_returns_writable_arrays_on_every_rank():
    endpoints = tcp_mesh(3)
    results = [None] * 3

    def run(ep):
        results[ep.rank] = tree_allreduce(np.full(5, ep.rank + 1.0, np.float32), CommGroup(ep))

    threads = [threading.Thread(target=run, args=(ep,)) for ep in endpoints]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10.0)
    for ep in endpoints:
        ep.close()
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert out.flags.writeable and (out == 6.0).all()


class TestSimTransferTime:
    def test_zero_bytes_costs_exactly_latency(self):
        prof = NetProfile(base_bandwidth=100.0, latency=0.007, jitter_frac=0.9, seed=1)
        assert sim_transfer_time(0, 8, prof) == 0.007

    def test_jitter_without_generator_rejected(self):
        prof = NetProfile(base_bandwidth=100.0, latency=0.007, jitter_frac=0.9, seed=1)
        with pytest.raises(ValueError):
            sim_transfer_time(1000, 8, prof)

    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_negative_entry_anywhere_in_an_array_rejected(self, where):
        sizes = np.array([5, 0, 7, 9, 1, 0, 2])
        sizes[where] = -1
        with pytest.raises(ValueError):
            sim_transfer_time(sizes, 4, ETH)

    def test_jittered_array_without_generator_rejected(self):
        prof = NetProfile(base_bandwidth=100.0, latency=0.007, jitter_frac=0.9, seed=1)
        with pytest.raises(ValueError):
            sim_transfer_time(np.array([0, 0, 1000]), 8, prof)

    def test_all_zero_jittered_array_needs_no_generator(self):
        prof = NetProfile(base_bandwidth=100.0, latency=0.007, jitter_frac=0.9, seed=1)
        assert sim_transfer_time(np.zeros(5, np.int64), 8, prof).tolist() == [0.007] * 5

    @pytest.mark.parametrize("nbytes", [0, 10_000])
    def test_a_count_is_priced_as_a_python_float(self, nbytes):
        # report rows and the metrics CSV write times with repr
        jittered = NetProfile(base_bandwidth=400.0, latency=1e-3, jitter_frac=0.25, seed=11)
        assert type(sim_transfer_time(nbytes, 4, jittered, np.random.default_rng(0))) is float
        assert type(sim_transfer_time(nbytes, 4, ETH)) is float

    def test_closed_form_without_jitter(self):
        t = sim_transfer_time(1_000_000, 2, ETH)
        assert t == pytest.approx(1e-4 + 8e6 / (1e6 * 940.0))

    def test_ethernet_contention_free_is_k_invariant(self):
        assert sim_transfer_time(10_000, 2, ETH) == sim_transfer_time(10_000, 138, ETH)

    def test_contention_divides_bandwidth(self):
        prof = NetProfile(base_bandwidth=400.0, latency=0.0, contention_coeff=2.0, seed=1)
        t2 = sim_transfer_time(8000, 2, prof)
        t4 = sim_transfer_time(8000, 4, prof)
        assert t4 == pytest.approx(t2 * (1 + 2.0 * 2))

    def test_jitter_is_mean_one_and_deterministic(self):
        prof = NetProfile(base_bandwidth=100.0, latency=0.0, jitter_frac=0.3, seed=3)
        rng = np.random.default_rng(3)
        draws = [sim_transfer_time(10_000, 2, prof, rng) for _ in range(4000)]
        rng2 = np.random.default_rng(3)
        draws2 = [sim_transfer_time(10_000, 2, prof, rng2) for _ in range(4000)]
        assert draws == draws2
        base = 10_000 * 8 / (1e6 * 100.0)
        assert np.mean(draws) == pytest.approx(base, rel=0.02)


class TestSimCluster:
    def test_clock_monotone_and_deterministic(self):
        prof = NetProfile(base_bandwidth=50.0, latency=1e-3, jitter_frac=0.4, seed=5)

        def run_once():
            cluster = SimCluster(4, prof)

            def task(ep):
                clocks = []
                group = CommGroup(ep)
                for _ in range(3):
                    ring_allreduce(np.ones(100, np.float32), group)
                    clocks.append(ep.clock)
                return clocks

            return cluster.run(task)

        first, second = run_once(), run_once()
        assert first == second
        for clocks in first:
            assert clocks == sorted(clocks)
            assert clocks[0] > 0.0

    def test_disconnect_raises_naming_rank(self):
        prof = NetProfile(base_bandwidth=50.0, latency=1e-3,
                          disconnect_prob=0.999999, seed=6)
        cluster = SimCluster(2, prof)
        with pytest.raises(PeerDisconnected) as err:
            cluster.endpoints[0].send(1, 0, np.ones(4, np.float32))
        assert err.value.rank == 1

    def test_sim_recv_timeout_guards_deadlock(self):
        cluster = SimCluster(2, ETH)
        with pytest.raises(RecvTimeout):
            cluster.endpoints[0].recv(1, 0, timeout=0.1)


def test_real_and_sim_transports_agree_numerically():
    size, n = 3, 57
    rng = np.random.default_rng(12)
    payloads = [rng.normal(size=n).astype(np.float32) for _ in range(size)]

    cluster = SimCluster(size, ETH)

    def sim_task(ep):
        return ring_allreduce(payloads[ep.rank].copy(), CommGroup(ep)).tobytes()

    sim_results = cluster.run(sim_task)

    coord = Coordinator("127.0.0.1", 0, size)
    coord.start()
    real_results = [None] * size

    def real_task(rank):
        ep = rendezvous(coord.address, rank, size, timeout=10)
        out = ring_allreduce(payloads[rank].copy(), CommGroup(ep))
        real_results[rank] = out.tobytes()
        ep.close()

    threads = [threading.Thread(target=real_task, args=(r,)) for r in range(size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    coord.join()
    assert sim_results == real_results


class TestProbes:
    def test_sim_probe_matches_profile_bandwidth(self):
        rate, aborted = sim_probe_bandwidth(ETH, duration_s=5.0)
        assert not aborted
        assert rate == pytest.approx(940.0, rel=0.01)

    def test_sim_probe_disconnect_aborts_immediately(self):
        prof = NetProfile(base_bandwidth=940.0, latency=1e-4,
                          disconnect_prob=0.9999999, seed=2)
        rate, aborted = sim_probe_bandwidth(prof, duration_s=1.0)
        assert aborted
        assert rate == 0.0

    def test_probe_server_closes_a_connection_that_sends_a_wrong_tag(self):
        with no_unclosed_sockets():
            addr, thread = tcp_probe_server("127.0.0.1", 0)
            fs = FramedSocket(socket.create_connection(addr))
            fs.send_frame(7, b"")
            thread.join(timeout=5.0)
            fs.close()
        assert not thread.is_alive()

    def test_loopback_probe_reports_positive_rate(self):
        addr, _ = tcp_probe_server("127.0.0.1", 0)
        rates = tcp_probe_client(addr, seconds=0.05, repeat=3)
        assert len(rates) == 3
        assert all(r > 0 for r in rates)
