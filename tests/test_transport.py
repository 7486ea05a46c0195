import gc
import hashlib
import json
import mmap
import socket
import struct
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtrain.collectives import CommGroup, ring_allreduce, tree_allreduce
from ringtrain.errors import (CommunicationError, PeerDisconnected, ProtocolError,
                              RecvTimeout, TagMismatch, WireProtocolError)
from ringtrain.transport.frame import (FRAME_MAGIC, MAX_PAYLOAD_BYTES, decode_header,
                                       encode_frame, floats_to_wire, wire_to_floats)
from ringtrain.transport.net import NetProfile, sim_transfer_time
from ringtrain.transport.sim import SimCluster, SimEndpoint, sim_probe_bandwidth
from ringtrain.transport import tcp
from ringtrain.transport.tcp import (TAG_HELLO, TAG_PROBE_ACK, TAG_PROBE_DATA, TAG_PROBE_END,
                                     TAG_REGISTER, TAG_TABLE, Coordinator, FramedSocket,
                                     TcpEndpoint, listen, rendezvous, serve_probe,
                                     tcp_probe_client)

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

    def test_a_short_header_is_rejected(self):
        with pytest.raises(WireProtocolError, match=r"truncated frame header \(11 bytes\)"):
            decode_header(FRAME_MAGIC + b"\x00" * 7)

    @pytest.mark.parametrize("tag", [-1, 2 ** 32])
    def test_a_tag_outside_u32_is_refused(self, tag):
        with pytest.raises(ValueError, match=f"tag {tag} out of u32 range"):
            encode_frame(tag, b"")

    @pytest.mark.parametrize("extra", [0, 1])
    def test_the_sender_refuses_a_payload_the_receiver_would(self, extra):
        # an anonymous mapping: its pages are never touched, so nothing is allocated
        with mmap.mmap(-1, MAX_PAYLOAD_BYTES + extra) as buf, memoryview(buf) as payload:
            if extra:
                with pytest.raises(ValueError, match=f"payload of {MAX_PAYLOAD_BYTES + 1} bytes"):
                    encode_frame(7, payload)
            else:
                header, _ = encode_frame(7, payload)
                assert decode_header(header) == (7, MAX_PAYLOAD_BYTES)

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

    # random bytes almost never start with the magic, so half the cases carry it
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(min_size=12, max_size=12),
                     st.binary(min_size=8, max_size=8).map(FRAME_MAGIC.__add__)))
    def test_any_header_is_rejected_or_has_a_bounded_length(self, header):
        try:
            _, length = decode_header(header)
        except WireProtocolError:
            return
        assert length <= MAX_PAYLOAD_BYTES

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, MAX_PAYLOAD_BYTES),
           st.integers(0, 11), st.integers(0, 255))
    def test_a_header_with_one_byte_replaced_is_rejected_or_bounded(self, tag, length,
                                                                     index, byte):
        header = bytearray(struct.pack(">4sII", FRAME_MAGIC, tag, length))
        header[index] = byte
        try:
            tag, length = decode_header(bytes(header))
        except WireProtocolError:
            return
        assert 0 <= tag < 2 ** 32 and 0 <= length <= MAX_PAYLOAD_BYTES


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
        endpoint = TcpEndpoint(0, 2, {1: a}, timeout=5.0)
        b.sock.sendall(header)
        with pytest.raises(WireProtocolError) as info:
            endpoint.recv(1, 7)
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

    def test_the_longest_timeout_fits_the_selector(self):
        a, b = socket_pair()
        a.send_frame(7, b"abc", timeout=tcp.MAX_TIMEOUT)
        assert b.recv_frame(timeout=tcp.MAX_TIMEOUT) == (7, bytearray(b"abc"))
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

    def test_a_recv_that_times_out_before_its_first_byte_keeps_the_link(self):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a}, timeout=0.05)
        t0 = time.perf_counter()
        with pytest.raises(RecvTimeout):
            endpoint.recv(1, 7)
        assert time.perf_counter() - t0 < 1.0
        assert not a.dead
        payload = np.arange(3, dtype=np.float32)
        b.send_frame(7, floats_to_wire(payload))
        endpoint.timeout = 5.0
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


def joining(coordinator, rank, size, timeout=5.0):
    """Start ``rank``'s rendezvous on a thread; returns the thread and a list that
    receives the type, rank and message of its failure."""
    failures = []

    def join():
        try:
            rendezvous(coordinator, rank, size, timeout=timeout).close()
        except CommunicationError as exc:   # not exc: its frames would keep a leak alive
            failures.append((type(exc), exc.rank, str(exc)))

    thread = threading.Thread(target=join)
    thread.start()
    return thread, failures


def control_frame(tag, frame):
    """``frame`` (a JSON value, raw bytes or a ``(tag, frame)`` pair) as ``(tag, payload)``."""
    tag, frame = frame if isinstance(frame, tuple) else (tag, frame)
    return tag, frame if isinstance(frame, bytes) else json.dumps(frame).encode()


def send_control(address, tag, frames):
    """Send each of ``frames`` (see ``control_frame``) to ``address`` on a connection of
    its own; returns the connections, still open."""
    links = []
    for frame in frames:
        links.append(FramedSocket(socket.create_connection(address)))
        links[-1].send_frame(*control_frame(tag, frame))
    return links


def registration(rank, port=1):
    return {"rank": rank, "host": "127.0.0.1", "port": port}


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
    def test_a_large_send_to_a_slow_reader_completes_after_a_recv_timeout(self):
        a, b = socket_pair()
        endpoint = TcpEndpoint(0, 2, {1: a}, timeout=0.01)
        with pytest.raises(RecvTimeout):
            endpoint.recv(1, 7)
        endpoint.timeout = 5.0
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


def read_bytes(conn, n):
    """Read exactly ``n`` raw bytes from a FramedSocket's socket, ignoring frames."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            count = conn.sock.recv_into(view[got:])
            assert count, "peer closed early"
            got += count
    return bytes(buf)


class TestSelectorStep:
    """Faults inside ``TcpEndpoint.sendrecv``. With three ranks, rank 0 sends to rank 1
    and receives from rank 2, so an error's rank tells which side failed."""

    def test_a_ring_allreduce_starts_no_thread(self, monkeypatch):
        e0, e1 = tcp_mesh(2)
        n = 4 * 2 ** 20   # 8 MB segments: every step waits on full socket buffers
        payloads = [np.arange(n, dtype=np.float32) * (r + 1) for r in range(2)]
        go, results = threading.Event(), {}

        def rank1():
            go.wait(5.0)
            results[1] = ring_allreduce(payloads[1], CommGroup(e1))

        peer = threading.Thread(target=rank1, daemon=True)
        peer.start()
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("a ring step started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        go.set()
        try:
            results[0] = ring_allreduce(payloads[0], CommGroup(e0))
            peer.join(timeout=10.0)
        finally:
            monkeypatch.undo()
            e0.close(), e1.close()
        assert started == [] and not peer.is_alive()
        expected = np.arange(n, dtype=np.float32) * 3
        assert (results[0] == expected).all() and (results[1] == expected).all()

    def test_a_peer_closing_halfway_through_our_send_is_named(self):
        e0, e1, e2 = tcp_mesh(3)
        e0.timeout = 3.0
        payload = np.zeros(8 * 2 ** 20, np.float32)   # 32 MB, beyond the socket buffers

        def read_some_then_close():
            read_bytes(e1.conns[0], 2 ** 20)
            e1.close()

        closer = threading.Thread(target=read_some_then_close, daemon=True)
        closer.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(PeerDisconnected) as info:
                e0.sendrecv(1, 2, 5, payload)
        finally:
            closer.join(timeout=5.0)
            for ep in (e0, e1, e2):
                ep.close()
        assert info.value.rank == 1
        assert time.perf_counter() - t0 < 2.0

    def test_a_peer_closing_halfway_through_its_frame_is_named(self):
        e0, e1, e2 = tcp_mesh(3)
        e0.timeout = 3.0
        frame = b"".join(encode_frame(5, floats_to_wire(np.ones(1000, np.float32))))
        e2.conns[0].sock.sendall(frame[:100])
        e2.close()
        try:
            with pytest.raises(PeerDisconnected) as info:
                e0.sendrecv(1, 2, 5, np.ones(4, np.float32))
            assert e0.conns[2].dead and not e0.conns[1].dead
        finally:
            for ep in (e0, e1, e2):
                ep.close()
        assert info.value.rank == 2

    def test_a_silent_peer_times_out_and_kills_the_link(self):
        e0, e1 = tcp_mesh(2)
        e0.timeout = 0.5
        payload = np.zeros(8 * 2 ** 20, np.float32)   # part of it stays unsent
        t0 = time.perf_counter()
        try:
            with pytest.raises(RecvTimeout) as info:
                e0.sendrecv(1, 1, 5, payload)
            elapsed = time.perf_counter() - t0
            assert e0.conns[1].dead
        finally:
            e0.close(), e1.close()
        assert info.value.rank == 1
        assert 0.5 <= elapsed < 1.5

    @pytest.mark.parametrize("incoming,error,dead", [
        (b"".join(encode_frame(6, floats_to_wire(np.ones(4, np.float32)))), TagMismatch, False),
        (b"JUNK" + bytes(8), WireProtocolError, True),
        (FRAME_MAGIC + struct.pack(">II", 5, MAX_PAYLOAD_BYTES + 1), WireProtocolError, True),
        (b"".join(encode_frame(5, b"abcdef")), WireProtocolError, False),
    ], ids=["wrong-tag", "bad-magic", "oversized-length", "not-floats"])
    def test_a_bad_incoming_frame_names_its_sender(self, incoming, error, dead):
        e0, e1, e2 = tcp_mesh(3)
        e0.timeout = 3.0
        e2.conns[0].sock.sendall(incoming)
        try:
            with pytest.raises(error) as info:
                e0.sendrecv(1, 2, 5, np.ones(4, np.float32))
            assert e0.conns[2].dead == dead and not e0.conns[1].dead
            assert (e1.recv(0, 5) == 1.0).all()   # our frame went out whole
        finally:
            for ep in (e0, e1, e2):
                ep.close()
        assert info.value.rank == 2


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
        ((TAG_REGISTER, b"not json"), ProtocolError),
        ((TAG_REGISTER, json.dumps({"rank": 5, "host": "127.0.0.1", "port": 1}).encode()),
         ProtocolError),
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

    def test_a_silent_dialer_ends_the_mesh_join_at_its_deadline(self):
        t0 = time.monotonic()
        coord = Coordinator("127.0.0.1", 0, 2, timeout=5.0)
        coord.start()
        worker, failures = joining(coord.address, 0, 2, timeout=1.0)
        [peer] = send_control(coord.address, TAG_REGISTER, [registration(1)])
        tag, table = peer.recv_frame(5.0)
        assert tag == TAG_TABLE
        time.sleep(max(0.0, 0.9 - (time.monotonic() - t0)))
        with socket.create_connection(tuple(json.loads(table)["0"])):   # never says hello
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert failures == [(RecvTimeout, None, "rank 0: timed out waiting for peers")]
        assert time.monotonic() - t0 < 1.5
        coord.join()
        peer.close()

    @pytest.mark.parametrize("kind,frames,error,rank", [
        pytest.param("registration", [b"not json"], ProtocolError, None, id="reg-not-json"),
        pytest.param("registration", [b"\xff\xfe"], ProtocolError, None, id="reg-not-utf8"),
        pytest.param("registration", [[0, "127.0.0.1", 1]], ProtocolError, None,
                     id="reg-non-object"),
        pytest.param("registration", [{"host": "127.0.0.1", "port": 1}], ProtocolError, None,
                     id="reg-missing-key"),
        pytest.param("registration", [registration("0")], ProtocolError, None,
                     id="reg-wrong-type"),
        pytest.param("registration", [registration(0, port="1")], ProtocolError, None,
                     id="reg-string-port"),
        pytest.param("registration", [registration(True)], ProtocolError, None,
                     id="reg-bool-rank"),
        pytest.param("registration", [registration(3)], ProtocolError, 3,
                     id="reg-out-of-range"),
        pytest.param("registration", [registration(-1)], ProtocolError, -1,
                     id="reg-negative"),
        pytest.param("registration", [registration(0), registration(0)], ProtocolError, 0,
                     id="reg-repeated"),
        pytest.param("registration", [(TAG_HELLO, registration(0))], TagMismatch, None,
                     id="reg-wrong-tag"),
        pytest.param("table", [b"not json"], ProtocolError, None, id="table-not-json"),
        pytest.param("table", [[["127.0.0.1", 1], ["127.0.0.1", 2]]], ProtocolError, None,
                     id="table-non-object"),
        pytest.param("table", [{"1": ["127.0.0.1", 2]}], ProtocolError, None,
                     id="table-without-a-rank"),
        pytest.param("table", [{"0": ["127.0.0.1", "1"], "1": ["127.0.0.1", 2]}],
                     ProtocolError, None, id="table-wrong-type"),
        pytest.param("table", [{"0": ["127.0.0.1", 1, 0], "1": ["127.0.0.1", 2]}],
                     ProtocolError, None, id="table-entry-not-host-port"),
        pytest.param("table", [{"0": "127.0.0.1:1", "1": "127.0.0.1:2"}], ProtocolError, None,
                     id="table-entry-a-string"),
        pytest.param("table", [b"[" * 100_000], ProtocolError, None, id="table-nested-deep"),
        pytest.param("table", [{"0": ["127.0.0.1", 2 ** 70], "1": ["127.0.0.1", 2]}],
                     PeerDisconnected, None, id="table-port-out-of-range"),
        pytest.param("table", [(TAG_HELLO, {"0": ["127.0.0.1", 1], "1": ["127.0.0.1", 2]})],
                     TagMismatch, None, id="table-wrong-tag"),
        pytest.param("hello", [b"not json"], ProtocolError, None, id="hello-not-json"),
        pytest.param("hello", [[1]], ProtocolError, None, id="hello-non-object"),
        pytest.param("hello", [{}], ProtocolError, None, id="hello-missing-key"),
        pytest.param("hello", [{"rank": "1"}], ProtocolError, None, id="hello-wrong-type"),
        pytest.param("hello", [{"rank": 3}], ProtocolError, 3, id="hello-out-of-range"),
        pytest.param("hello", [{"rank": 0}], ProtocolError, 0, id="hello-own-rank"),
        pytest.param("hello", [{"rank": 1}, {"rank": 1}], ProtocolError, 1,
                     id="hello-repeated"),
        pytest.param("hello", [(TAG_REGISTER, {"rank": 1})], TagMismatch, None,
                     id="hello-wrong-tag"),
    ])
    def test_a_malformed_control_frame_ends_the_join_with_a_named_error(self, kind, frames,
                                                                          error, rank):
        with no_unclosed_sockets():
            if kind == "registration":   # to a coordinator of three
                coord = Coordinator("127.0.0.1", 0, 3, timeout=5.0)
                coord.start()
                links = send_control(coord.address, TAG_REGISTER, frames)
                coord.join(timeout=10.0)
                assert not coord.is_alive()
                failures = [(type(coord.error), coord.error.rank)]
                coord.error = None   # its frames would keep a leak alive
            else:
                if kind == "table":   # from a stand-in coordinator, to rank 1 of two
                    with socket.create_server(("127.0.0.1", 0)) as fake:
                        worker, failed = joining(fake.getsockname(), 1, 2)
                        links = [FramedSocket(fake.accept()[0])]
                    assert links[0].recv_frame(5.0)[0] == TAG_REGISTER
                    links[0].send_frame(*control_frame(TAG_TABLE, frames[0]))
                else:   # from peers, to rank 0 of three
                    coord = Coordinator("127.0.0.1", 0, 3, timeout=5.0)
                    coord.start()
                    worker, failed = joining(coord.address, 0, 3)
                    links = send_control(coord.address, TAG_REGISTER,
                                         [registration(1), registration(2)])
                    tag, table = links[0].recv_frame(5.0)
                    assert tag == TAG_TABLE
                    coord.join()
                    links += send_control(tuple(json.loads(table)["0"]), TAG_HELLO, frames)
                worker.join(timeout=10.0)
                assert not worker.is_alive()
                failures = [failure[:2] for failure in failed]
            for link in links:
                link.close()
        assert failures == [(error, rank)]

    def test_a_worker_listens_on_its_coordinator_links_address(self, monkeypatch):
        """Only the coordinator link leaves from 127.0.0.3: every worker must register,
        and its peers dial, that address rather than a fixed loopback one."""
        real_connect, real_read = tcp._connect, tcp._read_control
        tables = []

        def connect(address, timeout, what):
            if what != "coordinator":
                return real_connect(address, timeout, what)
            return socket.create_connection(address, timeout, source_address=("127.0.0.3", 0))

        def read_control(fs, tag, *rest):
            obj = real_read(fs, tag, *rest)
            if tag == TAG_TABLE:
                tables.append(obj)
            return obj

        monkeypatch.setattr(tcp, "_connect", connect)
        monkeypatch.setattr(tcp, "_read_control", read_control)
        e0, e1 = tcp_mesh(2)
        payloads = [np.arange(5, dtype=np.float32) * (r + 1) for r in range(2)]
        results = {}
        peer = threading.Thread(
            target=lambda: results.update({1: ring_allreduce(payloads[1], CommGroup(e1))}))
        peer.start()
        try:
            results[0] = ring_allreduce(payloads[0], CommGroup(e0))
            peer.join(timeout=10.0)
        finally:
            e0.close(), e1.close()
        assert len(tables) == 2
        assert {host for table in tables for host, _ in table.values()} == {"127.0.0.3"}
        expected = np.arange(5, dtype=np.float32) * 3
        assert (results[0] == expected).all() and (results[1] == expected).all()

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

    def test_a_cluster_builds_no_link_before_it_is_used(self):
        # the paper's 138 devices have 18,906 directed links, of which a ring uses 138
        assert not SimCluster(138, ETH).queues

    @pytest.mark.parametrize("collective,links", [(ring_allreduce, 8), (tree_allreduce, 14)],
                             ids=["ring", "tree"])
    def test_a_run_builds_only_the_links_its_collective_uses(self, collective, links):
        cluster = SimCluster(8, ETH)   # a ring uses K directed links, a tree 2(K-1)
        cluster.run(lambda ep: collective(np.ones(64, np.float32), CommGroup(ep)))
        assert len(cluster.queues) == links

    def test_a_message_with_another_tag_is_a_tag_mismatch(self):
        sender, receiver = SimCluster(2, ETH).endpoints
        sender.send(1, 5, np.ones(4, np.float32))
        with pytest.raises(TagMismatch, match="rank 1: expected tag 6 from rank 0, got 5") as err:
            receiver.recv(0, 6)
        assert err.value.rank == 0

    @pytest.mark.parametrize("call,message", [
        (lambda ep: ep.advance(-1e-9), "cannot advance the clock backwards"),
        (lambda ep: ep.send(0, 0, np.ones(1, np.float32)), "invalid destination rank 0"),
        (lambda ep: ep.send(2, 0, np.ones(1, np.float32)), "invalid destination rank 2"),
        (lambda ep: ep.recv(0, 0), "invalid source rank 0"),
        (lambda ep: ep.recv(-1, 0), "invalid source rank -1"),
    ], ids=["clock-backwards", "send-to-self", "send-past-the-last-rank", "recv-from-self",
            "recv-from-a-negative-rank"])
    def test_an_endpoint_refuses_a_backward_clock_and_a_peer_outside_the_cluster(self, call,
                                                                                message):
        endpoint = SimCluster(2, ETH).endpoints[0]
        with pytest.raises(ValueError, match=message):
            call(endpoint)
        assert (endpoint.clock, endpoint.n_sends) == (0.0, 0)

    def test_a_cluster_over_the_tag_block_is_refused_before_any_thread_starts(self, monkeypatch):
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("a rank's thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        message = "cluster size must be >= 1 and at most 2049, got 2050"
        with pytest.raises(ValueError, match=message):
            SimCluster(2050, ETH).run(lambda ep: None)
        assert started == []
        assert SimCluster(2049, ETH).size == 2049

    def test_sim_recv_timeout_guards_deadlock(self):
        cluster = SimCluster(2, ETH)
        with pytest.raises(RecvTimeout):
            cluster.endpoints[0].recv(1, 0)

    @pytest.mark.parametrize("k,task,waiting,peer", [
        (2, lambda ep: ep.recv(1 - ep.rank, 0), 0, 1),   # each waits on the other
        (3, lambda ep: ep.recv(0, 0) if ep.rank else None, 1, 0),   # rank 0 returns
    ], ids=["a-cycle", "a-returned-peer"])
    def test_a_deadlock_is_reported_at_once(self, k, task, waiting, peer):
        t0 = time.monotonic()
        with pytest.raises(RecvTimeout) as err:
            SimCluster(k, ETH).run(task)
        assert time.monotonic() - t0 < 1.0
        assert err.value.rank == peer
        assert str(err.value).startswith(f"rank {waiting}: no message from rank {peer} tag 0")

    @pytest.mark.parametrize("k", [4, 8])
    def test_one_rank_runs_at_a_time(self, monkeypatch, k):
        running, seen = [0], []
        recv = SimEndpoint.recv

        def counted_recv(ep, src, tag):
            running[0] -= 1   # a rank waiting for a message is not running
            try:
                return recv(ep, src, tag)
            finally:
                running[0] += 1

        def task(ep):
            running[0] += 1
            try:
                for _ in range(3):
                    seen.append(running[0])
                    ring_allreduce(np.ones(64, np.float32), CommGroup(ep))
                    seen.append(running[0])
            finally:
                running[0] -= 1

        monkeypatch.setattr(SimEndpoint, "recv", counted_recv)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            SimCluster(k, ETH).run(task)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == 6 * k
        assert set(seen) == {1}


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
        (rate,), aborted = sim_probe_bandwidth(ETH, 5.0, 1)
        assert not aborted
        assert rate == pytest.approx(940.0, rel=0.01)

    def test_sim_probe_disconnect_aborts_immediately(self):
        prof = NetProfile(base_bandwidth=940.0, latency=1e-4,
                          disconnect_prob=0.9999999, seed=2)
        (rate,), aborted = sim_probe_bandwidth(prof, 1.0, 1)
        assert aborted
        assert rate == 0.0

    @pytest.mark.parametrize("disconnect_prob", [0.0, 0.2])
    def test_run_i_of_a_probe_is_a_one_run_probe_on_seed_plus_i(self, disconnect_prob):
        prof = NetProfile(base_bandwidth=400.0, latency=2e-3, jitter_frac=0.1,
                          disconnect_prob=disconnect_prob, seed=7)
        rates, aborted = sim_probe_bandwidth(prof, 0.5, 3)
        runs = [sim_probe_bandwidth(replace(prof, seed=7 + i), 0.5, 1) for i in range(3)]
        assert rates == [rate for (rate,), _ in runs]
        assert len(set(rates)) == 3
        assert aborted == any(bad for _, bad in runs) == (disconnect_prob > 0)

    def test_a_probe_over_the_message_cap_is_refused_before_any_draw(self, monkeypatch):
        from ringtrain.transport import sim
        monkeypatch.setattr(sim.np.random, "default_rng", None)   # a draw would fail
        per_message = sim_transfer_time(sim.PROBE_MESSAGE_BYTES, 2, ETH)
        seconds = 1.01 * sim.MAX_PROBE_MESSAGES * per_message / 3
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"the {sim.MAX_PROBE_MESSAGES} messages"):
            sim_probe_bandwidth(ETH, seconds, 3)
        assert time.perf_counter() - t0 < 1.0

    def test_probe_server_closes_a_connection_that_sends_a_wrong_tag(self, probe_session):
        addr, thread, failures = probe_session
        with no_unclosed_sockets():
            fs = FramedSocket(socket.create_connection(addr))
            fs.send_frame(7, b"")
            thread.join(timeout=5.0)
            fs.close()
        assert not thread.is_alive()
        assert failures == [TagMismatch]

    def test_loopback_probe_reports_positive_rate(self, probe_session):
        addr, thread, failures = probe_session
        rates = tcp_probe_client(addr, seconds=0.05, repeat=3)
        assert len(rates) == 3
        assert all(r > 0 for r in rates)
        thread.join(timeout=5.0)
        assert failures == []

    def test_a_probe_session_starts_no_thread(self, monkeypatch):
        """The whole session runs on the caller's thread: the client's frames wait in
        the socket buffers until the server, on this same thread, reads them."""
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("the probe session started a thread")

        with no_unclosed_sockets():
            listener = listen("127.0.0.1", 0, 1)
            client = FramedSocket(socket.create_connection(listener.getsockname()))
            for tag, payload in ((TAG_PROBE_DATA, b"x" * 1000), (TAG_PROBE_DATA, b"y" * 24),
                                 (TAG_PROBE_END, b"done")):
                client.send_frame(tag, payload)
            monkeypatch.setattr(threading.Thread, "start", refuse)
            try:
                serve_probe(listener)
            finally:
                monkeypatch.undo()
            tag, ack = client.recv_frame(5.0)
            client.close()
        assert started == []
        assert (tag, json.loads(ack)) == (TAG_PROBE_ACK, {"received": 1024})
        assert listener.fileno() == -1   # one session: the listener is closed
