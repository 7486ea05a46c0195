"""Real framed-TCP transport and worker rendezvous.

Every worker opens a listening socket, registers (rank, address) with a
coordinator, receives the full address table back, then builds a full mesh:
rank r dials every lower rank and accepts connections from higher ranks.
All traffic uses the frame format from :mod:`.frame`.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import ExitStack, suppress

import numpy as np

from ..errors import (CommunicationError, PeerDisconnected, ProtocolError, RecvTimeout,
                      TagMismatch, WireProtocolError)
from .frame import HEADER_SIZE, decode_header, encode_frame, floats_to_wire, wire_to_floats

DEFAULT_TIMEOUT = 30.0

# control tags live at the top of the u32 space, clear of collective tags
TAG_REGISTER = 0xFFFF0001
TAG_TABLE = 0xFFFF0002
TAG_HELLO = 0xFFFF0003
TAG_PROBE_DATA = 0xFFFF0010
TAG_PROBE_END = 0xFFFF0011
TAG_PROBE_ACK = 0xFFFF0012


class FramedSocket:
    """Blocking framed message stream over one TCP connection."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.dead = False

    def close(self) -> None:
        self.dead = True
        try:
            self.sock.close()
        except OSError:
            pass

    def _recv_exact(self, n: int, timeout: float) -> bytearray:
        """Read exactly ``n`` bytes straight into one new buffer."""
        self.sock.settimeout(timeout)
        buf = bytearray(n)
        got = 0
        with memoryview(buf) as view:
            while got < n:
                try:
                    count = self.sock.recv_into(view[got:])
                except (socket.timeout, BlockingIOError):   # a zero timeout raises the latter
                    raise RecvTimeout(f"recv timed out after {timeout}s") from None
                except OSError as exc:
                    self.dead = True
                    raise PeerDisconnected(f"connection failed: {exc}") from None
                if not count:
                    self.dead = True
                    raise PeerDisconnected("peer closed the connection")
                got += count
        return buf

    def send_frame(self, tag: int, payload: bytes | memoryview,
                   timeout: float = DEFAULT_TIMEOUT) -> None:
        """Send header and payload in gathered writes, all within ``timeout`` seconds."""
        if self.dead:
            raise PeerDisconnected("connection already marked dead")
        views = [memoryview(b) for b in encode_frame(tag, payload)]
        deadline = time.monotonic() + timeout
        try:
            while views:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("timed out")
                self.sock.settimeout(remaining)
                sent = self.sock.sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if views:
                    views[0] = views[0][sent:]
        except OSError as exc:
            self.dead = True
            raise PeerDisconnected(f"send failed: {exc}") from None

    def recv_frame(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[int, bytearray]:
        if self.dead:
            raise PeerDisconnected("connection already marked dead")
        header = self._recv_exact(HEADER_SIZE, timeout)
        try:
            tag, length = decode_header(header)
        except WireProtocolError:
            self.dead = True
            raise
        return tag, self._recv_exact(length, timeout)


class TcpEndpoint:
    """Full-mesh peer handle with SimEndpoint's surface; its clock is the wall clock."""

    def __init__(self, rank: int, size: int, conns: dict[int, FramedSocket]):
        self.rank = rank
        self.size = size
        self.conns = conns
        self.timeout = DEFAULT_TIMEOUT
        self.n_sends = 0
        self.bytes_sent = 0

    @property
    def clock(self) -> float:
        return time.perf_counter()

    def advance(self, seconds: float) -> None:
        """Real time passes on its own; nothing to charge."""

    def send(self, dst: int, tag: int, payload: np.ndarray) -> None:
        try:
            conn = self.conns[dst]
        except KeyError:
            raise ValueError(f"no connection to rank {dst}") from None
        data = floats_to_wire(payload)
        try:
            conn.send_frame(tag, data, self.timeout)
        except PeerDisconnected as exc:
            raise PeerDisconnected(str(exc), rank=dst) from None
        self.n_sends += 1
        self.bytes_sent += len(data)

    def recv(self, src: int, tag: int, timeout: float | None = None) -> np.ndarray:
        try:
            conn = self.conns[src]
        except KeyError:
            raise ValueError(f"no connection to rank {src}") from None
        try:
            got_tag, payload = conn.recv_frame(self.timeout if timeout is None else timeout)
        except CommunicationError as exc:
            exc.rank = src
            raise
        if got_tag != tag:
            raise TagMismatch(
                f"rank {self.rank}: expected tag {tag} from rank {src}, got {got_tag}",
                rank=src)
        return wire_to_floats(payload)

    def sendrecv(self, dst: int, src: int, tag: int, payload: np.ndarray) -> np.ndarray:
        """Send ``payload`` to ``dst`` while receiving the ``src`` message with the same tag.

        A send blocks once the socket buffers fill, so the send runs on a
        helper thread: two ranks sending large segments to each other would
        otherwise wait on each other forever. A failed receive re-raises at
        once, without waiting for the send.
        """
        errors = []

        def send():
            try:
                self.send(dst, tag, payload)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        incoming = self.recv(src, tag)
        sender.join()
        if errors:
            raise errors[0]
        return incoming

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()


class Coordinator:
    """Collects worker registrations and broadcasts the address table."""

    def __init__(self, host: str, port: int, size: int, timeout: float = DEFAULT_TIMEOUT):
        self.size = size
        self.timeout = timeout
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(size)
        self.address = self._server.getsockname()
        self._thread: threading.Thread | None = None
        self.error: BaseException | None = None

    def serve(self) -> None:
        """Accept all workers, then send everyone the rank -> address table."""
        conns: dict[int, FramedSocket] = {}
        table: dict[str, tuple[str, int]] = {}
        # every accepted socket is closed on the way out, registered or not
        with self._server, ExitStack() as accepted:
            self._server.settimeout(self.timeout)
            deadline = time.monotonic() + self.timeout
            while len(conns) < self.size:
                if time.monotonic() > deadline:
                    raise RecvTimeout(
                        f"rendezvous timed out with {len(conns)}/{self.size} workers")
                try:
                    sock, _ = self._server.accept()
                except socket.timeout:
                    raise RecvTimeout(
                        f"rendezvous timed out with {len(conns)}/{self.size} workers"
                    ) from None
                fs = FramedSocket(accepted.enter_context(sock))
                tag, payload = fs.recv_frame(self.timeout)
                if tag != TAG_REGISTER:
                    raise TagMismatch(f"coordinator expected registration, got tag {tag}")
                reg = json.loads(payload.decode())
                rank = int(reg["rank"])
                if not 0 <= rank < self.size:
                    raise ValueError(f"registration for out-of-range rank {rank}")
                if rank in conns:
                    raise ProtocolError(f"rank {rank} registered twice", rank=rank)
                conns[rank] = fs
                table[str(rank)] = (reg["host"], int(reg["port"]))
            payload = json.dumps(table).encode()
            for fs in conns.values():
                fs.send_frame(TAG_TABLE, payload, self.timeout)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            self.serve()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the launcher
            self.error = exc

    def stop(self) -> None:
        """Stop waiting for registrations: an accept in progress fails at once."""
        with suppress(OSError):   # serve has closed it already
            self._server.shutdown(socket.SHUT_RDWR)

    def join(self) -> None:
        if self._thread is not None:
            self._thread.join()


def _connect(address: tuple[str, int], timeout: float, what: str) -> socket.socket:
    try:
        return socket.create_connection(address, timeout=timeout)
    except socket.timeout:
        raise RecvTimeout(f"connecting to {what} at {address[0]}:{address[1]} "
                          f"timed out") from None
    except OSError as exc:
        raise PeerDisconnected(f"cannot reach {what} at "
                               f"{address[0]}:{address[1]}: {exc}") from None


def rendezvous(coordinator: tuple[str, int], rank: int, size: int,
               listen_host: str = "127.0.0.1",
               timeout: float = DEFAULT_TIMEOUT) -> TcpEndpoint:
    """Join the group and build the full mesh; returns a ready endpoint.

    The listener and the coordinator connection are closed on return; if the
    join fails, every peer connection opened so far is closed as well.
    """
    with (socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener,
          ExitStack() as peers):
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((listen_host, 0))
        listener.listen(size)
        listen_addr = listener.getsockname()

        with _connect(coordinator, timeout, "coordinator") as coord_sock:
            coord = FramedSocket(coord_sock)
            coord.send_frame(TAG_REGISTER, json.dumps(
                {"rank": rank, "host": listen_addr[0], "port": listen_addr[1]}).encode(),
                timeout)
            tag, payload = coord.recv_frame(timeout)
        if tag != TAG_TABLE:
            raise TagMismatch(f"expected address table, got tag {tag}")
        table = {int(r): (h, p) for r, (h, p) in json.loads(payload.decode()).items()}

        conns: dict[int, FramedSocket] = {}
        # dial lower ranks, announce who we are
        for peer in range(rank):
            fs = FramedSocket(peers.enter_context(
                _connect(table[peer], timeout, f"rank {peer}")))
            fs.send_frame(TAG_HELLO, json.dumps({"rank": rank}).encode(), timeout)
            conns[peer] = fs
        # accept higher ranks
        listener.settimeout(timeout)
        for _ in range(size - 1 - rank):
            try:
                peer_sock, _ = listener.accept()
            except socket.timeout:
                raise RecvTimeout(f"rank {rank}: timed out waiting for peers") from None
            fs = FramedSocket(peers.enter_context(peer_sock))
            hello_tag, hello = fs.recv_frame(timeout)
            if hello_tag != TAG_HELLO:
                raise TagMismatch(f"expected hello, got tag {hello_tag}")
            peer = int(json.loads(hello.decode())["rank"])
            if not rank < peer < size or peer in conns:
                raise ProtocolError(f"rank {rank}: unexpected hello from rank {peer}",
                                    rank=peer)
            conns[peer] = fs
        peers.pop_all()
    return TcpEndpoint(rank, size, conns)


def tcp_probe_server(host: str, port: int) -> tuple[tuple[str, int], threading.Thread]:
    """Serve one throughput-probe session on a background thread.

    Counts payload bytes until each END frame and acknowledges the total; the
    session ends at the END frame that says "done". Returns the bound address
    and the serving thread: join it to wait for the session, whose failure it
    then holds as ``error`` (a ``CommunicationError``, or None).
    """
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    server.bind((host, port))
    server.listen(1)
    addr = server.getsockname()

    def run():
        try:
            with server:   # one session: stop listening once it is accepted
                server.settimeout(DEFAULT_TIMEOUT)
                sock = server.accept()[0]
            with sock:
                fs = FramedSocket(sock)
                done = False
                while not done:
                    received = 0
                    while True:
                        tag, payload = fs.recv_frame()
                        if tag == TAG_PROBE_END:
                            done = payload == b"done"
                            break
                        if tag != TAG_PROBE_DATA:
                            raise TagMismatch(f"probe server got tag {tag}")
                        received += len(payload)
                    fs.send_frame(TAG_PROBE_ACK, str(received).encode())
        except OSError as exc:   # from accept, a timeout included
            thread.error = CommunicationError(f"probe session failed: {exc}")
        except CommunicationError as exc:
            thread.error = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.error = None
    thread.start()
    return addr, thread


def tcp_probe_client(server: tuple[str, int], seconds: float,
                     repeat: int = 10) -> list[float]:
    """Stream 1 MiB data frames to a probe server; returns Mbps per repeat."""
    fs = FramedSocket(_connect(server, DEFAULT_TIMEOUT, "probe server"))
    chunk = bytes(1 << 20)
    rates = []
    try:
        for i in range(repeat):
            t0 = time.perf_counter()
            deadline = t0 + seconds
            while time.perf_counter() < deadline:
                fs.send_frame(TAG_PROBE_DATA, chunk)
            last = i == repeat - 1
            fs.send_frame(TAG_PROBE_END, b"done" if last else b"more")
            tag, payload = fs.recv_frame()
            elapsed = time.perf_counter() - t0
            if tag != TAG_PROBE_ACK:
                raise TagMismatch(f"probe client got tag {tag}")
            acked = int(payload.decode())
            rates.append(acked * 8.0 / (1e6 * elapsed))
    finally:
        fs.close()
    return rates
