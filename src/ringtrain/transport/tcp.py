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
from contextlib import ExitStack, contextmanager, suppress

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


def _until(sock: socket.socket, deadline: float) -> socket.socket:
    """Let the next call on ``sock`` wait only for the time left before ``deadline``;
    with none left it polls once, raising ``BlockingIOError`` if it would wait."""
    sock.settimeout(max(0.0, deadline - time.monotonic()))
    return sock


class FramedSocket:
    """Blocking framed message stream over one TCP connection."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.dead = False

    def close(self) -> None:
        self.dead = True
        with suppress(OSError):
            self.sock.close()

    def _recv_exact(self, n: int, deadline: float, timeout: float) -> bytearray:
        """Read exactly ``n`` bytes straight into one new buffer by ``deadline``."""
        buf = bytearray(n)
        got = 0
        with memoryview(buf) as view:
            while got < n:
                try:
                    count = _until(self.sock, deadline).recv_into(view[got:])
                except (socket.timeout, BlockingIOError):
                    if got:   # the stream no longer starts at a frame boundary
                        self.dead = True
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
                sent = _until(self.sock, deadline).sendmsg(views)
                while views and sent >= len(views[0]):
                    sent -= len(views.pop(0))
                if views:
                    views[0] = views[0][sent:]
        except OSError as exc:
            self.dead = True
            raise PeerDisconnected(f"send failed: {exc}") from None

    def recv_frame(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[int, bytearray]:
        """Receive one frame, header and payload together, within ``timeout`` seconds."""
        if self.dead:
            raise PeerDisconnected("connection already marked dead")
        deadline = time.monotonic() + timeout
        header = self._recv_exact(HEADER_SIZE, deadline, timeout)
        try:   # a bad header, or a timeout after the header, leaves the stream out of step
            tag, length = decode_header(header)
            return tag, self._recv_exact(length, deadline, timeout)
        except (WireProtocolError, RecvTimeout):
            self.dead = True
            raise


class TcpEndpoint:
    """Full-mesh peer handle with SimEndpoint's surface and the wall clock as its
    clock; each frame sent or received must move within ``timeout`` seconds."""

    def __init__(self, rank: int, size: int, conns: dict[int, FramedSocket],
                 timeout: float = DEFAULT_TIMEOUT):
        self.rank = rank
        self.size = size
        self.conns = conns
        self.timeout = timeout

    @property
    def clock(self) -> float:
        return time.perf_counter()

    def advance(self, seconds: float) -> None:
        """Real time passes on its own; nothing to charge."""

    @contextmanager
    def _link(self, peer: int):
        """Yield the connection to ``peer``; a failure on it names that peer."""
        try:
            conn = self.conns[peer]
        except KeyError:
            raise ValueError(f"no connection to rank {peer}") from None
        try:
            yield conn
        except CommunicationError as exc:
            exc.rank = peer
            raise

    def send(self, dst: int, tag: int, payload: np.ndarray) -> None:
        data = floats_to_wire(payload)
        with self._link(dst) as conn:
            conn.send_frame(tag, data, self.timeout)

    def recv(self, src: int, tag: int, timeout: float | None = None) -> np.ndarray:
        with self._link(src) as conn:
            got_tag, payload = conn.recv_frame(self.timeout if timeout is None else timeout)
            if got_tag != tag:
                raise TagMismatch(
                    f"rank {self.rank}: expected tag {tag} from rank {src}, got {got_tag}")
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


def _listen(host: str, port: int, backlog: int, timeout: float) -> socket.socket:
    """A listening socket whose accepts wait ``timeout`` seconds."""
    server = socket.create_server((host, port), backlog=backlog)
    server.settimeout(timeout)
    return server


def _accept(server: socket.socket, message: str) -> socket.socket:
    """Accept one connection; a timeout raises ``RecvTimeout(message)``."""
    try:
        return server.accept()[0]
    except (socket.timeout, BlockingIOError):   # the latter: no time was left
        raise RecvTimeout(message) from None


class _ServerThread(threading.Thread):
    """Runs the subclass's ``serve`` on a daemon thread and closes the listener
    after it; join the thread, then read its failure from ``error`` (or None)."""

    def __init__(self, server: socket.socket):
        super().__init__(daemon=True)
        self._server = server
        self.address = server.getsockname()
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            with self._server:
                self.serve()
        except OSError as exc:   # from the listener: a timeout is already a RecvTimeout
            self.error = CommunicationError(f"listener {self.address} failed: {exc}")
        except Exception as exc:  # noqa: BLE001 - surfaced to whoever joins
            self.error = exc

    def stop(self) -> None:
        """Stop waiting for connections: an accept in progress fails at once."""
        with suppress(OSError):   # serve has closed it already
            self._server.shutdown(socket.SHUT_RDWR)


class Coordinator(_ServerThread):
    """Collects worker registrations and broadcasts the address table."""

    def __init__(self, host: str, port: int, size: int, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(_listen(host, port, size, timeout))
        self.size = size
        self.timeout = timeout

    def serve(self) -> None:
        """Accept and read all registrations within ``timeout``, then send everyone
        the rank -> address table."""
        conns: dict[int, FramedSocket] = {}
        table: dict[str, tuple[str, int]] = {}
        deadline = time.monotonic() + self.timeout
        # every accepted socket is closed on the way out, registered or not
        with ExitStack() as accepted:
            while len(conns) < self.size:
                late = f"rendezvous timed out with {len(conns)}/{self.size} workers"
                fs = FramedSocket(accepted.enter_context(
                    _accept(_until(self._server, deadline), late)))
                try:
                    tag, payload = fs.recv_frame(max(0.0, deadline - time.monotonic()))
                except RecvTimeout:
                    raise RecvTimeout(late) from None
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
    """Join the group and build the full mesh; returns a ready endpoint whose
    every send and receive is bounded by the same ``timeout``.

    The listener and the coordinator connection are closed on return; if the
    join fails, every peer connection opened so far is closed as well.
    """
    with _listen(listen_host, 0, size, timeout) as listener, ExitStack() as peers:
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
        for _ in range(size - 1 - rank):
            fs = FramedSocket(peers.enter_context(
                _accept(listener, f"rank {rank}: timed out waiting for peers")))
            hello_tag, hello = fs.recv_frame(timeout)
            if hello_tag != TAG_HELLO:
                raise TagMismatch(f"expected hello, got tag {hello_tag}")
            peer = int(json.loads(hello.decode())["rank"])
            if not rank < peer < size or peer in conns:
                raise ProtocolError(f"rank {rank}: unexpected hello from rank {peer}",
                                    rank=peer)
            conns[peer] = fs
        peers.pop_all()
    return TcpEndpoint(rank, size, conns, timeout)


class _ProbeServer(_ServerThread):
    def serve(self) -> None:
        """Count payload bytes until each END frame and acknowledge the total;
        the session ends at the END frame that says "done"."""
        with _accept(self._server, "probe server timed out waiting for a client") as sock:
            self._server.close()   # one session: stop listening once it is accepted
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


def tcp_probe_server(host: str, port: int) -> tuple[tuple[str, int], threading.Thread]:
    """Serve one throughput-probe session on a background thread.

    Returns the bound address and the serving thread: join it to wait for the
    session, whose failure it then holds as ``error`` (a ``CommunicationError``,
    or None).
    """
    thread = _ProbeServer(_listen(host, port, 1, DEFAULT_TIMEOUT))
    thread.start()
    return thread.address, thread
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
