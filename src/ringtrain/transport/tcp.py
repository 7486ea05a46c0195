"""Real framed-TCP transport, worker rendezvous and the bandwidth probe.

Every worker connects to a coordinator, listens on that link's local address
(the address its peers can reach), registers (rank, address) and receives the
full address table back, then builds a full mesh: rank r dials every lower
rank and accepts connections from higher ranks. All traffic uses the frame
format from :mod:`.frame`. Every control frame (registration, address table,
hello and probe ACK) is a JSON object read through ``_read_control``, whose
field types follow the one JSON type rule that config files use as well
(:func:`ringtrain.preset.json_fits`).
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from contextlib import ExitStack, suppress
from typing import TYPE_CHECKING

from ..errors import (CommunicationError, PeerDisconnected, ProtocolError, RecvTimeout,
                      TagMismatch, WireProtocolError)
from ..preset import json_fits
from . import check_charge, check_peers
from .frame import HEADER_SIZE, decode_header, encode_frame, floats_to_wire, wire_to_floats

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TIMEOUT = 30.0
# the longest wait a poll selector takes, 2**31 - 1 ms (about 24.8 days), in whole seconds
MAX_TIMEOUT = (2 ** 31 - 1) // 1000

# control tags live at the top of the u32 space, clear of collective tags
TAG_REGISTER = 0xFFFF0001
TAG_TABLE = 0xFFFF0002
TAG_HELLO = 0xFFFF0003
TAG_PROBE_DATA = 0xFFFF0010
TAG_PROBE_END = 0xFFFF0011
TAG_PROBE_ACK = 0xFFFF0012


class FramedSocket:
    """Framed message stream over one TCP connection; every frame moves through
    ``_exchange``, whose socket calls never wait (``MSG_DONTWAIT``): its selector does."""

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(True)   # with a timeout set, Python would poll before each call
        self.sock = sock
        self.dead = False

    def close(self) -> None:
        self.dead = True
        with suppress(OSError):
            self.sock.close()

    def send_frame(self, tag: int, payload: bytes | memoryview,
                   timeout: float = DEFAULT_TIMEOUT) -> None:
        """Send header and payload in gathered writes, all within ``timeout`` seconds."""
        _exchange(self, encode_frame(tag, payload), None, timeout)

    def recv_frame(self, timeout: float = DEFAULT_TIMEOUT) -> tuple[int, bytearray]:
        """Receive one frame, header and payload together, within ``timeout`` seconds."""
        return _exchange(None, (), self, timeout)


def _drop(sel: selectors.BaseSelector, sock: socket.socket, event: int) -> None:
    """Stop waiting for ``event`` on ``sock``."""
    events = sel.get_key(sock).events & ~event
    if events:
        sel.modify(sock, events)
    else:
        sel.unregister(sock)


def _write_some(conn: FramedSocket, views: list[memoryview], dst: int | None) -> int:
    """Write what the socket takes of ``views`` now, dropping what went out; returns
    the byte count."""
    try:
        sent = count = conn.sock.sendmsg(views, (), socket.MSG_DONTWAIT)
    except BlockingIOError:
        return 0
    except OSError as exc:
        conn.dead = True
        raise PeerDisconnected(f"send failed: {exc}", rank=dst) from None
    while views and count >= len(views[0]):
        count -= len(views.pop(0))
    if views:
        views[0] = views[0][count:]
    return sent


def _read_some(conn: FramedSocket, view: memoryview, src: int | None) -> int:
    """Read what has arrived into ``view`` (not empty); returns the byte count."""
    try:
        count = conn.sock.recv_into(view, 0, socket.MSG_DONTWAIT)
    except BlockingIOError:
        return 0
    except OSError as exc:
        conn.dead = True
        raise PeerDisconnected(f"connection failed: {exc}", rank=src) from None
    if not count:
        conn.dead = True
        raise PeerDisconnected("peer closed the connection", rank=src)
    return count


def _exchange(out: FramedSocket | None, frame, inc: FramedSocket | None, timeout: float,
              dst: int | None = None, src: int | None = None) -> tuple[int, bytearray] | None:
    """Write ``frame`` (``encode_frame``'s buffers) to ``out`` while reading one frame from
    ``inc``, on the calling thread; either side may be None, and both may be one link.

    One selector loop, under one deadline ``timeout`` seconds away, serves whichever
    socket is ready, so two peers writing frames larger than the socket buffers to
    each other both make progress. Returns the incoming ``(tag, payload)``, or None
    without ``inc``. A failure names ``dst`` if the write failed and ``src`` if the
    read did. A corrupt header, or a timeout partway through a frame, marks that
    link dead: its stream no longer starts at a frame boundary.
    """
    for conn, peer in ((out, dst), (inc, src)):
        if conn is not None and conn.dead:
            raise PeerDisconnected("connection already marked dead", rank=peer)
    views = [memoryview(b) for b in frame]
    reading = inc is not None
    header = bytearray(HEADER_SIZE)
    payload = None   # allocated once the header has been read and checked
    buf, got, sent = memoryview(header), 0, 0
    deadline = time.monotonic() + timeout
    with selectors.PollSelector() as sel:   # unlike epoll, no kernel object per call
        if views:
            sel.register(out.sock, selectors.EVENT_WRITE)
        if reading and views and inc is out:
            sel.modify(inc.sock, selectors.EVENT_WRITE | selectors.EVENT_READ)
        elif reading:
            sel.register(inc.sock, selectors.EVENT_READ)
        writable, readable = bool(views), False   # a write is tried before any wait
        while True:
            if writable:
                sent += _write_some(out, views, dst)
                if not views:
                    _drop(sel, out.sock, selectors.EVENT_WRITE)
            if readable:
                got += _read_some(inc, buf[got:], src)
                if payload is None and got == HEADER_SIZE:
                    try:
                        tag, length = decode_header(header)
                    except WireProtocolError as exc:
                        inc.dead, exc.rank = True, src
                        raise
                    payload = bytearray(length)
                    buf, got = memoryview(payload), 0
                if payload is not None and got == len(payload):
                    reading = False
                    _drop(sel, inc.sock, selectors.EVENT_READ)
            if not (views or reading):
                return None if inc is None else (tag, payload)
            ready = sel.select(deadline - time.monotonic())
            if not ready:
                if views and sent:
                    out.dead = True
                if reading and (got or payload is not None):
                    inc.dead = True
                side, peer = ("recv", src) if reading else ("send", dst)
                raise RecvTimeout(f"{side} timed out after {timeout}s", rank=peer)
            writable = any(mask & selectors.EVENT_WRITE for _, mask in ready)
            readable = any(mask & selectors.EVENT_READ for _, mask in ready)


class TcpEndpoint:
    """Full-mesh peer handle with SimEndpoint's surface and the wall clock as its
    clock; each frame sent or received must move within ``timeout`` seconds. Every
    call runs on the caller's thread, and a failure names the peer it came from."""

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
        check_charge(seconds)   # real time passes on its own, so nothing is charged

    def _floats(self, src: int, tag: int, frame: tuple[int, bytearray]) -> np.ndarray:
        """The payload of the frame received from ``src``, which must carry ``tag``."""
        got_tag, payload = frame
        if got_tag != tag:
            raise TagMismatch(
                f"rank {self.rank}: expected tag {tag} from rank {src}, got {got_tag}", rank=src)
        try:
            return wire_to_floats(payload)
        except WireProtocolError as exc:
            exc.rank = src
            raise

    def send(self, dst: int, tag: int, payload: np.ndarray,
             src: int | None = None) -> np.ndarray | None:
        """Send ``payload`` to ``dst`` as one frame. With ``src``, the frame with the same
        tag from ``src`` is read in the same selector loop and returned: ``sendrecv``."""
        check_peers(self, dst, src)
        got = _exchange(self.conns[dst], encode_frame(tag, floats_to_wire(payload)),
                        None if src is None else self.conns[src], self.timeout, dst, src)
        return None if src is None else self._floats(src, tag, got)

    def recv(self, src: int, tag: int) -> np.ndarray:
        check_peers(self, src=src)
        return self._floats(src, tag, _exchange(None, (), self.conns[src], self.timeout, src=src))

    def sendrecv(self, dst: int, src: int, tag: int, payload: np.ndarray) -> np.ndarray:
        """Send ``payload`` to ``dst`` while receiving the ``src`` message with the same tag."""
        return self.send(dst, tag, payload, src)

    def close(self) -> None:
        for conn in self.conns.values():
            conn.close()


def listen(host: str, port: int, backlog: int) -> socket.socket:
    """A socket listening on ``host:port``; one that cannot bind is a ``CommunicationError``."""
    try:
        return socket.create_server((host, port), backlog=backlog)
    except OSError as exc:
        raise CommunicationError(f"cannot listen on {host}:{port}: {exc}") from None


def _accept(server: socket.socket, message: str, timeout=DEFAULT_TIMEOUT) -> socket.socket:
    """Accept one connection within ``timeout`` seconds, else raise ``RecvTimeout(message)``."""
    server.settimeout(max(0.0, timeout))
    try:
        return server.accept()[0]
    except (socket.timeout, BlockingIOError):   # the latter: no time was left
        raise RecvTimeout(message) from None


def _read_control(fs: FramedSocket, tag: int, timeout: float, what: str, fields: dict) -> dict:
    """Read one control frame within ``timeout`` seconds; returns its JSON object, which
    must hold ``fields`` of their types (see ``json_fits``), or raises a ``ProtocolError``."""
    got, payload = fs.recv_frame(timeout)
    if got != tag:
        raise TagMismatch(f"expected {what}, got tag {got}")
    try:
        obj = json.loads(payload)
    except (ValueError, RecursionError):   # not UTF-8, not JSON, or nested too deep
        obj = None
    if not (isinstance(obj, dict) and all(json_fits(obj.get(k), v) for k, v in fields.items())):
        raise ProtocolError(f"malformed {what}: {bytes(payload[:80])!r}")
    return obj


def _admit(server: socket.socket, tag: int, what: str, fields: dict, ranks: range,
           timeout: float, late: str, stack: ExitStack) -> dict[int, tuple[FramedSocket, dict]]:
    """Accept one connection from each rank of ``ranks``, all within ``timeout`` seconds,
    each opening with a ``_read_control`` frame that names a rank of ``ranks`` not seen
    before; returns each rank's link and frame. Accepted sockets go on ``stack``. Missing
    the deadline raises ``RecvTimeout(late)``, its ``{}`` filled with the count admitted."""
    deadline = time.monotonic() + timeout
    admitted = {}
    while len(admitted) < len(ranks):
        msg = late.format(len(admitted))
        fs = FramedSocket(stack.enter_context(_accept(server, msg, deadline - time.monotonic())))
        try:
            obj = _read_control(fs, tag, deadline - time.monotonic(), what, fields)
        except RecvTimeout:
            raise RecvTimeout(msg) from None
        if obj["rank"] not in ranks or obj["rank"] in admitted:
            raise ProtocolError(f"unexpected {what} from rank {obj['rank']}", rank=obj["rank"])
        admitted[obj["rank"]] = fs, obj
    return admitted


class Coordinator(threading.Thread):
    """Collects worker registrations and broadcasts the address table on a daemon
    thread, then closes its listener; join it, then read its failure from ``error``
    (or None)."""

    def __init__(self, host: str, port: int, size: int, timeout: float = DEFAULT_TIMEOUT):
        super().__init__(daemon=True)
        self._server = listen(host, port, size)
        self.address = self._server.getsockname()
        self.size = size
        self.timeout = timeout
        self.error: Exception | None = None
        self._stopped = False

    def run(self) -> None:
        """Accept and read all registrations within ``timeout``, then send everyone
        the rank -> address table."""
        try:
            with self._server, ExitStack() as accepted:   # and every accepted socket
                workers = _admit(self._server, TAG_REGISTER, "registration",
                                 {"rank": int, "host": str, "port": int}, range(self.size),
                                 self.timeout,
                                 f"rendezvous timed out with {{}}/{self.size} workers", accepted)
                payload = json.dumps({str(rank): (reg["host"], reg["port"])
                                      for rank, (_, reg) in workers.items()}).encode()
                for fs, _ in workers.values():
                    fs.send_frame(TAG_TABLE, payload, self.timeout)
        except OSError as exc:   # from the listener: a timeout is already a RecvTimeout
            if not self._stopped:   # stop() fails the accept on purpose
                self.error = CommunicationError(f"listener {self.address} failed: {exc}")
        except Exception as exc:  # noqa: BLE001 - surfaced to whoever joins
            self.error = exc

    def stop(self) -> None:
        """Stop waiting for connections: an accept in progress fails at once, and is
        no failure."""
        self._stopped = True
        with suppress(OSError):   # run has closed it already
            self._server.shutdown(socket.SHUT_RDWR)


def _connect(address: tuple[str, int], timeout: float, what: str) -> socket.socket:
    try:
        return socket.create_connection(address, timeout=timeout)
    except socket.timeout:
        raise RecvTimeout(f"connecting to {what} at {address[0]}:{address[1]} "
                          f"timed out") from None
    except (OSError, ValueError, OverflowError) as exc:   # or a host or port out of range
        raise PeerDisconnected(f"cannot reach {what} at "
                               f"{address[0]}:{address[1]}: {exc}") from None


def rendezvous(coordinator: tuple[str, int], rank: int, size: int,
               timeout: float = DEFAULT_TIMEOUT) -> TcpEndpoint:
    """Join the group and build the full mesh; returns a ready endpoint whose
    every send and receive is bounded by the same ``timeout``, as is the wait for
    the hellos of all higher ranks.

    The worker listens on, and registers, its coordinator link's local address: the
    interface that reaches the coordinator, which the peers reach it on as well. The
    listener and the coordinator connection are closed on return; if the join fails,
    every peer connection opened so far is closed as well.
    """
    with _connect(coordinator, timeout, "coordinator") as coord_sock, \
            listen(coord_sock.getsockname()[0], 0, size) as listener, \
            ExitStack() as peers:
        host, port = listener.getsockname()[:2]
        coord = FramedSocket(coord_sock)
        coord.send_frame(TAG_REGISTER, json.dumps(
            {"rank": rank, "host": host, "port": port}).encode(), timeout)
        table = _read_control(coord, TAG_TABLE, timeout, f"address table for rank {rank}",
                              {str(r): tuple[str, int] for r in range(size)})

        conns: dict[int, FramedSocket] = {}
        for peer in range(rank):   # dial lower ranks, announce who we are
            conns[peer] = FramedSocket(peers.enter_context(
                _connect(tuple(table[str(peer)]), timeout, f"rank {peer}")))
            conns[peer].send_frame(TAG_HELLO, json.dumps({"rank": rank}).encode(), timeout)
        hellos = _admit(listener, TAG_HELLO, f"hello to rank {rank}", {"rank": int},
                        range(rank + 1, size), timeout,
                        f"rank {rank}: timed out waiting for peers", peers)
        conns.update((peer, fs) for peer, (fs, _) in hellos.items())
        peers.pop_all()
    return TcpEndpoint(rank, size, conns, timeout)


def serve_probe(listener: socket.socket) -> None:
    """Serve one throughput-probe session on the calling thread: count payload bytes
    until each END frame and acknowledge the total; the session ends at the END frame
    that says "done". The listener is closed once a client is accepted."""
    with listener, _accept(listener, "probe server timed out waiting for a client") as sock:
        listener.close()   # one session: stop listening once it is accepted
        fs = FramedSocket(sock)
        received, done = 0, False
        while not done:
            tag, payload = fs.recv_frame()
            if tag == TAG_PROBE_DATA:
                received += len(payload)
            elif tag == TAG_PROBE_END:
                fs.send_frame(TAG_PROBE_ACK, json.dumps({"received": received}).encode())
                received, done = 0, payload == b"done"
            else:
                raise TagMismatch(f"probe server got tag {tag}")


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
            fs.send_frame(TAG_PROBE_END, b"done" if i == repeat - 1 else b"more")
            ack = _read_control(fs, TAG_PROBE_ACK, DEFAULT_TIMEOUT, "probe ack",
                                {"received": int})
            rates.append(ack["received"] * 8.0 / (1e6 * (time.perf_counter() - t0)))
    finally:
        fs.close()
    return rates
