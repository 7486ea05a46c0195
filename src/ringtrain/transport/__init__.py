"""Interchangeable transports behind one endpoint contract.

Both endpoints offer ``send``, ``recv``, ``sendrecv`` (one ring step: send to
one peer while receiving from another), ``clock`` and ``advance``.

``tcp`` carries framed messages over real sockets for multi-process runs;
``sim`` delivers the same payloads inside one process under a virtual clock
driven by a configurable network profile. Collectives run unchanged on either.
"""

from .frame import FRAME_MAGIC, encode_frame, decode_header, floats_to_wire, wire_to_floats
from .net import NetProfile, sim_transfer_time
from .sim import SimCluster, SimEndpoint, sim_probe_bandwidth
from .tcp import TcpEndpoint, Coordinator, rendezvous, tcp_probe_server, tcp_probe_client

__all__ = [
    "FRAME_MAGIC", "encode_frame", "decode_header", "floats_to_wire", "wire_to_floats",
    "NetProfile", "sim_transfer_time",
    "SimCluster", "SimEndpoint", "sim_probe_bandwidth",
    "TcpEndpoint", "Coordinator", "rendezvous", "tcp_probe_server", "tcp_probe_client",
]
