"""Interchangeable transports behind one endpoint contract.

Both endpoints offer ``send``, ``recv``, ``sendrecv`` (one ring step: send to
one peer while receiving from another), ``clock`` and ``advance``. Every call first
checks its peers by :func:`check_peers`, and ``advance`` its charge by :func:`check_charge`.
``tests/test_endpoint_contract.py`` runs each rule on both transports (sums, tags,
short segments, dead peers, bounded waits, message counts, peers, the clock), and
``tests/test_transport.py`` what one alone does: TCP's frames, deadlines,
rendezvous and selector loop, and the simulator's link streams, turns, deadlock
report and thread bound.

``tcp`` carries framed messages over real sockets for multi-process runs;
``sim`` delivers the same payloads inside one process under a virtual clock
driven by a configurable network profile. Collectives run unchanged on either.
"""


def check_peers(endpoint, dst: int | None = None, src: int | None = None) -> None:
    """Refuse a peer outside ``[0, size)``, or the rank itself; ``dst`` is checked first."""
    for role, peer in (("destination", dst), ("source", src)):
        if peer is not None and (peer == endpoint.rank or not 0 <= peer < endpoint.size):
            raise ValueError(f"invalid {role} rank {peer}")


def check_charge(seconds: float) -> None:
    """Refuse a negative charge: no endpoint's clock runs backwards."""
    if seconds < 0:
        raise ValueError("cannot advance the clock backwards")
