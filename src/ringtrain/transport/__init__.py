"""Interchangeable transports behind one endpoint contract.

Both endpoints offer ``send``, ``recv``, ``sendrecv`` (one ring step: send to
one peer while receiving from another), ``clock`` and ``advance``.

``tcp`` carries framed messages over real sockets for multi-process runs;
``sim`` delivers the same payloads inside one process under a virtual clock
driven by a configurable network profile. Collectives run unchanged on either.
"""
