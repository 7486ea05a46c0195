"""Exception types shared across the package."""


class RingtrainError(Exception):
    """Base class for package-specific failures."""


class CommunicationError(RingtrainError):
    """A peer-to-peer transfer failed (connection, timeout, or protocol)."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class PeerDisconnected(CommunicationError):
    """The remote side closed or dropped the connection mid-message."""


class RecvTimeout(CommunicationError):
    """A message did not arrive, or the peer did not take ours, within the timeout."""


class TagMismatch(CommunicationError):
    """The next frame on a link carried an unexpected tag."""


class ProtocolError(CommunicationError):
    """Peers disagree about the conversation (lengths, ordering, framing)."""


class WireProtocolError(ProtocolError):
    """Malformed frame on the wire (bad magic or truncated header)."""


class LayoutError(RingtrainError):
    """A flat buffer's chunk layout does not partition the data."""


class StaleCacheError(RingtrainError):
    """backward() was called without a matching forward() cache."""


class AssertionFailure(RingtrainError):
    """An experiment's embedded sanity assertion did not hold."""
