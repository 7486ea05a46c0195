"""Wire format for framed messages.

Every frame is::

    magic  : 4 bytes, 0x52 0x54 0x52 0x4E ("RTRN")
    tag    : unsigned 32-bit, big-endian
    length : unsigned 32-bit, big-endian, payload byte count
    payload: `length` bytes

Float payloads travel as little-endian 32-bit floats regardless of host
endianness; the header stays big-endian. Fixed so independent implementations
can interoperate bit-exactly. A payload is at most ``MAX_PAYLOAD_BYTES``: a
receiver rejects a longer length before it allocates anything.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..errors import WireProtocolError

if TYPE_CHECKING:
    import numpy as np

FRAME_MAGIC = b"RTRN"
_HEADER = struct.Struct(">4sII")
HEADER_SIZE = _HEADER.size
MAX_PAYLOAD_BYTES = 1 << 28   # 256 MiB (64 Mi floats); a longer length is taken as corrupt


def encode_frame(tag: int, payload: bytes | memoryview) -> list[bytes | memoryview]:
    """The frame as ``[header, payload]``, for one gathered send; nothing is copied."""
    if not 0 <= tag < 2 ** 32:
        raise ValueError(f"tag {tag} out of u32 range")
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the "
                         f"{MAX_PAYLOAD_BYTES}-byte bound")
    return [_HEADER.pack(FRAME_MAGIC, tag, len(payload)), payload]


def decode_header(header: bytes) -> tuple[int, int]:
    """Parse a 12-byte header, returning (tag, payload_length)."""
    if len(header) != HEADER_SIZE:
        raise WireProtocolError(f"truncated frame header ({len(header)} bytes)")
    magic, tag, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise WireProtocolError(f"bad frame magic {magic!r}")
    if length > MAX_PAYLOAD_BYTES:
        raise WireProtocolError(
            f"frame length {length} exceeds the {MAX_PAYLOAD_BYTES}-byte bound")
    return tag, length


def floats_to_wire(arr: np.ndarray) -> memoryview:
    """A byte view of ``arr`` as contiguous ``<f4``; copies only to convert or compact."""
    import numpy as np   # here, so that the control plane and the launcher load no numpy
    return memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B")


def wire_to_floats(payload: bytes | bytearray | memoryview) -> np.ndarray:
    if len(payload) % 4:
        raise WireProtocolError(f"float payload length {len(payload)} not a multiple of 4")
    import numpy as np
    return np.frombuffer(payload, dtype="<f4").astype(np.float32, copy=False)
