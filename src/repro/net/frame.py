"""Checksummed message framing: length + CRC32 per frame.

The simulated channel normally hands payloads to the peer verbatim, which
models a lossless ordered transport.  Under fault injection that is no
longer a safe assumption, so the faulty channel wraps every payload in a
frame that makes corruption *detectable*:

    +----------------+----------------+-----------------+
    | length (4 B BE) | crc32 (4 B BE) | payload (length) |
    +----------------+----------------+-----------------+

Any bit-flip — in the header or the payload — or any truncation fails
either the length check or the CRC and raises
:class:`~repro.exceptions.FrameCorruptionError` at the receiver, turning
silent corruption into a recoverable protocol event.

Framing bytes are deliberately *not* charged to
:class:`~repro.net.metrics.TransferStats`: the 8-byte overhead is a wash
across every compared method, and keeping the accounting identical to the
unframed channel means fault-injected benchmark rows stay directly
comparable to clean ones.
"""

from __future__ import annotations

import struct
import zlib

from repro.exceptions import FrameCorruptionError

_HEADER = struct.Struct(">II")

#: Bytes of framing overhead prepended to every payload.
FRAME_OVERHEAD = _HEADER.size


def encode_frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length + CRC32 header."""
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(frame: bytes) -> bytes:
    """Unwrap one frame, raising :class:`FrameCorruptionError` if mangled."""
    if len(frame) < FRAME_OVERHEAD:
        raise FrameCorruptionError(
            f"frame of {len(frame)} bytes is shorter than the "
            f"{FRAME_OVERHEAD}-byte header"
        )
    length, crc = _HEADER.unpack_from(frame)
    payload = frame[FRAME_OVERHEAD:]
    if length != len(payload):
        raise FrameCorruptionError(
            f"frame announces {length} payload bytes but carries "
            f"{len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise FrameCorruptionError("frame payload fails its CRC32 check")
    return payload
