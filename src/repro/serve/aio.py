"""Shared asyncio framing helpers for the match protocol.

The server, the client, the grid router, and tests all read the same
framed stream off an :class:`asyncio.StreamReader`; this module holds the
one implementation.  Semantics: a clean EOF *between* frames returns
``None``, EOF *inside* a frame raises a non-recoverable
:class:`~repro.serve.protocol.ProtocolError` (the stream cannot be
re-synchronized), and malformed preambles/headers raise the typed
errors of :mod:`repro.serve.protocol`.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from . import protocol
from .protocol import ErrorCode, ProtocolError

__all__ = ["read_frame"]


async def read_frame(reader: asyncio.StreamReader) -> Optional[protocol.Frame]:
    """Read one frame, or ``None`` on clean EOF at a frame boundary.

    The frame is built from the parts as read: the preamble is parsed
    once and the header and payload are not copied again.
    """
    try:
        preamble = await reader.readexactly(protocol.PREAMBLE_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            ErrorCode.BAD_FRAME,
            f"connection closed mid-preamble ({len(exc.partial)} bytes)",
        ) from exc
    header_len, payload_len = protocol.decode_preamble(preamble)
    try:
        header_bytes = await reader.readexactly(header_len)
        payload = await reader.readexactly(payload_len)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            ErrorCode.BAD_FRAME, "connection closed mid-frame"
        ) from exc
    return protocol.Frame(header=protocol.decode_header(header_bytes),
                          payload=payload)
