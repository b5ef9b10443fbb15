"""Framed wire protocol for the match service (sans-IO).

A frame is a fixed 12-byte preamble followed by a JSON header and a raw
payload::

    offset  size  field
    0       2     magic  b"RS"
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     reserved, must be 0
    4       4     header length  (u32, big-endian)
    8       4     payload length (u32, big-endian)
    12      H     header: UTF-8 JSON object
    12+H    P     payload: raw bytes (the input stream for match requests)

The header carries everything structured — request/reply type, request id,
application name, deadline — while the input symbols travel as raw bytes
so a 1 MB stream is never JSON-escaped.  Both lengths are bounded
(:data:`MAX_HEADER_BYTES`, :data:`MAX_PAYLOAD_BYTES`): a frame claiming
more is rejected *before* any allocation, so a hostile length field cannot
balloon server memory.

Everything in this module is sans-IO: :func:`encode_frame` returns bytes,
:func:`decode_frame` consumes a buffer prefix (returning ``None`` while the
frame is incomplete), and the asyncio server/client wrap them around their
streams.  Malformed input raises :class:`ProtocolError` carrying one of the
typed :class:`ErrorCode` values; the server converts that into an error
frame (:func:`error_frame`) so clients always see a structured reply,
never a dropped connection with no explanation.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "PREAMBLE_SIZE",
    "MAX_HEADER_BYTES",
    "MAX_PAYLOAD_BYTES",
    "ErrorCode",
    "ProtocolError",
    "Frame",
    "encode_frame",
    "decode_frame",
    "decode_preamble",
    "decode_header",
    "request_frame",
    "reply_frame",
    "error_frame",
    "control_frame",
    "parse_request_header",
    "ParsedRequest",
    "expand_errors",
]

MAGIC = b"RS"
PROTOCOL_VERSION = 1
_PREAMBLE = struct.Struct(">2sBxII")
PREAMBLE_SIZE = _PREAMBLE.size  # 12 bytes

#: Upper bounds enforced before any allocation happens.
MAX_HEADER_BYTES = 64 * 1024
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024

#: Header ``type`` values a client may send.
REQUEST_TYPES = ("match", "ping", "stats", "shutdown")


class ErrorCode:
    """Typed error codes carried by error frames (stable strings)."""

    BAD_FRAME = "BAD_FRAME"  # preamble unparseable: magic/reserved wrong
    UNSUPPORTED_VERSION = "UNSUPPORTED_VERSION"
    FRAME_TOO_LARGE = "FRAME_TOO_LARGE"  # header or payload length over bound
    BAD_HEADER = "BAD_HEADER"  # header bytes are not a JSON object
    BAD_REQUEST = "BAD_REQUEST"  # header object missing/invalid fields
    UNKNOWN_TYPE = "UNKNOWN_TYPE"
    UNKNOWN_APP = "UNKNOWN_APP"
    DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
    OVERLOADED = "OVERLOADED"  # admission control rejected the request
    SHUTDOWN_DISABLED = "SHUTDOWN_DISABLED"
    INTERNAL = "INTERNAL"

    #: Codes whose cause is a specific request (the reply echoes its id).
    ALL = (
        BAD_FRAME, UNSUPPORTED_VERSION, FRAME_TOO_LARGE, BAD_HEADER,
        BAD_REQUEST, UNKNOWN_TYPE, UNKNOWN_APP, DEADLINE_EXCEEDED,
        OVERLOADED, SHUTDOWN_DISABLED, INTERNAL,
    )


class ProtocolError(Exception):
    """A malformed or unserviceable frame, tagged with a typed error code.

    ``recoverable`` tells the server whether the byte stream is still
    framed after this error: a bad *header object* leaves the stream
    aligned on the next frame, a bad *preamble* does not (the connection
    must close after the error reply).
    """

    def __init__(self, code: str, message: str, *,
                 request_id: Optional[int] = None,
                 recoverable: bool = False) -> None:
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id
        self.recoverable = recoverable


@dataclass(frozen=True)
class Frame:
    """One decoded frame: the parsed JSON header plus the raw payload."""

    header: Dict[str, Any]
    payload: bytes


def encode_frame(header: Dict[str, Any], payload: bytes = b"") -> bytes:
    """Serialize one frame; raises :class:`ProtocolError` on oversize."""
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(header_bytes) > MAX_HEADER_BYTES:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"header is {len(header_bytes)} bytes (max {MAX_HEADER_BYTES})",
        )
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"payload is {len(payload)} bytes (max {MAX_PAYLOAD_BYTES})",
        )
    preamble = _PREAMBLE.pack(MAGIC, PROTOCOL_VERSION,
                              len(header_bytes), len(payload))
    return preamble + header_bytes + bytes(payload)


def decode_preamble(preamble: bytes) -> Tuple[int, int]:
    """Validate a 12-byte preamble; returns ``(header_len, payload_len)``.

    Raises :class:`ProtocolError` (non-recoverable — the stream cannot be
    re-synchronized) on bad magic, version, reserved byte, or a length
    over its bound.
    """
    magic, version, header_len, payload_len = _PREAMBLE.unpack(preamble)
    if magic != MAGIC:
        raise ProtocolError(ErrorCode.BAD_FRAME, f"bad magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED_VERSION,
            f"protocol version {version} (supported: {PROTOCOL_VERSION})",
        )
    if preamble[3] != 0:
        raise ProtocolError(
            ErrorCode.BAD_FRAME, f"reserved byte is {preamble[3]}, expected 0"
        )
    if header_len > MAX_HEADER_BYTES:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"declared header length {header_len} exceeds {MAX_HEADER_BYTES}",
        )
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            ErrorCode.FRAME_TOO_LARGE,
            f"declared payload length {payload_len} exceeds {MAX_PAYLOAD_BYTES}",
        )
    return header_len, payload_len


def decode_header(header_bytes: bytes) -> Dict[str, Any]:
    """Header bytes -> JSON object; recoverable errors (stream stays framed)."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ErrorCode.BAD_HEADER, f"header is not valid JSON: {exc}",
            recoverable=True,
        ) from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            ErrorCode.BAD_HEADER,
            f"header must be a JSON object, got {type(header).__name__}",
            recoverable=True,
        )
    return header


def decode_frame(buffer: bytes) -> Optional[Tuple[Frame, int]]:
    """Decode one frame from the head of ``buffer``.

    Returns ``(frame, bytes_consumed)``, or ``None`` if the buffer does not
    yet hold a complete frame (every prefix of a valid frame is "need
    more", never an error).  Raises :class:`ProtocolError` on malformed
    contents.
    """
    if len(buffer) < PREAMBLE_SIZE:
        return None
    header_len, payload_len = decode_preamble(buffer[:PREAMBLE_SIZE])
    total = PREAMBLE_SIZE + header_len + payload_len
    if len(buffer) < total:
        return None
    header = decode_header(buffer[PREAMBLE_SIZE:PREAMBLE_SIZE + header_len])
    payload = bytes(buffer[PREAMBLE_SIZE + header_len:total])
    return Frame(header=header, payload=payload), total


# -- frame constructors ------------------------------------------------------------


def request_frame(request_id: int, app: str, payload: bytes, *,
                  deadline_ms: Optional[float] = None,
                  max_reports: Optional[int] = None) -> bytes:
    """A ``match`` request: run ``payload`` through application ``app``."""
    header: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": "match",
                              "id": request_id, "app": app}
    if deadline_ms is not None:
        header["deadline_ms"] = deadline_ms
    if max_reports is not None:
        header["max_reports"] = max_reports
    return encode_frame(header, payload)


def reply_frame(request_id: int, app: str, *, n_symbols: int,
                reports: Sequence[Sequence[int]], truncated: bool,
                batch_size: int, queue_ms: float, exec_ms: float) -> bytes:
    """A successful match reply (reports ride in the header as pairs)."""
    return encode_frame({
        "v": PROTOCOL_VERSION,
        "type": "reply",
        "id": request_id,
        "app": app,
        "n_symbols": n_symbols,
        "n_reports": len(reports),
        "reports": [[int(position), int(state)] for position, state in reports],
        "reports_truncated": truncated,
        "batch_size": batch_size,
        "queue_ms": queue_ms,
        "exec_ms": exec_ms,
    })


def error_frame(code: str, message: str,
                request_id: Optional[int] = None) -> bytes:
    """A typed error reply (``id`` is null for connection-level errors)."""
    return encode_frame({
        "v": PROTOCOL_VERSION,
        "type": "error",
        "id": request_id,
        "code": code,
        "message": message,
    })


def control_frame(frame_type: str, request_id: Optional[int] = None,
                  body: Optional[Dict[str, Any]] = None) -> bytes:
    """A payload-less frame: ``ping``/``pong``, ``stats``, ``shutdown``."""
    header: Dict[str, Any] = {"v": PROTOCOL_VERSION, "type": frame_type}
    if request_id is not None:
        header["id"] = request_id
    if body is not None:
        header["body"] = body
    return encode_frame(header)


# -- request-side header validation -------------------------------------------------


@dataclass(frozen=True)
class ParsedRequest:
    """A validated client request header."""

    type: str
    request_id: int
    app: Optional[str]
    deadline_ms: Optional[float]
    max_reports: Optional[int]


def parse_request_header(header: Dict[str, Any]) -> ParsedRequest:
    """Validate a client-side header; raises recoverable ProtocolErrors.

    The request id is extracted *before* any other validation so that even
    a rejected request gets an error reply the client can correlate.
    """
    raw_id = header.get("id")
    is_int_id = isinstance(raw_id, int) and not isinstance(raw_id, bool)
    request_id: Optional[int] = raw_id if is_int_id else None
    frame_type = header.get("type")
    if not isinstance(frame_type, str):
        raise ProtocolError(ErrorCode.BAD_REQUEST, "header lacks a string 'type'",
                            request_id=request_id, recoverable=True)
    if frame_type not in REQUEST_TYPES:
        raise ProtocolError(ErrorCode.UNKNOWN_TYPE,
                            f"unknown request type {frame_type!r} "
                            f"(known: {', '.join(REQUEST_TYPES)})",
                            request_id=request_id, recoverable=True)
    if request_id is None:
        raise ProtocolError(ErrorCode.BAD_REQUEST,
                            "header lacks an integer 'id'", recoverable=True)
    app: Optional[str] = None
    deadline_ms: Optional[float] = None
    max_reports: Optional[int] = None
    if frame_type == "match":
        app = header.get("app")
        if not isinstance(app, str) or not app:
            raise ProtocolError(ErrorCode.BAD_REQUEST,
                                "match request lacks a string 'app'",
                                request_id=request_id, recoverable=True)
        raw_deadline = header.get("deadline_ms")
        if raw_deadline is not None:
            if not isinstance(raw_deadline, (int, float)) or isinstance(raw_deadline, bool):
                raise ProtocolError(ErrorCode.BAD_REQUEST,
                                    "'deadline_ms' must be a number",
                                    request_id=request_id, recoverable=True)
            deadline_ms = float(raw_deadline)
        raw_max = header.get("max_reports")
        if raw_max is not None:
            if not isinstance(raw_max, int) or isinstance(raw_max, bool) or raw_max < 0:
                raise ProtocolError(ErrorCode.BAD_REQUEST,
                                    "'max_reports' must be a non-negative integer",
                                    request_id=request_id, recoverable=True)
            max_reports = raw_max
    return ParsedRequest(type=frame_type, request_id=request_id, app=app,
                         deadline_ms=deadline_ms, max_reports=max_reports)


def expand_errors(counts: Dict[str, int]) -> List[Dict[str, Any]]:
    """``errors_by_code`` rows for the serve stats document, sorted by code."""
    return [{"code": code, "count": counts[code]} for code in sorted(counts)]
