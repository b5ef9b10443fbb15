"""Asyncio client for the match service.

:class:`AsyncServeClient` speaks the framed protocol of
:mod:`repro.serve.protocol` over TCP or a unix socket.  A background
reader task demultiplexes replies by request id, so one connection can
carry many requests in flight — which is exactly what lets the server's
micro-batcher coalesce them.

Typed error frames surface as :class:`ServeRequestError` carrying the
server's error code (``DEADLINE_EXCEEDED``, ``OVERLOADED``, ...); wire or
framing failures surface as :class:`ProtocolError` / ``ConnectionError``.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import protocol
from .aio import read_frame
from .protocol import ProtocolError

__all__ = ["MatchOutcome", "ServeRequestError", "ConnectionLostError",
           "AsyncServeClient", "connect"]


class ServeRequestError(Exception):
    """The server replied with a typed error frame."""

    def __init__(self, code: str, message: str,
                 request_id: Optional[int] = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.request_id = request_id


class ConnectionLostError(ConnectionError):
    """The server connection died with requests outstanding.

    Raised on every pending *and every subsequent* request once the read
    loop observes EOF or a wire failure — callers never hang on a future
    whose reply can no longer arrive.  The grid router catches exactly
    this type to trigger worker failover (DESIGN.md §16); catching the
    broader ``ConnectionError`` still works for callers that do not care
    why the connection went away.
    """


@dataclass(frozen=True)
class MatchOutcome:
    """One successful match reply, decoded."""

    app: str
    n_symbols: int
    reports: List[Tuple[int, int]]
    reports_truncated: bool
    batch_size: int
    queue_ms: float
    exec_ms: float
    latency_s: float  # client-side round trip


@dataclass
class _Pending:
    future: "asyncio.Future[protocol.Frame]" = field(repr=False)
    sent_at: float = 0.0


class AsyncServeClient:
    """A pipelined connection to one match server."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, _Pending] = {}
        self._next_id = 0
        self._closed = False
        #: Set once the read loop dies; every later request fails with it
        #: immediately instead of waiting on a reply that cannot come.
        self._conn_lost: Optional[Exception] = None
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())

    # -- connection management ---------------------------------------------------------

    @classmethod
    async def open(cls, *, host: str = "127.0.0.1", port: Optional[int] = None,
                   unix_path: Optional[str] = None,
                   retry_for: float = 0.0) -> "AsyncServeClient":
        """Connect over TCP or unix socket, retrying up to ``retry_for``
        seconds (covers a server still compiling its apps at startup)."""
        deadline = time.monotonic() + retry_for
        while True:
            try:
                if unix_path is not None:
                    reader, writer = await asyncio.open_unix_connection(unix_path)
                else:
                    if port is None:
                        raise ValueError("need either a port or a unix path")
                    reader, writer = await asyncio.open_connection(host, port)
                return cls(reader, writer)
            except (ConnectionError, FileNotFoundError, OSError):
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(0.1)

    @property
    def connected(self) -> bool:
        """False once the connection is closed or the read loop has died."""
        return not self._closed and self._conn_lost is None

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._connection_lost(ConnectionLostError(
            "client closed with requests in flight"))
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- requests ----------------------------------------------------------------------

    async def match(self, app: str, payload: bytes, *,
                    deadline_ms: Optional[float] = None,
                    max_reports: Optional[int] = None) -> MatchOutcome:
        """Run ``payload`` through ``app`` on the server; decoded reply."""
        request_id = self._allocate_id()
        frame_bytes = protocol.request_frame(request_id, app, payload,
                                             deadline_ms=deadline_ms,
                                             max_reports=max_reports)
        sent_at = time.perf_counter()
        header = await self._roundtrip(request_id, frame_bytes)
        latency = time.perf_counter() - sent_at
        if header.get("type") != "reply":
            raise ProtocolError(protocol.ErrorCode.BAD_HEADER,
                                f"unexpected reply type {header.get('type')!r}")
        return MatchOutcome(
            app=str(header.get("app")),
            n_symbols=int(header.get("n_symbols", 0)),
            reports=[(int(p), int(s)) for p, s in header.get("reports", [])],
            reports_truncated=bool(header.get("reports_truncated", False)),
            batch_size=int(header.get("batch_size", 1)),
            queue_ms=float(header.get("queue_ms", 0.0)),
            exec_ms=float(header.get("exec_ms", 0.0)),
            latency_s=latency,
        )

    async def ping(self) -> float:
        """Round-trip one ping; returns the latency in seconds."""
        request_id = self._allocate_id()
        began = time.perf_counter()
        header = await self._roundtrip(
            request_id, protocol.control_frame("ping", request_id)
        )
        if header.get("type") != "pong":
            raise ProtocolError(protocol.ErrorCode.BAD_HEADER,
                                f"unexpected ping reply {header.get('type')!r}")
        return time.perf_counter() - began

    async def stats(self) -> Dict[str, Any]:
        """Fetch the server's versioned statistics document."""
        request_id = self._allocate_id()
        header = await self._roundtrip(
            request_id, protocol.control_frame("stats", request_id)
        )
        body = header.get("body")
        if header.get("type") != "stats_reply" or not isinstance(body, dict):
            raise ProtocolError(protocol.ErrorCode.BAD_HEADER,
                                "malformed stats reply")
        return body

    async def shutdown(self) -> None:
        """Ask the server to stop (acknowledged before it goes down)."""
        request_id = self._allocate_id()
        header = await self._roundtrip(
            request_id, protocol.control_frame("shutdown", request_id)
        )
        if header.get("type") != "shutdown_ack":
            raise ProtocolError(protocol.ErrorCode.BAD_HEADER,
                                f"unexpected shutdown reply {header.get('type')!r}")

    # -- plumbing ----------------------------------------------------------------------

    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id

    async def _roundtrip(self, request_id: int,
                         frame_bytes: bytes) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionError("client is closed")
        if self._conn_lost is not None:
            # The read loop is dead: a reply can never arrive, so fail the
            # caller now with the same typed error the in-flight requests got.
            raise ConnectionLostError(str(self._conn_lost)) from self._conn_lost
        loop = asyncio.get_running_loop()
        pending = _Pending(future=loop.create_future(),
                           sent_at=time.perf_counter())
        self._pending[request_id] = pending
        try:
            self._writer.write(frame_bytes)
            await self._writer.drain()
            frame = await pending.future
        finally:
            self._pending.pop(request_id, None)
        header = frame.header
        if header.get("type") == "error":
            raise ServeRequestError(str(header.get("code")),
                                    str(header.get("message")),
                                    header.get("id"))
        return header

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                raw_id = frame.header.get("id")
                pending = self._pending.get(raw_id) if isinstance(raw_id, int) else None
                if pending is not None and not pending.future.done():
                    pending.future.set_result(frame)
                elif raw_id is None and frame.header.get("type") == "error":
                    # Connection-level error: fail everything in flight.
                    # The stream may still be alive (recoverable errors keep
                    # it framed), so this does NOT terminal-state the client.
                    self._fail_all(ServeRequestError(
                        str(frame.header.get("code")),
                        str(frame.header.get("message")),
                    ))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._connection_lost(ConnectionLostError(
                f"connection to server lost: {exc!r}"))
        else:
            self._connection_lost(
                ConnectionLostError("server closed the connection"))

    def _fail_all(self, exc: Exception) -> None:
        """Fail every pending future with ``exc`` (connection still usable)."""
        for pending in self._pending.values():
            if not pending.future.done():
                pending.future.set_exception(exc)

    def _connection_lost(self, exc: Exception) -> None:
        """Terminal-state the client: fail everything pending with ``exc``
        and remember it so every later request fails immediately too."""
        if self._conn_lost is None:
            self._conn_lost = exc
        self._fail_all(self._conn_lost)


async def connect(*, host: str = "127.0.0.1", port: Optional[int] = None,
                  unix_path: Optional[str] = None,
                  retry_for: float = 0.0) -> AsyncServeClient:
    """Shorthand for :meth:`AsyncServeClient.open`."""
    return await AsyncServeClient.open(host=host, port=port,
                                       unix_path=unix_path,
                                       retry_for=retry_for)
