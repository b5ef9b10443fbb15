"""The asyncio match server: framed protocol in, micro-batched engine out.

One :class:`MatchServer` listens on TCP or a unix socket, decodes frames
(:mod:`repro.serve.protocol`), resolves applications through the LRU state
layer (:mod:`repro.serve.state`), and funnels every match request through
the micro-batcher (:mod:`repro.serve.batcher`): a request for an idle app
runs at once, and requests that arrive while its batch executes share the
next batch's executor hop.

Connections are handled concurrently and each frame spawns its own task,
so a single connection may pipeline many requests; replies are serialized
per connection by a write lock and correlated by request id.  Every error
a client can trigger — malformed frame, unknown app, expired deadline,
admission rejection — comes back as a typed error frame; only a broken
*preamble* (the stream can no longer be re-synchronized) closes the
connection, and even then an error frame is sent first.

The server keeps live counters and ``repro.stats`` spans (queue wait,
batch execution, reply encoding) and exports them as a versioned document
validated by :func:`repro.stats.validate_serve_stats`; clients fetch it
with a ``stats`` frame.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..experiments.config import ExperimentConfig
from ..stats.recorder import StageTimer
from ..stats.schema import SERVE_SCHEMA_VERSION, validate_serve_stats
from . import protocol
from .aio import read_frame
from .batcher import BatchPolicy, MicroBatcher
from .protocol import ErrorCode, ProtocolError
from .state import ServeState

__all__ = ["ServerOptions", "MatchServer", "run_server"]

#: Reports above this count per reply are truncated unless the request
#: asks for more (`max_reports` header field).
DEFAULT_MAX_REPORTS = 4096


@dataclass(frozen=True)
class ServerOptions:
    """Listening address and serving policy for one :class:`MatchServer`."""

    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_path: Optional[str] = None
    max_batch: int = 64
    max_queue_depth: int = 1024
    workers: int = 2
    max_apps: int = 8
    warmup: bool = True
    allow_shutdown: bool = True
    #: Batch engine: "bitpacked" (default), "dfa"/"lazydfa" (forced where
    #: feasible), or "auto" (per-app cost advisory) — DESIGN.md §13.
    backend: str = "bitpacked"
    #: Serve SPAP-R-reduced networks (DESIGN.md §15); replies carry
    #: original state ids via the reduction's lifting table.
    reduce: bool = False

    def policy(self) -> BatchPolicy:
        return BatchPolicy(max_batch=self.max_batch,
                           max_queue_depth=self.max_queue_depth)


class MatchServer:
    """A long-running micro-batching match service."""

    def __init__(self, config: Optional[ExperimentConfig] = None,
                 options: Optional[ServerOptions] = None, *,
                 apps: Optional[list] = None) -> None:
        self.options = options or ServerOptions()
        self.timer = StageTimer()
        self.state = ServeState(config, apps=apps,
                                max_apps=self.options.max_apps,
                                backend=self.options.backend,
                                reduce=self.options.reduce,
                                timer=self.timer)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.options.workers),
            thread_name_prefix="repro-serve",
        )
        self.batcher = MicroBatcher(self.options.policy(),
                                    executor=self._executor, timer=self.timer)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        self._started = time.monotonic()
        # Request counters for the stats document.
        self.requests_received = 0
        self.requests_replied = 0
        self.requests_rejected = 0
        self.errors_by_code: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> str:
        """Bind and start serving; returns the bound address for logging."""
        self._stopping = asyncio.Event()
        if self.options.warmup and self.state.allowed:
            loop = asyncio.get_running_loop()
            with self.timer.stage("startup_warmup"):
                await loop.run_in_executor(self._executor, self.state.warmup)
        if self.options.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.options.unix_path
            )
            return f"unix:{self.options.unix_path}"
        port = self.options.port if self.options.port is not None else 0
        self._server = await asyncio.start_server(
            self._on_connection, host=self.options.host, port=port
        )
        sockets = self._server.sockets or []
        bound = sockets[0].getsockname() if sockets else (self.options.host, port)
        return f"{bound[0]}:{bound[1]}"

    @property
    def bound_port(self) -> Optional[int]:
        """The concrete TCP port after :meth:`start` (None for unix)."""
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
        return name[1] if isinstance(name, tuple) else None

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`stop` is called (or a shutdown frame arrives)."""
        assert self._stopping is not None, "call start() first"
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Request shutdown (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.drain()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True)

    # -- connection handling ----------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutting down: close this connection quietly
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):  # pragma: no cover
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        request_tasks: "set[asyncio.Task[None]]" = set()
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as exc:
                    self._count_error(exc.code)
                    await self._send(writer, write_lock,
                                     protocol.error_frame(exc.code, exc.message,
                                                          exc.request_id))
                    if exc.recoverable:
                        continue
                    break  # stream no longer framed: close after the reply
                except ConnectionResetError:
                    break
                if frame is None:  # clean EOF between frames
                    break
                request_task = asyncio.get_running_loop().create_task(
                    self._handle_frame(frame, writer, write_lock)
                )
                request_tasks.add(request_task)
                request_task.add_done_callback(request_tasks.discard)
        finally:
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)

    async def _send(self, writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    data: bytes) -> None:
        async with lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    # -- request handling --------------------------------------------------------------

    async def _handle_frame(self, frame: protocol.Frame,
                            writer: asyncio.StreamWriter,
                            write_lock: asyncio.Lock) -> None:
        self.requests_received += 1
        began = time.perf_counter()
        try:
            request = protocol.parse_request_header(frame.header)
            if request.type == "ping":
                reply = protocol.control_frame("pong", request.request_id)
            elif request.type == "stats":
                reply = protocol.control_frame("stats_reply", request.request_id,
                                               body=self.stats_document())
            elif request.type == "shutdown":
                reply = await self._handle_shutdown(request.request_id)
            else:
                reply = await self._handle_match(request, frame.payload)
        except ProtocolError as exc:
            self._count_error(exc.code)
            reply = protocol.error_frame(exc.code, exc.message, exc.request_id)
        except Exception as exc:  # never let a request kill the server
            self._count_error(ErrorCode.INTERNAL)
            reply = protocol.error_frame(ErrorCode.INTERNAL, repr(exc))
        else:
            self.requests_replied += 1
        await self._send(writer, write_lock, reply)
        self.timer.record("request", time.perf_counter() - began)

    async def _handle_shutdown(self, request_id: int) -> bytes:
        if not self.options.allow_shutdown:
            raise ProtocolError(ErrorCode.SHUTDOWN_DISABLED,
                                "this server does not accept shutdown frames",
                                request_id=request_id, recoverable=True)
        reply = protocol.control_frame("shutdown_ack", request_id)
        await self.stop()
        return reply

    async def _handle_match(self, request: protocol.ParsedRequest,
                            payload: bytes) -> bytes:
        assert request.app is not None
        deadline: Optional[float] = None
        if request.deadline_ms is not None:
            deadline = time.monotonic() + request.deadline_ms / 1e3
        entry = await self.state.get(request.app, self._executor)
        try:
            batched = await self.batcher.submit(entry, payload,
                                                deadline=deadline)
        except ProtocolError as exc:
            if exc.code == ErrorCode.OVERLOADED:
                self.requests_rejected += 1
            raise ProtocolError(exc.code, exc.message,
                                request_id=request.request_id,
                                recoverable=True) from exc
        entry.requests += 1
        limit = request.max_reports if request.max_reports is not None \
            else DEFAULT_MAX_REPORTS
        reports = batched.result.reports
        truncated = reports.shape[0] > limit
        with self.timer.stage("reply"):
            reply = protocol.reply_frame(
                request.request_id, entry.name,
                n_symbols=batched.result.n_symbols,
                reports=reports[:limit].tolist(),
                truncated=truncated,
                batch_size=batched.batch_size,
                queue_ms=1e3 * batched.queue_seconds,
                exec_ms=1e3 * batched.exec_seconds,
            )
        return reply

    # -- stats ------------------------------------------------------------------------

    def _count_error(self, code: str) -> None:
        self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1

    def stats_document(self) -> Dict[str, Any]:
        """The versioned serve-statistics export (always schema-valid)."""
        expired = self.batcher.expired
        n_errors = sum(self.errors_by_code.values())
        document = {
            "schema_version": SERVE_SCHEMA_VERSION,
            "server": {
                "apps": self.state.allowed if self.state.allowed is not None
                        else self.state.resident(),
                "max_batch": self.options.max_batch,
                "max_queue_depth": self.options.max_queue_depth,
                "workers": self.options.workers,
                "uptime_seconds": time.monotonic() - self._started,
            },
            "requests": {
                "received": self.requests_received,
                "replied": self.requests_replied,
                "errors": n_errors,
                "expired": expired,
                "rejected": self.requests_rejected,
            },
            "errors_by_code": protocol.expand_errors(self.errors_by_code),
            "batches": {
                "dispatched": self.batcher.batches_dispatched,
                "batched_requests": self.batcher.batched_requests,
                "max_size": self.batcher.max_batch_size,
                "mean_size": self.batcher.mean_batch_size(),
            },
            "stages": [span.to_json() for span in self.timer.spans()],
        }
        validate_serve_stats(document)  # never export an invalid document
        return document


async def run_server(config: Optional[ExperimentConfig],
                     options: ServerOptions, *,
                     apps: Optional[list] = None,
                     announce: Optional[Any] = None) -> Tuple[MatchServer, str]:
    """Construct + start a server (helper shared by the CLI and tests)."""
    server = MatchServer(config, options, apps=apps)
    address = await server.start()
    if announce is not None:
        announce(address)
    return server, address
