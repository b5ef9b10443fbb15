"""The grid routing front-end.

One :class:`GridRouter` listens where a single match server used to —
TCP or unix socket, same framed protocol — and forwards each match
request to the worker that owns its application (``repro.grid.shard``).
Clients cannot tell a router from a server: replies, typed errors, ping,
stats, and shutdown all behave identically.

Routing policy per request:

* **admission** — the router bounds its own total in-flight count; past
  it, requests are rejected with ``OVERLOADED`` before touching any
  worker (bounded queues everywhere, so overload degrades p99 by
  rejection, not by unbounded queue growth);
* **spill** — when the primary's in-flight count exceeds the spill
  threshold and the app has a live replica, the request goes to the
  replica instead (load-spill of hot networks, counted per occurrence);
* **failover** — a dead primary (typed
  :class:`~repro.serve.client.ConnectionLostError` from the link) marks
  the worker down and retries the request once on the replica, so
  replicated apps survive a worker kill with zero protocol-level errors.

Statistics are **write-behind**: workers never see a synchronous stats
call on the request path.  A background merge loop snapshots each
worker's own schema-valid v1 document on an interval, and
:meth:`GridRouter.stats_document` folds the latest snapshots with the
router's counters into one v2 document (``grid`` section: per-worker
rates, spills, failovers, merge lag) validated against
:data:`~repro.stats.schema.SERVE_SCHEMA_V2` before export.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..serve import protocol
from ..serve.aio import read_frame
from ..serve.client import AsyncServeClient, ConnectionLostError, ServeRequestError
from ..serve.protocol import ErrorCode, ProtocolError
from ..stats.recorder import StageTimer
from ..stats.schema import GRID_SCHEMA_VERSION, validate_serve_stats
from .shard import ShardMap

__all__ = ["RouterOptions", "WorkerLink", "GridRouter"]


@dataclass(frozen=True)
class RouterOptions:
    """Listening address and routing policy for one :class:`GridRouter`."""

    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_path: Optional[str] = None
    #: Primary in-flight count above which a replicated app spills.
    spill_threshold: int = 32
    #: Router-wide in-flight bound (admission control).
    max_inflight: int = 1024
    #: Write-behind merge interval (seconds between worker snapshots).
    merge_interval_s: float = 0.25
    #: How long to keep retrying the initial connect to each worker.
    connect_timeout_s: float = 30.0
    allow_shutdown: bool = True


@dataclass
class WorkerLink:
    """The router's view of one worker: connection, load, last snapshot."""

    worker_id: int
    unix_path: str
    client: Optional[AsyncServeClient] = None
    up: bool = False
    inflight: int = 0
    forwarded: int = 0
    #: Latest write-behind stats snapshot (the worker's own v1 document).
    snapshot: Optional[Dict[str, Any]] = field(default=None, repr=False)

    async def connect(self, retry_for: float) -> None:
        self.client = await AsyncServeClient.open(
            unix_path=self.unix_path, retry_for=retry_for
        )
        self.up = True

    def mark_down(self) -> None:
        self.up = False

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
            self.client = None
        self.up = False


class GridRouter:
    """Protocol-transparent request router over a worker pool."""

    def __init__(self, shard_map: ShardMap, worker_paths: Dict[int, str],
                 options: Optional[RouterOptions] = None) -> None:
        self.options = options or RouterOptions()
        self.shard_map = shard_map
        self.links: Dict[int, WorkerLink] = {
            worker_id: WorkerLink(worker_id=worker_id, unix_path=path)
            for worker_id, path in sorted(worker_paths.items())
        }
        self.timer = StageTimer()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._closed = False
        self._merge_task: Optional[asyncio.Task] = None
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        self._started = time.monotonic()
        self._inflight = 0
        # Router-side counters for the merged document's request section.
        self.requests_received = 0
        self.requests_replied = 0
        self.requests_rejected = 0
        self.errors_by_code: Dict[str, int] = {}
        self.spills = 0
        self.failovers = 0
        self.merges = 0
        self._last_merge: Optional[float] = None

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> str:
        """Connect to every worker, then bind; returns the bound address."""
        self._stopping = asyncio.Event()
        self._started = time.monotonic()
        await asyncio.gather(*(
            link.connect(self.options.connect_timeout_s)
            for link in self.links.values()
        ))
        await self._merge_once()  # first snapshot before traffic arrives
        self._merge_task = asyncio.get_running_loop().create_task(
            self._merge_loop()
        )
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
        if self._server is None or not self._server.sockets:
            return None
        name = self._server.sockets[0].getsockname()
        return name[1] if isinstance(name, tuple) else None

    async def serve_until_stopped(self) -> None:
        assert self._stopping is not None, "call start() first"
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._closed:  # idempotent: serve loop and Grid.stop both call it
            return
        self._closed = True
        if self._merge_task is not None:
            self._merge_task.cancel()
            try:
                await self._merge_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        for link in self.links.values():
            await link.close()

    async def shutdown_workers(self) -> None:
        """Fan a shutdown frame out to every live worker."""
        for link in self.links.values():
            if link.up and link.client is not None:
                try:
                    await link.client.shutdown()
                except (ServeRequestError, ConnectionError, ProtocolError):
                    pass  # already dying or shutdown-disabled: not our problem
                link.mark_down()

    # -- connection handling -------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass
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
                    break
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    break
                if frame is None:
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

    # -- request handling ----------------------------------------------------------

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
                reply = await self._route_match(request, frame.payload)
        except ProtocolError as exc:
            self._count_error(exc.code)
            reply = protocol.error_frame(exc.code, exc.message, exc.request_id)
        except Exception as exc:  # never let a request kill the router
            self._count_error(ErrorCode.INTERNAL)
            reply = protocol.error_frame(ErrorCode.INTERNAL, repr(exc))
        else:
            self.requests_replied += 1
        await self._send(writer, write_lock, reply)
        self.timer.record("route", time.perf_counter() - began)

    async def _handle_shutdown(self, request_id: int) -> bytes:
        if not self.options.allow_shutdown:
            raise ProtocolError(ErrorCode.SHUTDOWN_DISABLED,
                                "this router does not accept shutdown frames",
                                request_id=request_id, recoverable=True)
        reply = protocol.control_frame("shutdown_ack", request_id)
        await self.shutdown_workers()
        await self.stop()
        return reply

    # -- routing -------------------------------------------------------------------

    def _pick_target(self, app: str) -> WorkerLink:
        """Primary unless down or spilling; typed errors when nobody can serve."""
        try:
            assignment = self.shard_map.owner(app)
        except KeyError:
            raise ProtocolError(
                ErrorCode.UNKNOWN_APP,
                f"application {app!r} is not served by this grid",
                recoverable=True,
            ) from None
        primary = self.links[assignment.primary]
        replica = (self.links[assignment.replica]
                   if assignment.replica is not None else None)
        if primary.up:
            spilling = (replica is not None and replica.up
                        and primary.inflight > self.options.spill_threshold
                        and replica.inflight < primary.inflight)
            if spilling:
                self.spills += 1
                return replica  # type: ignore[return-value]
            return primary
        if replica is not None and replica.up:
            return replica
        raise ProtocolError(
            ErrorCode.OVERLOADED,
            f"no live worker for application {app!r} "
            f"(primary {assignment.primary} and replica are down)",
            recoverable=True,
        )

    def _failover_target(self, app: str, failed: WorkerLink) -> Optional[WorkerLink]:
        assignment = self.shard_map.owner(app)
        for worker_id in (assignment.primary, assignment.replica):
            if worker_id is None or worker_id == failed.worker_id:
                continue
            link = self.links[worker_id]
            if link.up:
                return link
        return None

    async def _forward(self, link: WorkerLink,
                       request: protocol.ParsedRequest,
                       payload: bytes) -> bytes:
        assert request.app is not None and link.client is not None
        link.inflight += 1
        self._inflight += 1
        try:
            outcome = await link.client.match(
                request.app, payload,
                deadline_ms=request.deadline_ms,
                max_reports=request.max_reports,
            )
        finally:
            link.inflight -= 1
            self._inflight -= 1
        link.forwarded += 1
        with self.timer.stage("reply"):
            return protocol.reply_frame(
                request.request_id, outcome.app,
                n_symbols=outcome.n_symbols,
                reports=outcome.reports,
                truncated=outcome.reports_truncated,
                batch_size=outcome.batch_size,
                queue_ms=outcome.queue_ms,
                exec_ms=outcome.exec_ms,
            )

    async def _route_match(self, request: protocol.ParsedRequest,
                           payload: bytes) -> bytes:
        assert request.app is not None
        if self._inflight >= self.options.max_inflight:
            self.requests_rejected += 1
            raise ProtocolError(
                ErrorCode.OVERLOADED,
                f"router at max in-flight ({self.options.max_inflight})",
                request_id=request.request_id, recoverable=True,
            )
        target = self._pick_target(request.app)
        try:
            return await self._forward(target, request, payload)
        except ServeRequestError as exc:
            # The worker spoke: propagate its typed verdict untouched.
            if exc.code == ErrorCode.OVERLOADED:
                self.requests_rejected += 1
            raise ProtocolError(exc.code, exc.message,
                                request_id=request.request_id,
                                recoverable=True) from exc
        except (ConnectionLostError, ConnectionError, OSError) as exc:
            # The worker died mid-request (typed by the client bugfix).
            target.mark_down()
            self.failovers += 1
            fallback = self._failover_target(request.app, target)
            if fallback is None:
                raise ProtocolError(
                    ErrorCode.OVERLOADED,
                    f"worker {target.worker_id} died and application "
                    f"{request.app!r} has no live replica",
                    request_id=request.request_id, recoverable=True,
                ) from exc
            try:
                return await self._forward(fallback, request, payload)
            except ServeRequestError as retry_exc:
                if retry_exc.code == ErrorCode.OVERLOADED:
                    self.requests_rejected += 1
                raise ProtocolError(retry_exc.code, retry_exc.message,
                                    request_id=request.request_id,
                                    recoverable=True) from retry_exc
            except (ConnectionLostError, ConnectionError, OSError) as retry_exc:
                fallback.mark_down()
                raise ProtocolError(
                    ErrorCode.OVERLOADED,
                    f"both workers for application {request.app!r} are down",
                    request_id=request.request_id, recoverable=True,
                ) from retry_exc

    # -- write-behind stats --------------------------------------------------------

    async def _merge_loop(self) -> None:
        while True:
            await asyncio.sleep(self.options.merge_interval_s)
            try:
                await self._merge_once()
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - snapshot must never kill us
                pass

    async def _merge_once(self) -> None:
        """Snapshot every live worker's stats document (off the hot path)."""
        for link in self.links.values():
            if not link.up:
                # One cheap reconnect attempt per merge tick: a restarted
                # worker rejoins the pool without a router restart.
                await link.close()
                try:
                    await link.connect(retry_for=0.0)
                except (ConnectionError, FileNotFoundError, OSError):
                    continue
            if link.client is None or not link.client.connected:
                link.mark_down()
                continue
            try:
                with self.timer.stage("stats_merge"):
                    link.snapshot = await link.client.stats()
            except (ServeRequestError, ConnectionError, ProtocolError):
                link.mark_down()
        self.merges += 1
        self._last_merge = time.monotonic()

    def _count_error(self, code: str) -> None:
        self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1

    def stats_document(self) -> Dict[str, Any]:
        """The merged, versioned grid statistics export (always schema-valid)."""
        snapshots = {
            link.worker_id: link.snapshot
            for link in self.links.values() if link.snapshot is not None
        }

        def summed(section: str, key: str) -> int:
            return sum(
                int(doc[section][key]) for doc in snapshots.values()
            )

        worker_rows: List[Dict[str, Any]] = []
        for link in self.links.values():
            doc = link.snapshot
            received = int(doc["requests"]["received"]) if doc else 0
            replied = int(doc["requests"]["replied"]) if doc else 0
            errors = int(doc["requests"]["errors"]) if doc else 0
            uptime = float(doc["server"]["uptime_seconds"]) if doc else 0.0
            worker_rows.append({
                "worker": link.worker_id,
                "up": link.up,
                "apps": sorted(self.shard_map.apps_for(link.worker_id)),
                "forwarded": link.forwarded,
                "received": received,
                "replied": replied,
                "errors": errors,
                "rps": (replied / uptime) if uptime > 0 else 0.0,
            })
        batch_docs = [doc["batches"] for doc in snapshots.values()]
        dispatched = sum(int(b["dispatched"]) for b in batch_docs)
        batched_requests = sum(int(b["batched_requests"]) for b in batch_docs)
        now = time.monotonic()
        document = {
            "schema_version": GRID_SCHEMA_VERSION,
            "server": {
                "apps": sorted(self.shard_map.assignments),
                "max_batch": 0,  # batching happens in the workers
                "max_queue_depth": self.options.max_inflight,
                "workers": len(self.links),
                "uptime_seconds": now - self._started,
            },
            "requests": {
                "received": self.requests_received,
                "replied": self.requests_replied,
                "errors": sum(self.errors_by_code.values()),
                "expired": summed("requests", "expired"),
                "rejected": self.requests_rejected,
            },
            "errors_by_code": protocol.expand_errors(self.errors_by_code),
            "batches": {
                "dispatched": dispatched,
                "batched_requests": batched_requests,
                "max_size": max(
                    (int(b["max_size"]) for b in batch_docs), default=0
                ),
                "mean_size": (batched_requests / dispatched) if dispatched else 0.0,
            },
            "stages": [span.to_json() for span in self.timer.spans()],
            "grid": {
                "n_workers": len(self.links),
                "merges": self.merges,
                "merge_lag_ms": (
                    1e3 * (now - self._last_merge)
                    if self._last_merge is not None else None
                ),
                "spills": self.spills,
                "failovers": self.failovers,
                "workers_down": sum(
                    1 for link in self.links.values() if not link.up
                ),
                "workers": worker_rows,
            },
        }
        validate_serve_stats(document)  # never export an invalid document
        return document
