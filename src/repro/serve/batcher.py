"""Micro-batching coalescer: concurrent requests -> one executor batch.

This module turns *traffic* into batches: requests for the same compiled
network are held for at most a configurable window, then dispatched
together through the entry's selected backend
(:meth:`repro.serve.state.AppEntry.execute_batch` — one walk per stream,
on the NFA engine by default or the table-driven DFA engines when
selected), so a batch pays one executor hop for all of its streams.

Batching policy (DESIGN.md §11):

* **Eager when idle** — a request arriving at an empty queue with no batch
  of its application in flight dispatches immediately.  A lone client
  never pays the coalescing window, so low-load latency equals scalar
  latency and a concurrency-1 loadgen run is an honest serial baseline.
* **Window otherwise** — while a batch is executing, arrivals queue; the
  queue flushes when the executing batch finishes, when it reaches
  ``max_batch``, or at the latest ``window_s`` after its first member
  arrived, whichever is first.
* **Deadlines** — every request may carry one.  Requests already expired
  at dispatch time are dropped from the batch and failed with a typed
  ``DEADLINE_EXCEEDED`` error; they never consume engine cycles.
* **Admission control** — at most ``max_queue_depth`` requests may be
  queued across all applications.  Beyond that, new requests are rejected
  immediately with ``OVERLOADED`` (backpressure, not unbounded growth).

Execution happens in a thread-pool executor so the event loop keeps
accepting and coalescing traffic while a batch runs; per-batch and
per-request timings are recorded into the server's ``repro.stats`` timer.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from ..sim.result import SimResult
from ..stats.recorder import StageTimer
from .protocol import ErrorCode, ProtocolError
from .state import AppEntry

__all__ = ["BatchPolicy", "BatchedResult", "MicroBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs governing coalescing and admission."""

    window_s: float = 0.002
    max_batch: int = 64
    max_queue_depth: int = 1024

    def __post_init__(self) -> None:
        if self.window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {self.window_s}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class BatchedResult:
    """One request's simulation result plus its batch provenance."""

    result: SimResult
    batch_size: int
    queue_seconds: float  # enqueue until an executor thread starts the batch
    exec_seconds: float  # the batch's run in that thread


@dataclass
class _Pending:
    """One queued request awaiting dispatch."""

    entry: AppEntry
    symbols: bytes
    deadline: Optional[float]  # absolute, time.monotonic() clock
    enqueued: float
    future: "asyncio.Future[BatchedResult]" = field(  # type: ignore[assignment]
        repr=False, default=None)


class MicroBatcher:
    """Per-application request queues dispatching executor batches."""

    def __init__(self, policy: Optional[BatchPolicy] = None, *,
                 executor: Optional[concurrent.futures.Executor] = None,
                 timer: Optional[StageTimer] = None) -> None:
        self.policy = policy or BatchPolicy()
        self.timer = timer if timer is not None else StageTimer()
        self._executor = executor
        self._queues: Dict[str, Deque[_Pending]] = {}
        self._flush_handles: Dict[str, asyncio.TimerHandle] = {}
        self._in_flight: Dict[str, bool] = {}
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._depth = 0
        # Counters for the serve stats document.
        self.batches_dispatched = 0
        self.batched_requests = 0
        self.max_batch_size = 0
        self.expired = 0

    # -- public API ----------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (admission-control variable)."""
        return self._depth

    def mean_batch_size(self) -> float:
        if not self.batches_dispatched:
            return 0.0
        return self.batched_requests / self.batches_dispatched

    async def submit(self, entry: AppEntry, symbols: bytes, *,
                     deadline: Optional[float] = None) -> BatchedResult:
        """Queue one request and await its batched result.

        Raises :class:`ProtocolError` with ``OVERLOADED`` when the global
        queue is full and ``DEADLINE_EXCEEDED`` when the request expired
        before its batch dispatched.
        """
        if self._depth >= self.policy.max_queue_depth:
            raise ProtocolError(
                ErrorCode.OVERLOADED,
                f"queue depth {self._depth} at limit "
                f"{self.policy.max_queue_depth}; retry later",
                recoverable=True,
            )
        loop = asyncio.get_running_loop()
        pending = _Pending(entry=entry, symbols=symbols, deadline=deadline,
                           enqueued=time.monotonic())
        pending.future = loop.create_future()
        queue = self._queues.setdefault(entry.name, deque())
        queue.append(pending)
        self._depth += 1
        self._schedule(entry.name, loop)
        return await pending.future

    async def drain(self) -> None:
        """Cancel scheduled flushes and fail queued requests (shutdown)."""
        for handle in self._flush_handles.values():
            handle.cancel()
        self._flush_handles.clear()
        for name, queue in self._queues.items():
            while queue:
                pending = queue.popleft()
                self._depth -= 1
                if not pending.future.done():
                    pending.future.set_exception(ProtocolError(
                        ErrorCode.OVERLOADED, "server shutting down",
                        recoverable=True,
                    ))

    # -- scheduling ----------------------------------------------------------------

    def _schedule(self, name: str, loop: asyncio.AbstractEventLoop) -> None:
        queue = self._queues[name]
        if not queue:
            return
        if len(queue) >= self.policy.max_batch:
            self._flush_now(name)
            return
        if not self._in_flight.get(name) and len(queue) == 1:
            # Eager when idle: nothing executing, nothing else coalescing.
            self._flush_now(name)
            return
        if name not in self._flush_handles:
            self._flush_handles[name] = loop.call_later(
                self.policy.window_s, self._flush_timer, name
            )

    def _flush_timer(self, name: str) -> None:
        self._flush_handles.pop(name, None)
        self._flush_now(name)

    def _flush_now(self, name: str) -> None:
        handle = self._flush_handles.pop(name, None)
        if handle is not None:
            handle.cancel()
        queue = self._queues.get(name)
        if not queue:
            return
        if self._in_flight.get(name):
            # The running batch's completion callback reschedules us.
            return
        now = time.monotonic()
        batch: List[_Pending] = []
        while queue and len(batch) < self.policy.max_batch:
            pending = queue.popleft()
            self._depth -= 1
            if pending.future.done():  # client vanished mid-queue
                continue
            if pending.deadline is not None and now >= pending.deadline:
                self.expired += 1
                pending.future.set_exception(ProtocolError(
                    ErrorCode.DEADLINE_EXCEEDED,
                    f"deadline passed {1e3 * (now - pending.deadline):.1f}ms "
                    "before dispatch",
                    recoverable=True,
                ))
                continue
            batch.append(pending)
        if not batch:
            return
        self._in_flight[name] = True
        loop = asyncio.get_running_loop()
        task = loop.create_task(self._execute(name, batch))
        # Keep a strong reference so the task is not collected mid-flight.
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _execute(self, name: str, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        streams = [pending.symbols for pending in batch]
        entry = batch[0].entry

        def run_batch() -> Tuple[float, float, List[SimResult]]:
            # Timed inside the executor thread: the wait for a free thread
            # is queueing, not execution.
            began = time.monotonic()
            try:
                results = entry.execute_batch(streams)
            finally:
                ended = time.monotonic()
                self.timer.record("execute", ended - began)
            return began, ended, results

        try:
            began, ended, results = await loop.run_in_executor(
                self._executor, run_batch
            )
        except Exception as exc:
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(ProtocolError(
                        ErrorCode.INTERNAL, f"batch execution failed: {exc}",
                        recoverable=True,
                    ))
            return
        finally:
            self._in_flight[name] = False
            self.batches_dispatched += 1
            self.batched_requests += len(batch)
            self.max_batch_size = max(self.max_batch_size, len(batch))
            # Whatever queued while we executed flushes immediately — its
            # members already waited at least one batch-execution window.
            self._flush_now(name)
        exec_seconds = ended - began
        for pending, result in zip(batch, results):
            queue_seconds = began - pending.enqueued
            self.timer.record("queue", queue_seconds)
            if not pending.future.done():
                pending.future.set_result(BatchedResult(
                    result=result,
                    batch_size=len(batch),
                    queue_seconds=queue_seconds,
                    exec_seconds=exec_seconds,
                ))
