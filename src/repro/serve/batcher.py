"""Micro-batching: concurrent requests for one network -> one executor batch.

This module turns *traffic* into batches: requests for the same compiled
network that arrive while a batch of it executes are dispatched together
through the entry's selected backend
(:meth:`repro.serve.state.AppEntry.execute_batch` — one walk per stream,
on the NFA engine by default or the table-driven DFA engines when
selected), so a batch pays one executor hop for all of its streams.

Batching policy (DESIGN.md §11) — batches form on completion, never on a
timer:

* **Eager when idle** — a request for an application with no batch in
  flight dispatches at once, alone.  Low-load latency equals scalar
  latency, and a concurrency-1 loadgen run is an honest serial baseline.
* **Next batch on completion** — while a batch of its application
  executes, a request queues.  The batch's completion dispatches the
  queue, FIFO, up to ``max_batch`` requests; the rest wait for that
  batch's completion in turn.
* **Deadlines** — every request may carry one.  Requests already expired
  at dispatch time are dropped from the batch and failed with a typed
  ``DEADLINE_EXCEEDED`` error; they never consume engine cycles.
* **Admission control** — at most ``max_queue_depth`` requests may be
  queued across all applications.  Beyond that, new requests are rejected
  immediately with ``OVERLOADED`` (backpressure, not unbounded growth).

Execution happens in a thread-pool executor so the event loop keeps
accepting traffic while a batch runs; per-batch and per-request timings
are recorded into the server's ``repro.stats`` timer.
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
    """Knobs governing batch size and admission."""

    max_batch: int = 64
    max_queue_depth: int = 1024

    def __post_init__(self) -> None:
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
        self._in_flight: "set[str]" = set()  # apps with a batch executing
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
        self._queues.setdefault(entry.name, deque()).append(pending)
        self._depth += 1
        if entry.name not in self._in_flight:
            self._dispatch(entry.name)
        return await pending.future

    async def drain(self) -> None:
        """Fail queued requests (shutdown)."""
        for queue in self._queues.values():
            while queue:
                pending = queue.popleft()
                self._depth -= 1
                if not pending.future.done():
                    pending.future.set_exception(ProtocolError(
                        ErrorCode.OVERLOADED, "server shutting down",
                        recoverable=True,
                    ))

    # -- dispatch -------------------------------------------------------------------

    def _dispatch(self, name: str) -> None:
        """Start the next batch of an idle app from the head of its queue."""
        queue = self._queues.get(name)
        if not queue:
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
        self._in_flight.add(name)
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
            self._in_flight.discard(name)
            self.batches_dispatched += 1
            self.batched_requests += len(batch)
            self.max_batch_size = max(self.max_batch_size, len(batch))
            # Whatever queued while this batch executed is the next batch.
            self._dispatch(name)
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
