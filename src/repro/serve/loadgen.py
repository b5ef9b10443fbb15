"""Load generator for the match service: ``python -m repro loadgen``.

Drives a running server in either of the two canonical load models:

* **closed loop** — ``concurrency`` workers, each with its own connection,
  each keeping exactly one request in flight (send, await, repeat).
  Throughput is offered-load-limited by the service itself; this is the
  model the serial-vs-batched benchmark uses (concurrency 1 is the serial
  per-request baseline, concurrency K exercises the coalescer).
* **open loop** — requests are fired at a fixed arrival ``rate`` regardless
  of completions, round-robined over ``concurrency`` pipelined
  connections.  Latency under an open loop includes queueing delay, which
  is what a deployment actually observes when traffic does not slow down
  just because the server did.

Per-request latencies are aggregated into p50/p95/p99 plus request
throughput; failures are counted by typed error code rather than aborting
the run, so an overloaded or deadline-constrained sweep reports its
rejection profile instead of dying on the first ``OVERLOADED`` frame.

The overload-sweep extensions (used by ``benchmarks/bench_grid.py``):

* **request classes** — traffic can be split into weighted
  :class:`RequestClass` groups, each with its own deadline; latency
  percentiles and typed rejection counts are kept per class, so a sweep
  can show that interactive traffic keeps its p99 while batch traffic
  absorbs the ``OVERLOADED`` rejections;
* **duration-based open loop** — ``duration_s`` with a ``rate`` fires
  ``rate × duration`` arrivals, the natural knob for an overload sweep
  ("offer 2x capacity for three seconds"), with ``OVERLOADED`` and
  ``DEADLINE_EXCEEDED`` totals surfaced directly on the result.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .client import AsyncServeClient, ServeRequestError
from .protocol import ErrorCode

__all__ = [
    "RequestClass",
    "ClassStats",
    "LoadgenConfig",
    "LoadgenResult",
    "run_loadgen",
    "render_results",
]


@dataclass(frozen=True)
class RequestClass:
    """One weighted traffic class in a mixed workload."""

    name: str
    weight: float = 1.0
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"class {self.name!r} needs a positive weight")


@dataclass
class ClassStats:
    """Per-class latency and rejection accounting."""

    ok: int = 0
    errors: int = 0
    errors_by_code: Dict[str, int] = field(default_factory=dict)
    latencies_ms: List[float] = field(default_factory=list)

    @property
    def overloaded(self) -> int:
        return self.errors_by_code.get(ErrorCode.OVERLOADED, 0)

    @property
    def deadline_exceeded(self) -> int:
        return self.errors_by_code.get(ErrorCode.DEADLINE_EXCEEDED, 0)

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "errors": self.errors,
            "overloaded": self.overloaded,
            "deadline_exceeded": self.deadline_exceeded,
            "latency_ms": {
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
            },
        }


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation round against a running server."""

    apps: List[str]
    requests: int = 64
    concurrency: int = 8
    mode: str = "closed"  # "closed" | "open"
    rate: Optional[float] = None  # open-loop arrivals per second
    #: Open-loop overload mode: offer ``rate`` arrivals/s for this long
    #: (overrides ``requests``; the count becomes rate × duration).
    duration_s: Optional[float] = None
    #: Weighted traffic classes; None = one implicit class using
    #: ``deadline_ms``.  Per-class percentiles land in ``result.classes``.
    classes: Optional[Tuple[RequestClass, ...]] = None
    input_len: int = 1024
    deadline_ms: Optional[float] = None
    max_reports: int = 256
    seed: int = 0
    # connection target
    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_path: Optional[str] = None
    connect_timeout: float = 30.0

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("loadgen needs at least one application")
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.mode == "open" and not self.rate:
            raise ValueError("open-loop mode needs an arrival rate")
        if self.duration_s is not None:
            if self.mode != "open":
                raise ValueError("duration_s only applies to open-loop mode")
            if self.duration_s <= 0:
                raise ValueError("duration_s must be positive")
        if self.classes is not None and not self.classes:
            raise ValueError("classes must be None or non-empty")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")

    def total_requests(self) -> int:
        """The arrival count this round will fire."""
        if self.duration_s is not None and self.rate:
            return max(1, int(math.ceil(self.rate * self.duration_s)))
        return self.requests


@dataclass
class LoadgenResult:
    """Aggregated outcome of one round."""

    config: LoadgenConfig
    ok: int = 0
    errors: int = 0
    errors_by_code: Dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    #: Per-class accounting, keyed by class name (populated when the
    #: config defines classes; always holds at least the implicit class).
    classes: Dict[str, ClassStats] = field(default_factory=dict)

    @property
    def rps(self) -> float:
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def overloaded(self) -> int:
        return self.errors_by_code.get(ErrorCode.OVERLOADED, 0)

    @property
    def deadline_exceeded(self) -> int:
        return self.errors_by_code.get(ErrorCode.DEADLINE_EXCEEDED, 0)

    def percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def mean_batch(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return float(np.mean(self.batch_sizes))

    def to_json(self) -> dict:
        return {
            "apps": list(self.config.apps),
            "mode": self.config.mode,
            "requests": self.config.total_requests(),
            "concurrency": self.config.concurrency,
            "rate": self.config.rate,
            "duration_s": self.config.duration_s,
            "input_len": self.config.input_len,
            "ok": self.ok,
            "errors": self.errors,
            "errors_by_code": dict(sorted(self.errors_by_code.items())),
            "overloaded": self.overloaded,
            "deadline_exceeded": self.deadline_exceeded,
            "elapsed_s": self.elapsed_s,
            "rps": self.rps,
            "latency_ms": {
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
            },
            "mean_batch": self.mean_batch(),
            "classes": {
                name: stats.to_json()
                for name, stats in sorted(self.classes.items())
            },
        }


def _payloads(config: LoadgenConfig) -> List[bytes]:
    """Deterministic request payloads (uniform bytes, one per request)."""
    rng = np.random.default_rng(config.seed)
    distinct = min(config.total_requests(), 64)  # bounded memory; cycled below
    pool = [rng.integers(0, 256, size=config.input_len, dtype=np.uint8).tobytes()
            for _ in range(distinct)]
    return pool


def _plan_classes(config: LoadgenConfig) -> List[RequestClass]:
    """A deterministic class per arrival index (weighted, seed-stable)."""
    if not config.classes:
        return [RequestClass("all", deadline_ms=config.deadline_ms)] \
            * config.total_requests()
    weights = np.asarray([cls.weight for cls in config.classes], dtype=float)
    rng = np.random.default_rng(config.seed + 1)
    picks = rng.choice(len(config.classes), size=config.total_requests(),
                       p=weights / weights.sum())
    return [config.classes[int(pick)] for pick in picks]


async def _open_client(config: LoadgenConfig) -> AsyncServeClient:
    return await AsyncServeClient.open(
        host=config.host, port=config.port, unix_path=config.unix_path,
        retry_for=config.connect_timeout,
    )


def _record(result: LoadgenResult, outcome,
            error: Optional[ServeRequestError],
            request_class: Optional[RequestClass] = None) -> None:
    name = request_class.name if request_class is not None else "all"
    stats = result.classes.setdefault(name, ClassStats())
    if error is not None:
        result.errors += 1
        code = error.code
        result.errors_by_code[code] = result.errors_by_code.get(code, 0) + 1
        stats.errors += 1
        stats.errors_by_code[code] = stats.errors_by_code.get(code, 0) + 1
    else:
        result.ok += 1
        result.latencies_ms.append(1e3 * outcome.latency_s)
        result.batch_sizes.append(outcome.batch_size)
        stats.ok += 1
        stats.latencies_ms.append(1e3 * outcome.latency_s)


async def _closed_loop(config: LoadgenConfig, clients: List[AsyncServeClient],
                       payloads: List[bytes], classes: List[RequestClass],
                       result: LoadgenResult) -> None:
    total = config.total_requests()
    counter = {"next": 0}

    async def worker(client: AsyncServeClient) -> None:
        while True:
            index = counter["next"]
            if index >= total:
                return
            counter["next"] = index + 1
            app = config.apps[index % len(config.apps)]
            payload = payloads[index % len(payloads)]
            request_class = classes[index]
            try:
                outcome = await client.match(
                    app, payload,
                    deadline_ms=request_class.deadline_ms,
                    max_reports=config.max_reports,
                )
                _record(result, outcome, None, request_class)
            except ServeRequestError as exc:
                _record(result, None, exc, request_class)

    await asyncio.gather(*(worker(client) for client in clients))


async def _open_loop(config: LoadgenConfig, clients: List[AsyncServeClient],
                     payloads: List[bytes], classes: List[RequestClass],
                     result: LoadgenResult) -> None:
    assert config.rate
    interval = 1.0 / config.rate
    tasks = []
    began = time.monotonic()
    for index in range(config.total_requests()):
        target = began + index * interval
        delay = target - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[index % len(clients)]
        app = config.apps[index % len(config.apps)]
        payload = payloads[index % len(payloads)]
        request_class = classes[index]

        async def fire(client=client, app=app, payload=payload,
                       request_class=request_class) -> None:
            try:
                outcome = await client.match(
                    app, payload,
                    deadline_ms=request_class.deadline_ms,
                    max_reports=config.max_reports,
                )
                _record(result, outcome, None, request_class)
            except ServeRequestError as exc:
                _record(result, None, exc, request_class)

        tasks.append(asyncio.ensure_future(fire()))
    await asyncio.gather(*tasks)


async def run_loadgen(config: LoadgenConfig) -> LoadgenResult:
    """Run one round; never raises on per-request errors (they are counted).

    The round's clock starts once every connection is open, so the wait
    for a server that is still binding does not count in its rps.
    """
    payloads = _payloads(config)
    classes = _plan_classes(config)
    result = LoadgenResult(config=config)
    clients: List[AsyncServeClient] = []
    try:
        for _ in range(config.concurrency):
            clients.append(await _open_client(config))
        drive = _closed_loop if config.mode == "closed" else _open_loop
        began = time.perf_counter()
        await drive(config, clients, payloads, classes, result)
        result.elapsed_s = time.perf_counter() - began
    finally:
        for client in clients:
            await client.close()
    return result


def render_results(results: List[LoadgenResult]) -> str:
    """A fixed-width table over one or more rounds (the sweep view)."""
    header = (f"{'conc':>5} {'mode':>6} {'ok':>6} {'err':>5} {'rps':>9} "
              f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'batch':>6}")
    lines = [header, "-" * len(header)]
    for result in results:
        lines.append(
            f"{result.config.concurrency:>5} {result.config.mode:>6} "
            f"{result.ok:>6} {result.errors:>5} {result.rps:>9.1f} "
            f"{result.percentile(50):>8.2f} {result.percentile(95):>8.2f} "
            f"{result.percentile(99):>8.2f} {result.mean_batch():>6.2f}"
        )
        if result.config.classes:
            for name, stats in sorted(result.classes.items()):
                lines.append(
                    f"      class {name:<12} ok {stats.ok:>6} "
                    f"overloaded {stats.overloaded:>5} "
                    f"deadline {stats.deadline_exceeded:>5} "
                    f"p50 {stats.percentile(50):>8.2f} "
                    f"p95 {stats.percentile(95):>8.2f} "
                    f"p99 {stats.percentile(99):>8.2f}"
                )
    return "\n".join(lines)
