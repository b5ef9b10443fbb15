"""The serving workloads: ``serve-lockstep`` and ``grid-tables``.

Each launches the program as a child process at its shipped defaults
(``python -m repro serve`` / ``python -m repro grid --workers 2``) and
drives it from this one process over two pipelined
:class:`~repro.serve.client.AsyncServeClient` connections:

1. set-up: launch until the first reply, polled every :data:`POLL_S`
   (finer than the client's own 100 ms connect retry), repeated
   ``launches`` times; the last launch serves the load;
2. an untimed warm-up of :data:`WARMUP_ROUNDS` rounds;
3. :data:`SLICES` times, a closed-loop slice with ``inflight`` requests
   outstanding, then an open-loop slice at the constant ``rate`` whose
   requests are timed from their *scheduled* send, so a stalled generator
   shows up as latency.

A round is every (app, payload) pair of the pool once, in a seeded order;
both loops issue whole rounds.  Every reply is checked against the
reference engine's reports for its payload, computed before timing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (CHILDREN, PROFILE_FRACTION, ROOT, SCALE, WORK,
                     InsufficientTail, Outcome, Tracer, child_env, descendants,
                     geomean, median, peak_rss_mb, residual_ms, tail_percentile)
from repro.experiments.pipeline import get_run
from repro.grid import Grid, GridOptions
from repro.grid.store import build_store
from repro.serve import protocol
from repro.serve.client import AsyncServeClient, ServeRequestError
from repro.serve.protocol import ProtocolError
from repro.serve.state import ServeState
from repro.sim.dfa import dfa_run
from repro.sim.lazydfa import lazydfa_run
from repro.sim.reference import reference_run
from repro.workloads.registry import get_app
from seeded import payload_pool, pinned_config

#: Readiness poll step while a server starts (seconds).
POLL_S = 0.002
#: Give up on a server that is not ready after this long (seconds).
START_TIMEOUT_S = 120.0
WARMUP_ROUNDS = 3
#: The measured seconds alternate closed- and open-loop slices, so each
#: metric samples the whole run rather than one block of it.
SLICES = 3
CONNECTIONS = 2


@dataclass(frozen=True)
class ServingPlan:
    name: str
    command: Tuple[str, ...]  # after ``python -m repro``
    apps: Tuple[str, ...]
    payload_bytes: int
    pool: int  # distinct payloads per app
    inflight: int  # closed-loop requests outstanding (constant)
    rate: float  # open-loop requests per second (constant)
    launches: int  # set-ups per run; setup_s is their median

    @property
    def round_len(self) -> int:
        return len(self.apps) * self.pool


#: Open-loop rates sit well below closed-loop throughput (about 150 and
#: 4000 replies/s here): nearer to it, the p50 of identical runs swung up
#: to 2x.  Forty in flight keep closed-loop batches several streams wide.
SERVE = ServingPlan(
    name="serve-lockstep",
    command=("serve",),
    apps=("Bro217", "EM", "CAV", "Fermi", "DS06"),
    payload_bytes=1024, pool=8, inflight=40, rate=20.0, launches=5,
)
GRID = ServingPlan(
    name="grid-tables",
    command=("grid", "--workers", "2"),
    apps=("Bro217", "EM", "HM", "DS06", "DS09"),
    payload_bytes=128, pool=8, inflight=40, rate=250.0, launches=3,
)
PLANS = {plan.name: plan for plan in (SERVE, GRID)}


@dataclass
class Request:
    app: str
    payload: bytes
    expected: List[Tuple[int, int]]


@dataclass
class Record:
    phase: str
    app: str
    due: float
    sent: float
    received: float
    status: str  # "ok", "mismatch", "error:<CODE>", "connection_lost"
    batch_size: int = 0
    queue_ms: float = 0.0
    exec_ms: float = 0.0


class LoadGen:
    """The load generator: request plan, connections, records, checks."""

    def __init__(self, plan: ServingPlan, seed: int, tracer: Tracer) -> None:
        self.plan = plan
        self.tracer = tracer
        self.outcome = Outcome()
        self.records: List[Record] = []
        self.lateness: List[float] = []
        self.pools: Dict[str, List[Request]] = {}
        for abbr in plan.apps:
            network = get_app(abbr).build(SCALE)
            self.pools[abbr] = [
                Request(abbr, payload, sorted(
                    (int(p), int(s))
                    for p, s in reference_run(network, payload).reports.tolist()))
                for payload in payload_pool(abbr, network, seed, plan.pool,
                                            plan.payload_bytes)
            ]
        self.max_reports = max(1, max(len(r.expected) for pool in self.pools.values()
                                      for r in pool))
        rng = np.random.default_rng([seed, 7])
        pairs = [self.pools[abbr][i] for abbr in plan.apps for i in range(plan.pool)]
        self.round = [pairs[i] for i in rng.permutation(len(pairs))]
        self.clients: List[AsyncServeClient] = []

    # -- one request -------------------------------------------------------------

    async def issue(self, phase: str, index: int, due: Optional[float],
                    parent: Optional[int]) -> Record:
        request = self.round[index % len(self.round)]
        client = self.clients[index % len(self.clients)]
        sent = time.perf_counter()
        record = Record(phase, request.app, sent if due is None else due,
                        sent, 0.0, "ok")
        try:
            reply = await client.match(request.app, request.payload,
                                       max_reports=self.max_reports)
        except (ServeRequestError, ProtocolError) as exc:
            record.status = f"error:{exc.code}"
        except ConnectionError:
            record.status = "connection_lost"
        else:
            record.batch_size = reply.batch_size
            record.queue_ms = reply.queue_ms
            record.exec_ms = reply.exec_ms
            if (reply.app != request.app or reply.reports_truncated
                    or reply.n_symbols != len(request.payload)
                    or sorted(reply.reports) != request.expected):
                record.status = "mismatch"
        record.received = time.perf_counter()
        if record.status == "ok":
            self.outcome.ok()
        else:
            self.outcome.fail(record.status,
                              f"{phase} #{index} {request.app}: {record.status}")
        if self.tracer.enabled:
            if due is not None:
                self.tracer.record("schedule.lag", due, sent, parent,
                                   request=f"{self.plan.name}:{phase}-{index}")
            self.tracer.record("request", sent, record.received, parent,
                               request=f"{self.plan.name}:{phase}-{index}",
                               app=request.app, status=record.status,
                               batch_size=record.batch_size,
                               queue_ms=record.queue_ms, exec_ms=record.exec_ms)
        self.records.append(record)
        return record

    # -- load phases ---------------------------------------------------------------

    async def closed_loop(self, phase: str, duration: float, rounds: int) -> None:
        """``inflight`` requests outstanding until ``duration`` has passed and
        at least ``rounds`` rounds ran, stopping at a round boundary."""
        span = self.tracer.record(phase, time.perf_counter(), 0.0)
        deadline = time.perf_counter() + duration
        limit = rounds * len(self.round)
        counter = 0

        async def worker() -> None:
            nonlocal counter
            while True:
                if (counter % len(self.round) == 0 and counter >= limit
                        and time.perf_counter() >= deadline):
                    return
                index = counter
                counter += 1
                await self.issue(phase, index, None, span)

        await asyncio.gather(*(worker() for _ in range(self.plan.inflight)))
        if span is not None:
            self.tracer.spans[span].end = time.perf_counter()

    async def open_loop(self, phase: str, duration: float) -> None:
        """Requests at the constant rate, latency from the scheduled send."""
        per_round = len(self.round)
        total = per_round * max(1, round(self.plan.rate * duration / per_round))
        span = self.tracer.record(phase, time.perf_counter(), 0.0)
        start = time.perf_counter() + 0.005
        tasks = []
        for index in range(total):
            due = start + index / self.plan.rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(self.issue(phase, index, due, span)))
        await asyncio.gather(*tasks)
        if span is not None:
            self.tracer.spans[span].end = time.perf_counter()


# -- the program under test ----------------------------------------------------------


class Launch:
    """One child process of the program, ready once its first reply is in."""

    def __init__(self, plan: ServingPlan, number: int) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self.socket = os.path.relpath(WORK / f"{plan.name}-{os.getpid()}.sock", ROOT)
        self.log_path = WORK / f"{plan.name}-{os.getpid()}-{number}.log"
        self.argv = [sys.executable, "-m", "repro", *plan.command,
                     "--apps", ",".join(plan.apps), "--unix", self.socket]
        self.process: Optional[subprocess.Popen] = None

    async def start(self, gen: LoadGen) -> float:
        """Launch, poll for readiness, send the first request; seconds from
        launch until its reply arrived."""
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        with open(self.log_path, "wb") as log:
            began = time.perf_counter()
            self.process = CHILDREN.start(
                self.argv, cwd=ROOT, env=child_env(), stdout=log,
                stderr=subprocess.STDOUT)
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(self.socket)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"{self.argv[3]} exited during start-up; "
                                   f"see {self.log_path}")
            if time.perf_counter() - began > START_TIMEOUT_S:
                raise RuntimeError(f"{self.argv[3]} not ready after "
                                   f"{START_TIMEOUT_S:.0f} s")
            await asyncio.sleep(POLL_S)
        first = AsyncServeClient(reader, writer)
        gen.clients = [first]
        await gen.issue("setup", 0, None, None)
        ready = time.perf_counter() - began
        gen.clients.extend([
            AsyncServeClient(*await asyncio.open_unix_connection(self.socket))
            for _ in range(CONNECTIONS - 1)])
        return ready

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(descendants(self.process.pid))

    async def stop(self, gen: LoadGen) -> None:
        """Ask the program to shut down, then stop its process group
        whatever the answer (or its absence) was."""
        try:
            await asyncio.wait_for(gen.clients[0].shutdown(), 10.0)
        except (ServeRequestError, ProtocolError, ConnectionError, EOFError,
                asyncio.TimeoutError, IndexError):
            pass  # CHILDREN.stop signals the group instead
        finally:
            for client in gen.clients:
                await client.close()
            gen.clients = []
            CHILDREN.stop(self.process)
            if os.path.exists(self.socket):
                os.unlink(self.socket)


# -- metrics -------------------------------------------------------------------------


def closed_throughput(records: List[Record], round_len: int) -> List[float]:
    """Closed-loop replies per second over each run of ``round_len``
    consecutive replies of one slice, in the order they arrived: the run's
    size over the time from the last reply of the run before to its own
    last reply.  The first run of a slice fills the pipeline from idle and
    is left out.  Every reply counts, wrong or refused ones too (they are
    counted as failures apart); a lost connection brings no reply."""
    rates: List[float] = []
    for phase in sorted({r.phase for r in records if r.phase.startswith("closed")}):
        arrivals = sorted(r.received for r in records
                          if r.phase == phase and r.status != "connection_lost")
        rates.extend(round_len / (arrivals[end] - arrivals[end - round_len])
                     for end in range(2 * round_len - 1, len(arrivals), round_len))
    return rates


def closed_latencies_ms(records: List[Record], round_len: int) -> List[float]:
    """Closed-loop latency of every reply, from its send, leaving out the
    first round of each slice (sent while the pipeline filled from idle).
    A failed request misses any latency limit, so it counts as infinitely
    late."""
    latencies: List[float] = []
    for phase in sorted({r.phase for r in records if r.phase.startswith("closed")}):
        in_order = sorted((r for r in records if r.phase == phase),
                          key=lambda r: r.sent)
        latencies.extend(1e3 * (r.received - r.sent) if r.status == "ok"
                         else float("inf") for r in in_order[round_len:])
    return latencies


def highest_tail(latencies: List[float]) -> str:
    """The highest of p99, p95 and p90 with ten samples beyond it."""
    for q in (0.99, 0.95, 0.90):
        try:
            return f"p{100 * q:g} {tail_percentile(latencies, q):.3f} ms"
        except InsufficientTail:
            continue
    return "no tail percentile has ten samples beyond it"


def scheduled_latencies_ms(records: List[Record]) -> List[float]:
    """Open-loop latency of every reply, from its scheduled send.  A failed
    request misses any latency limit, so it counts as infinitely late."""
    return [1e3 * (r.received - r.due) if r.status == "ok" else float("inf")
            for r in records if r.phase.startswith("open")]


def reply_medians(records: List[Record]) -> Dict[str, float]:
    timed = [r for r in records
             if r.phase.startswith(("closed", "open")) and r.status == "ok"]
    return {
        "serve.batch_size": sum(r.batch_size for r in timed) / len(timed),
        "serve.queue_ms": median([r.queue_ms for r in timed]),
        "serve.exec_ms": median([r.exec_ms for r in timed]),
        "residual_ms": median([residual_ms(r.received - r.sent, r.queue_ms,
                                           r.exec_ms) for r in timed]),
    }


# -- the workload ----------------------------------------------------------------------


async def _drive(plan: ServingPlan, gen: LoadGen, seconds: float):
    setups: List[float] = []
    for number in range(plan.launches):
        launch = Launch(plan, number)
        try:
            setups.append(await launch.start(gen))
            if number == plan.launches - 1:
                await gen.closed_loop("warmup", 0.0, WARMUP_ROUNDS)
                for slice_no in range(SLICES):
                    # Two rounds at least: the first of a slice is not timed.
                    await gen.closed_loop(f"closed-{slice_no}",
                                          seconds / (2 * SLICES), 2)
                    await gen.open_loop(f"open-{slice_no}", seconds / (2 * SLICES))
                rss = launch.peak_rss_mb()
        finally:
            if launch.process is not None:
                await launch.stop(gen)
    return setups, rss


def run_workload(name: str, seed: int, seconds: float, tracer: Tracer,
                 launches: Optional[int] = None):
    """Returns ``(outcome, end_to_end, per_layer)``; ``launches`` overrides
    the plan's number of set-ups."""
    plan = PLANS[name]
    if launches is not None:
        plan = dataclasses.replace(plan, launches=launches)
    gen = LoadGen(plan, seed, tracer)
    setups, rss = asyncio.run(_drive(plan, gen, seconds))
    outcome = gen.outcome

    windows = closed_throughput(gen.records, plan.round_len)
    closed = closed_latencies_ms(gen.records, plan.round_len)
    scheduled = scheduled_latencies_ms(gen.records)
    lateness_ms = [1e3 * late for late in gen.lateness]
    print(f"[{name}] set-ups (launch to first reply): "
          + " ".join(f"{s:.3f}" for s in setups) + " s", flush=True)
    throughput = median(windows) if windows else 0.0
    print(f"[{name}] closed loop: {plan.inflight} in flight, "
          f"{len(windows)} runs of {plan.round_len} replies, median "
          f"{throughput:.1f} replies/s; {len(closed)} replies, latency p50 "
          f"{median(closed):.3f} ms, {highest_tail(closed)}", flush=True)
    print(f"[{name}] open loop: {plan.rate:g} req/s, {len(scheduled)} requests, "
          f"latency from the scheduled send p50 {median(scheduled):.3f} ms, "
          f"{highest_tail(scheduled)}; generator late by median "
          f"{median(lateness_ms):.3f} ms, max {max(lateness_ms):.3f} ms",
          flush=True)
    # The gated p50 is the closed loop's.  The open loop's median follows the
    # wake-up latency of idle processes, which moved by half between sets of
    # runs of identical code; the closed loop keeps every process busy.
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "throughput_ops": (throughput, "1/s"),
        "p50_ms": (median(closed), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    per_layer: Dict[str, float] = {}
    if tracer.enabled:
        replies = reply_medians(gen.records)
        residual = replies.pop("residual_ms")
        per_layer.update(replies)
        if plan.name == SERVE.name:
            per_layer["serve.wire_ms"] = residual
            per_layer.update(_serve_in_process(gen, tracer,
                                               replies["serve.batch_size"]))
        else:
            per_layer["grid.route_ms"] = residual
            per_layer.update(_grid_in_process(gen, tracer))
    return outcome, end_to_end, per_layer


# -- traced-only in-process measurements -----------------------------------------------


def _check(gen: LoadGen, request: Request, result, label: str) -> None:
    got = sorted((int(p), int(s)) for p, s in result.reports.tolist())
    if got != request.expected:
        gen.outcome.fail("mismatch", f"{label} {request.app}: reports differ "
                            "from the reference engine")


def _serve_in_process(gen: LoadGen, tracer: Tracer, mean_width: float):
    """``ServeState.warmup`` over the apps, then ``AppEntry.execute_batch``
    replayed at the observed mean batch width."""
    state = ServeState(pinned_config(), apps=list(gen.plan.apps),
                       max_apps=len(gen.plan.apps), backend="multistream")
    with tracer.span("serve.warmup"):
        state.warmup()
    warmup_s = tracer.named("serve.warmup")[-1].seconds
    width = max(1, round(mean_width))
    batch_ms: List[float] = []
    for abbr in gen.plan.apps:
        entry = state.get_blocking(abbr)
        pool = gen.pools[abbr]
        for start in range(0, 4 * len(pool), width):
            batch = [pool[(start + i) % len(pool)] for i in range(width)]
            with tracer.span("sim.batch", app=abbr, width=width):
                results = entry.execute_batch([r.payload for r in batch])
            batch_ms.append(1e3 * tracer.spans[-1].seconds)
            for request, result in zip(batch, results):
                _check(gen, request, result, "execute_batch")
    return {"serve.warmup_s": warmup_s, "sim.batch_ms": median(batch_ms)}


def _grid_in_process(gen: LoadGen, tracer: Tracer) -> Dict[str, float]:
    """``build_store`` (with its pipeline stages timed), ``Grid.start`` over
    the built store, the protocol codecs, and the stored tables replayed."""
    config = pinned_config()
    ap = config.half_core
    readings = {"cost.subsets": 0.0, "sim.dfa_states": 0.0}
    with tracer.span("grid.store"):
        for abbr in gen.plan.apps:
            run = get_run(abbr, config)
            with tracer.span("core.partition", app=abbr):
                run.partition(PROFILE_FRACTION, ap)
            with tracer.span("cost.explore", app=abbr):
                cost = run.cost_outcome(PROFILE_FRACTION).cost
            readings["cost.subsets"] += sum(
                a.exploration.n_subset_states for a in cost.advisories)
            backend, _engine = run.select_backend("auto", PROFILE_FRACTION,
                                                  allow_fallback=True)
            if backend == "dfa":
                with tracer.span("sim.compile_dfa", app=abbr):
                    readings["sim.dfa_states"] += run.compiled_dfa.n_states
            elif backend == "lazydfa":
                with tracer.span("sim.compile_lazydfa", app=abbr):
                    run.compiled_lazydfa
        store = build_store(gen.plan.apps, config, backend="auto")
    for metric, name in (("grid.store_s", "grid.store"),
                         ("cost.explore_s", "cost.explore"),
                         ("sim.compile_dfa_s", "sim.compile_dfa"),
                         ("sim.compile_lazydfa_s", "sim.compile_lazydfa")):
        readings[metric] = sum(span.seconds for span in tracer.named(name))

    readings["grid.spawn_s"] = _grid_spawn_seconds(tracer)

    # Codecs: one request frame and one reply frame at the workload's size.
    sample = gen.round[0]
    frame_us: List[float] = []
    for rid in range(2000):
        began = time.perf_counter()
        request = protocol.request_frame(rid, sample.app, sample.payload,
                                         max_reports=gen.max_reports)
        protocol.decode_frame(request)
        reply = protocol.reply_frame(rid, sample.app,
                                     n_symbols=len(sample.payload),
                                     reports=sample.expected, truncated=False,
                                     batch_size=4, queue_ms=0.5, exec_ms=0.5)
        protocol.decode_frame(reply)
        frame_us.append(1e6 * (time.perf_counter() - began))
    readings["protocol.frame_us"] = median(frame_us)

    # The stored tables, replayed over the payload pool after one warm round.
    rates: List[float] = []
    for abbr in gen.plan.apps:
        stored = store.apps[abbr]
        if stored.backend == "dfa":
            walk, table = dfa_run, stored.dfa
        elif stored.backend == "lazydfa":
            walk, table = lazydfa_run, stored.lazydfa
        else:
            continue
        pool = gen.pools[abbr]
        for request in pool:
            _check(gen, request, walk(table, request.payload),
                   f"{stored.backend} walk")
        with tracer.span("sim.walk", app=abbr, backend=stored.backend):
            for _ in range(5):
                for request in pool:
                    walk(table, request.payload)
        walked = 5 * sum(len(r.payload) for r in pool)
        rates.append(walked / tracer.spans[-1].seconds / 1e6)
    readings["sim.walk_mb_s"] = geomean(rates)
    hits = builds = 0
    for stored in store.apps.values():
        if stored.backend == "lazydfa":
            stats = stored.lazydfa.cache_stats()
            hits += stats["hits"]
            builds += stats["cell_builds"]
    readings["sim.lazydfa_hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
    return readings


def grid_spawn_probe() -> Tuple[float, float]:
    """In a probe process of its own: build the grid's store untimed, then
    time ``Grid.start`` over it (spawn, load, warm, router connect).  Returns
    the ``perf_counter`` instants it began and ended."""
    config = pinned_config()
    build_store(GRID.apps, config, backend="auto")
    return asyncio.run(_time_grid_start(GRID.apps, config))


async def _time_grid_start(apps, config) -> Tuple[float, float]:
    socket = os.path.relpath(WORK / f"grid-probe-{os.getpid()}.sock", ROOT)
    grid = Grid(list(apps), config, GridOptions(workers=2, unix_path=socket))
    try:
        began = time.perf_counter()
        await grid.start()
        ended = time.perf_counter()
    finally:
        await grid.stop()
        if os.path.exists(socket):
            os.unlink(socket)
    return began, ended


def _grid_spawn_seconds(tracer: Tracer) -> float:
    """``Grid.start`` timed in a probe process, so the workers and the
    resource tracker it spawns belong to a process group this benchmark
    stops, never to the benchmark process itself."""
    process = CHILDREN.start(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--probe",
         "grid-spawn"], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    try:
        line = process.stdout.readline()
    finally:
        process.stdout.close()
        CHILDREN.stop(process)
    try:
        began, ended = (float(v) for v in line.split())
    except ValueError:
        raise RuntimeError(f"grid spawn probe failed (exit {process.returncode})")
    tracer.record("grid.spawn", began, ended)
    return ended - began
