"""Grid scaling trajectory: worker-count rps scaling plus an overload sweep.

Run directly, this module is the benchmark harness for the sharded
serving grid::

    PYTHONPATH=src python benchmarks/bench_grid.py          # write BENCH_grid.json
    PYTHONPATH=src python benchmarks/bench_grid.py --check  # CI smoke assertion

Two measurements:

* **worker-count scaling** — the same closed-loop load (32 connections
  over three sharded apps) against a 1-, 2-, and 4-worker grid.  Workers
  are real processes, so on a multi-core host throughput scales with the
  pool; the committed artifact records the rps table and the
  ``workers4_vs_workers1`` ratio.
* **open-loop overload sweep** — a light round (0.3x the measured
  capacity) and an overloaded round (3x capacity) against the 4-worker
  grid, split into weighted deadline classes.  Bounded queues everywhere
  mean overload degrades by *typed rejection* (``OVERLOADED`` /
  ``DEADLINE_EXCEEDED``), never by unbounded queueing — so the sweep's
  p99 stays under an absolute ceiling and every error carries a type.

``--check`` re-measures and asserts the consistency floors everywhere
(zero scaling errors, typed-only overload errors, bounded p99) and — on
hosts with at least 4 CPUs, i.e. CI runners where parallel speedup is
physically available — the hard ≥ 2.5x floor for 4 workers vs 1.  The
recorded artifact carries ``host.cpus`` so a reader can tell which regime
produced it.
"""

import argparse
import asyncio
import json
import os
import sys
import tempfile
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.grid import Grid, GridOptions
from repro.serve.loadgen import LoadgenConfig, RequestClass, run_loadgen
from repro.serve.protocol import ErrorCode

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_grid.json"
APPS, SCALE, PAYLOAD_BYTES = ["Snort", "Bro217", "LV"], 64, 1024
WORKER_COUNTS = (1, 2, 4)
SCALING_CONC, SCALING_REQUESTS = 32, 256
MAX_BATCH, WORKER_QUEUE_DEPTH = 64, 64
ROUTER_MAX_INFLIGHT, SPILL_THRESHOLD = 128, 16
#: Open-loop sweep: offered load as multiples of the measured capacity.
LIGHT_FACTOR, OVERLOAD_FACTOR = 0.3, 3.0
SWEEP_DURATION_S = 2.0
SWEEP_CLASSES = (
    RequestClass("interactive", weight=4.0, deadline_ms=100.0),
    RequestClass("batch", weight=1.0),
)
#: ``--check`` passes while live ratios stay above this fraction of the
#: committed ones (CI runners are noisy).
TOLERANCE = 0.5
#: Hard floor from the acceptance criteria — enforced only on hosts with
#: at least this many CPUs, where parallel speedup physically exists.
MIN_W4_VS_W1, SPEEDUP_CPUS_NEEDED = 2.5, 4
#: Bounded-queue contract: even at 3x overload, p99 of *served* requests
#: must stay under this (unbounded queueing would blow through it).  On
#: hosts below ``SPEEDUP_CPUS_NEEDED`` CPUs the loadgen, router, and
#: workers all contend for the same core and admitted requests crawl for
#: reasons unrelated to queue bounds, so only the sanity ceiling applies.
OVERLOAD_P99_CEILING_MS = 1000.0
OVERLOAD_P99_SANITY_MS = 10_000.0


def _grid_options(workers: int, sock: str) -> GridOptions:
    return GridOptions(
        workers=workers, unix_path=sock,
        max_batch=MAX_BATCH, max_queue_depth=WORKER_QUEUE_DEPTH,
        spill_threshold=SPILL_THRESHOLD, max_inflight=ROUTER_MAX_INFLIGHT,
    )


async def _closed_round(sock: str, requests: int, concurrency: int):
    return await run_loadgen(LoadgenConfig(
        apps=APPS, requests=requests, concurrency=concurrency,
        input_len=PAYLOAD_BYTES, max_reports=64, unix_path=sock,
    ))


async def _open_round(sock: str, rate: float):
    return await run_loadgen(LoadgenConfig(
        apps=APPS, concurrency=16, mode="open", rate=rate,
        duration_s=SWEEP_DURATION_S, input_len=PAYLOAD_BYTES,
        max_reports=64, unix_path=sock, classes=SWEEP_CLASSES,
    ))


def _round_doc(workers: int, result) -> dict:
    return {
        "workers": workers,
        "rps": round(result.rps, 1),
        "p50_ms": round(result.percentile(50), 3),
        "p99_ms": round(result.percentile(99), 3),
        "errors": result.errors,
    }


def _sweep_doc(offered_rps: float, result) -> dict:
    typed = result.overloaded + result.deadline_exceeded
    return {
        "offered_rps": round(offered_rps, 1),
        "ok": result.ok,
        "rps": round(result.rps, 1),
        "p50_ms": round(result.percentile(50), 3),
        "p99_ms": round(result.percentile(99), 3),
        "overloaded": result.overloaded,
        "deadline_exceeded": result.deadline_exceeded,
        "errors_untyped": result.errors - typed,
        "classes": {name: stats.to_json()
                    for name, stats in sorted(result.classes.items())},
    }


async def _measure(repeats: int) -> dict:
    config = ExperimentConfig(scale=SCALE, input_len=PAYLOAD_BYTES)
    scaling = []
    sweep = {}
    with tempfile.TemporaryDirectory() as tmpdir:
        for workers in WORKER_COUNTS:
            sock = str(Path(tmpdir) / f"grid-{workers}.sock")
            async with Grid(APPS, config, _grid_options(workers, sock)):
                await _closed_round(sock, 32, 4)  # warm, discarded
                best = None
                for _ in range(repeats):
                    result = await _closed_round(
                        sock, SCALING_REQUESTS, SCALING_CONC)
                    if best is None or result.rps > best.rps:
                        best = result
                scaling.append(_round_doc(workers, best))
                if workers == WORKER_COUNTS[-1]:
                    capacity = best.rps
                    light = await _open_round(sock, LIGHT_FACTOR * capacity)
                    over = await _open_round(sock, OVERLOAD_FACTOR * capacity)
                    sweep = {
                        "capacity_rps": round(capacity, 1),
                        "duration_s": SWEEP_DURATION_S,
                        "light": _sweep_doc(LIGHT_FACTOR * capacity, light),
                        "over": _sweep_doc(OVERLOAD_FACTOR * capacity, over),
                    }
    by_workers = {row["workers"]: row["rps"] for row in scaling}
    return {
        "workload": {
            "apps": APPS,
            "scale": SCALE,
            "payload_bytes": PAYLOAD_BYTES,
        },
        "host": {"cpus": os.cpu_count() or 1},
        "grid": {
            "max_batch": MAX_BATCH,
            "worker_queue_depth": WORKER_QUEUE_DEPTH,
            "router_max_inflight": ROUTER_MAX_INFLIGHT,
            "spill_threshold": SPILL_THRESHOLD,
        },
        "scaling": scaling,
        "speedup": {
            "workers4_vs_workers1": round(
                by_workers[4] / by_workers[1], 3) if by_workers[1] else 0.0,
        },
        "overload": sweep,
        "total_scaling_errors": sum(row["errors"] for row in scaling),
    }


def collect_metrics(repeats=2):
    return asyncio.run(_measure(repeats))


def _check(recorded, live):
    """CI smoke assertions over a fresh measurement.

    Consistency floors always hold; the 2.5x parallel-speedup floor is
    enforced only where ≥ 4 CPUs make it physically meaningful.
    """
    failures = []
    if live["total_scaling_errors"]:
        failures.append(
            f"{live['total_scaling_errors']} error(s) in the closed-loop "
            "scaling rounds (expected zero)")
    over = live["overload"]["over"]
    if not (over["overloaded"] or over["deadline_exceeded"]):
        failures.append(
            f"overload round at {over['offered_rps']} rps produced no typed "
            "rejections (admission control not engaging)")
    if over["errors_untyped"]:
        failures.append(
            f"{over['errors_untyped']} overload error(s) were not typed "
            f"{ErrorCode.OVERLOADED}/{ErrorCode.DEADLINE_EXCEEDED}")
    cpus = live["host"]["cpus"]
    ceiling = (OVERLOAD_P99_CEILING_MS if cpus >= SPEEDUP_CPUS_NEEDED
               else OVERLOAD_P99_SANITY_MS)
    if over["p99_ms"] > ceiling:
        failures.append(
            f"overload p99 {over['p99_ms']:.1f}ms blew the "
            f"{ceiling:.0f}ms bounded-queue ceiling ({cpus}-cpu host)")
    served = over["ok"] + over["overloaded"] + over["deadline_exceeded"] \
        + over["errors_untyped"]
    if not served:
        failures.append("overload round completed zero requests")

    old = recorded["speedup"]["workers4_vs_workers1"]
    new = live["speedup"]["workers4_vs_workers1"]
    if cpus >= SPEEDUP_CPUS_NEEDED:
        need = max(MIN_W4_VS_W1, old * TOLERANCE)
        if new < need:
            failures.append(
                f"workers4_vs_workers1 regressed: {new:.2f}x live vs "
                f"{old:.2f}x recorded (needs >= {need:.2f}x on a "
                f"{cpus}-cpu host)")
    else:
        # Single-/dual-core host: parallel speedup is unavailable, but the
        # grid must not make things *worse* than the recorded trajectory.
        need = old * TOLERANCE
        if new < need:
            failures.append(
                f"workers4_vs_workers1 regressed: {new:.2f}x live vs "
                f"{old:.2f}x recorded (needs >= {need:.2f}x; hard "
                f"{MIN_W4_VS_W1}x floor waived on a {cpus}-cpu host)")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="grid benchmark trajectory")
    parser.add_argument("--check", action="store_true",
                        help="re-measure and assert no regression vs "
                             f"{BENCH_PATH.name} (exit 1 on failure)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="closed-loop rounds per worker count (best-of)")
    args = parser.parse_args(argv)

    live = collect_metrics(repeats=args.repeats)
    print(json.dumps(live, indent=2))
    if not args.check:
        BENCH_PATH.write_text(json.dumps(live, indent=2) + "\n")
        print(f"wrote {BENCH_PATH}", file=sys.stderr)
        return 0

    recorded = json.loads(BENCH_PATH.read_text())
    failures = _check(recorded, live)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("grid benchmark smoke check passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
