"""Serving-throughput trajectory: serial requests vs micro-batched traffic.

Run directly, this module is the benchmark harness for the match service::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py          # write BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --check  # CI smoke assertion

It starts an in-process :class:`repro.serve.MatchServer` on a unix socket
and drives it with the closed-loop load generator twice:

* **concurrency 1** — one request in flight at a time.  The batcher's
  eager-when-idle policy dispatches each request alone, so this is the
  honest *serial per-request* baseline.
* **concurrency 32** — 32 requests in flight; the requests that arrive
  while a batch executes form the next batch, so many requests share one
  executor hop (each stream is still its own walk through the engine).

As with ``bench_engine_throughput.py``, the committed artifact records the
*ratio* of two measurements taken moments apart on the same machine —
machine speed cancels out — and ``--check`` asserts the live ratio has not
regressed below the recorded one (within drift tolerance) nor below the
hard acceptance floor of 2x.  Both rounds must complete with zero request
errors.
"""

import argparse
import asyncio
import json
import sys
import tempfile
from pathlib import Path

from repro.experiments.config import ExperimentConfig
from repro.serve.loadgen import LoadgenConfig, run_loadgen
from repro.serve.server import MatchServer, ServerOptions

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
APP, SCALE, PAYLOAD_BYTES = "Snort", 64, 1024
SERIAL_CONC, BATCHED_CONC = 1, 32
SERIAL_REQUESTS, BATCHED_REQUESTS = 64, 256
MAX_BATCH, WORKERS = 64, 2
#: ``--check`` passes while the live ratio stays above this fraction of the
#: committed one (CI runners are noisy; ratios still drift a little).
TOLERANCE = 0.5
#: Hard floor from the acceptance criteria, enforced regardless of drift.
MIN_BATCHED_VS_SERIAL = 2.0


async def _round(sock, concurrency, requests):
    config = LoadgenConfig(
        apps=[APP], requests=requests, concurrency=concurrency,
        input_len=PAYLOAD_BYTES, max_reports=64, unix_path=sock,
    )
    return await run_loadgen(config)


async def _best_of(sock, concurrency, requests, repeats):
    best = None
    for _ in range(repeats):
        result = await _round(sock, concurrency, requests)
        if best is None or result.rps > best.rps:
            best = result
    return best


async def _measure(repeats):
    """Serve + drive in one event loop; returns the benchmark document."""
    with tempfile.TemporaryDirectory() as tmpdir:
        sock = str(Path(tmpdir) / "bench.sock")
        options = ServerOptions(unix_path=sock,
                                max_batch=MAX_BATCH, workers=WORKERS)
        config = ExperimentConfig(scale=SCALE, input_len=PAYLOAD_BYTES)
        server = MatchServer(config, options, apps=[APP])
        await server.start()
        loop_task = asyncio.ensure_future(server.serve_until_stopped())
        try:
            await _round(sock, 4, 32)  # warm the whole path, discarded
            serial = await _best_of(sock, SERIAL_CONC, SERIAL_REQUESTS, repeats)
            batched = await _best_of(sock, BATCHED_CONC, BATCHED_REQUESTS, repeats)
            n_states = server.state.get_blocking(APP).compiled.n_states
            document = server.stats_document()
        finally:
            await server.stop()
            await asyncio.wait_for(loop_task, 30)
    errors = serial.errors + batched.errors + document["requests"]["errors"]
    return {
        "workload": {
            "app": APP,
            "scale": SCALE,
            "payload_bytes": PAYLOAD_BYTES,
            "n_states": n_states,
        },
        "serving": {
            "max_batch": MAX_BATCH,
            "workers": WORKERS,
        },
        "throughput_rps": {
            "serial_c1": round(serial.rps, 1),
            "batched_c32": round(batched.rps, 1),
        },
        "latency_ms": {
            "serial_p50": round(serial.percentile(50), 3),
            "batched_p50": round(batched.percentile(50), 3),
            "batched_p99": round(batched.percentile(99), 3),
        },
        "batching": {
            "mean_batch_c32": round(batched.mean_batch(), 2),
            "max_batch_seen": max(batched.batch_sizes, default=0),
        },
        "speedup": {
            "batched_vs_serial": round(batched.rps / serial.rps, 3),
        },
        "total_errors": errors,
    }


def collect_metrics(repeats=2):
    return asyncio.run(_measure(repeats))


def _check(recorded, live):
    """CI smoke assertions: zero errors, batching gain above the floor."""
    failures = []
    if live["total_errors"]:
        failures.append(f"{live['total_errors']} request error(s) during the bench")
    old = recorded["speedup"]["batched_vs_serial"]
    new = live["speedup"]["batched_vs_serial"]
    need = max(MIN_BATCHED_VS_SERIAL, old * TOLERANCE)
    if new < need:
        failures.append(
            f"batched_vs_serial regressed: {new:.2f}x live vs {old:.2f}x "
            f"recorded (needs >= {need:.2f}x)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="serve benchmark trajectory")
    parser.add_argument("--check", action="store_true",
                        help="re-measure and assert no regression vs "
                             f"{BENCH_PATH.name} (exit 1 on failure)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="loadgen rounds per concurrency (best-of)")
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
        print("serve benchmark smoke check passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
