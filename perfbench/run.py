"""Run the benchmark: ``python3 perfbench/run.py [--workload NAME] --seed N``.

Without ``--workload`` every gated workload runs, each in a fresh process.  With
one, the workload runs in this process and the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer metrics).
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The workloads BENCHMARK.json gates.
WORKLOADS = ("offline-pipeline", "serve-lockstep")
#: Runnable by name, not gated: with four busy processes on two vCPUs its
#: figures swung by a third between runs of identical code (README.md,
#: "Choices").  Its layers are measured in the traced run of
#: ``serve-lockstep``.
UNGATED = ("grid-tables",)
#: Measured seconds of the grid phase of a traced ``serve-lockstep`` run.
GRID_PHASE_S = 6.0
#: Measurements a workload makes in a process of its own (``--probe``).
PROBES = ("offline-setup", "grid-spawn")
END_TO_END = ("setup_s", "throughput_ops", "p50_ms", "peak_rss_mb")
#: Every per-layer metric, with its unit.  A workload reports 0 for a layer
#: it does not exercise.
PER_LAYER = {
    "workloads.build_s": "s",
    "nfa.topology_s": "s",
    "sim.compile_s": "s",
    "sim.track_s": "s",
    "semant.analyze_s": "s",
    "cost.explore_s": "s",
    "cost.subsets": "count",
    "sim.compile_dfa_s": "s",
    "sim.dfa_states": "count",
    "sim.compile_lazydfa_s": "s",
    "core.partition_s": "s",
    "core.scenarios_s": "s",
    "reduce.reduce_s": "s",
    "sim.backend_mb_s": "MB/s",
    "sim.lazydfa_hit_ratio": "ratio",
    "serve.warmup_s": "s",
    "serve.batch_size": "streams",
    "serve.queue_ms": "ms",
    "serve.exec_ms": "ms",
    "sim.batch_ms": "ms",
    "serve.wire_ms": "ms",
    "protocol.frame_us": "us",
    "grid.store_s": "s",
    "grid.spawn_s": "s",
    "grid.route_ms": "ms",
    "sim.walk_mb_s": "MB/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNGATED, default=None,
                        help="one workload (default: every gated workload in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured seconds per run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--probe", choices=PROBES, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's sources first on the path; refuse to run without
    them (an installed copy elsewhere would be the wrong program)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def run_one(args: argparse.Namespace) -> int:
    from harness import WORK, Tracer, print_accounting, print_metrics, result_line

    tracer = Tracer(enabled=bool(args.trace))
    if args.workload == "offline-pipeline":
        import offline

        outcome, end_to_end, per_layer = offline.run_workload(
            args.seed, args.seconds, tracer)
    else:
        import serving

        outcome, end_to_end, per_layer = serving.run_workload(
            args.workload, args.seed, args.seconds, tracer)
        if args.trace and args.workload == "serve-lockstep":
            _grid_phase(args.seed, tracer, outcome, per_layer)

    print_accounting(args.workload, outcome)
    record = WORK / f"e2e-{args.workload}-{args.seed}.json"
    if args.trace:
        print_metrics(args.workload, end_to_end, "traced ")
        _print_overhead(args.workload, end_to_end, record)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"[{args.workload}] wrote {len(tracer.spans)} spans to "
              f"{os.path.relpath(trace_path)}", flush=True)
        metrics = {name: (float(per_layer.get(name, 0.0)), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        WORK.mkdir(parents=True, exist_ok=True)
        with open(record, "w") as handle:
            json.dump({name: value for name, (value, _unit) in end_to_end.items()},
                      handle)
        metrics = {name: end_to_end[name] for name in END_TO_END}
    print_metrics(args.workload, metrics)
    print(result_line(outcome, metrics), flush=True)
    return 0


def _grid_phase(seed: int, tracer, outcome, per_layer: dict) -> None:
    """The grid's layers, from one short traced ``grid-tables`` run inside a
    traced ``serve-lockstep`` run: the serve figures keep their own values,
    the grid adds the rest.  Its replies are checked like any other."""
    import serving
    from harness import print_metrics

    grid_outcome, grid_e2e, grid_layers = serving.run_workload(
        "grid-tables", seed, GRID_PHASE_S, tracer, launches=1)
    print_metrics("grid-tables", grid_e2e, "traced grid phase ")
    outcome.absorb(grid_outcome)
    for name, value in grid_layers.items():
        per_layer.setdefault(name, value)


def _print_overhead(workload: str, traced: dict, record: Path) -> None:
    """Traced minus untraced end-to-end numbers, against the untraced run
    of the same workload and seed recorded in this checkout."""
    if not record.is_file():
        print(f"[{workload}] tracing overhead: no untraced run of this seed "
              "recorded yet", flush=True)
        return
    with open(record) as handle:
        untraced = json.load(handle)
    for name, (value, unit) in traced.items():
        if name in untraced:
            base = untraced[name]
            print(f"[{workload}] tracing overhead {name}: {value - base:+.6g} "
                  f"{unit} ({100 * (value - base) / base:+.1f}%)", flush=True)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process; a summary object as the last line."""
    from harness import CHILDREN

    summary = {}
    status = 0
    for workload in WORKLOADS:
        process = CHILDREN.start(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        stdout, _ = process.communicate()
        CHILDREN.stop(process)
        lines = stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = {"correct": False, "exit": process.returncode}
        if process.returncode or not summary[workload]["correct"]:
            status = 1
    print(json.dumps(summary), flush=True)
    return status


def run_probe(probe: str, seed: int) -> int:
    if probe == "offline-setup":
        import offline
        import seeded

        offline.build_all(seeded.variant_of(seed))
        print("ready", flush=True)
    else:
        import serving

        began, ended = serving.grid_spawn_probe()
        print(f"{began!r} {ended!r}", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_program()
    os.chdir(HERE.parent)  # socket paths are relative to the checkout root
    from harness import CHILDREN, become_subreaper

    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, CHILDREN.kill_all)
    try:
        if args.probe:
            return run_probe(args.probe, args.seed)
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    finally:
        CHILDREN.stop_all()


if __name__ == "__main__":
    sys.exit(main())
