"""The ``offline-pipeline`` workload: cold ``sweep --backend auto`` passes.

One process, serially (no process pool), computes the sweep row with
auto-selected backend execution for each app of :data:`OFFLINE_APPS`.
Every pass starts from fresh pipeline state (``clear_cache()``), so every
stage — build, subset construction, DFA/lazy-DFA compile, tracking runs,
partition, the SpAP scenarios — runs once per app per pass.

The benchmark calls each ``AppRun`` stage itself, in pipeline order, before
``sweep_app`` computes the row from the warmed cache: the calls are the
same whether or not the run is traced, and a traced run times each one.
"""

from __future__ import annotations

import gc
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from harness import (CHILDREN, PROFILE_FRACTION, Outcome, Tracer, child_env,
                     geomean, median)
from repro.experiments.pipeline import clear_cache, get_run
from repro.experiments.sweep import sweep_app
from repro.sim.reference import reference_run
from repro.sim.result import reports_equal
from seeded import (MODEL_FIELDS, OFFLINE_APPS, load_model_copy, modelled_row,
                    pinned_config, seeded_spec, variant_of)

NAME = "offline-pipeline"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def prepare_run(abbr: str, variant: int, config):
    """The pipeline's own cached run for ``abbr``, fed the variant's input."""
    run = get_run(abbr, config)
    run.spec = seeded_spec(run.spec, variant)
    return run


def build_all(variant: int) -> None:
    """What a set-up does after its imports: build every network and input."""
    config = pinned_config()
    clear_cache()
    for abbr in OFFLINE_APPS:
        run = prepare_run(abbr, variant, config)
        run.network
        run.entire_input


def probe_setup(seed: int) -> float:
    """Launch a fresh interpreter that imports the pipeline and builds the
    workload; seconds from launch until it reports ready."""
    began = time.perf_counter()
    process = CHILDREN.start(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--probe", "offline-setup", "--seed", str(seed)],
        stdout=subprocess.PIPE, env=child_env(),
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - began
    finally:
        process.stdout.close()
        CHILDREN.stop(process)
    if line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {process.returncode})")
    return elapsed


def one_pass(tracer: Tracer, pass_no: int, variant: int, config) -> Dict[str, dict]:
    """One cold pass; returns the per-app state the checks need."""
    ap = config.half_core
    frac = PROFILE_FRACTION
    clear_cache()
    gc.collect()  # the last pass's runs are gone before this one allocates
    rows: Dict[str, dict] = {}
    for abbr in OFFLINE_APPS:
        began = time.perf_counter()
        with tracer.span("app", app=abbr, **{"pass": pass_no}):
            run = prepare_run(abbr, variant, config)
            with tracer.span("workloads.build"):
                run.network
                run.entire_input
            with tracer.span("nfa.topology"):
                run.topology
            with tracer.span("sim.compile"):
                run.compiled
            with tracer.span("sim.track"):
                run.truth
                run.profile(frac)
            with tracer.span("semant.analyze"):
                run.semantics
                run.static_prediction()
            with tracer.span("core.partition"):
                run.partition(frac, ap)
            with tracer.span("cost.explore"):
                cost = run.cost_outcome(frac).cost
            backend, engine = run.select_backend("auto", frac)
            if backend == "dfa":
                with tracer.span("sim.compile_dfa"):
                    run.compiled_dfa
            elif backend == "lazydfa":
                with tracer.span("sim.compile_lazydfa"):
                    run.compiled_lazydfa
            with tracer.span("core.scenarios"):
                baseline = run.baseline(ap)
                spap = run.base_spap(frac, ap)
                ap_cpu = run.ap_cpu(frac, ap)
            with tracer.span("reduce.reduce"):
                run.reduced
            with tracer.span("sweep.row"):
                row = sweep_app(abbr, config, frac, backend="auto")
        rows[abbr] = {
            "seconds": time.perf_counter() - began, "run": run, "row": row,
            "backend": backend, "engine": engine, "baseline": baseline,
            "spap": spap, "ap_cpu": ap_cpu,
            "subsets": sum(a.exploration.n_subset_states for a in cost.advisories),
        }
    return rows


def check_pass(rows: Dict[str, dict], references: Dict[str, object],
               model: Dict[str, dict], outcome: Outcome, tracer: Tracer,
               pass_no: int, show_model: bool) -> Dict[str, float]:
    """Check every app of a pass (outside the timed region); returns the
    per-layer readings measured while checking."""
    engine_mb_s: List[float] = []
    hits = builds = 0
    for abbr, state in rows.items():
        run = state["run"]
        try:
            data = run.test_input
            if abbr not in references:
                references[abbr] = reference_run(run.network, data).reports
            expected = references[abbr]
            prepared = run.prepared_for(state["backend"])
            began = time.perf_counter()
            with tracer.span("sim.backend", app=abbr, backend=state["backend"],
                             **{"pass": pass_no}):
                result = state["engine"].run(prepared, data)
            engine_mb_s.append(len(data) / (time.perf_counter() - began) / 1e6)
            if state["backend"] == "lazydfa":
                stats = run.compiled_lazydfa.cache_stats()
                hits += stats["hits"]
                builds += stats["cell_builds"]
            problems = _mismatches(abbr, state, result, expected, run, model)
        except Exception as exc:  # a crashed check is a failed operation
            outcome.fail(f"error:{type(exc).__name__}", f"{abbr}: {exc!r}")
            continue
        if problems:
            outcome.fail("mismatch", f"pass {pass_no} {abbr}: "
                         + "; ".join(problems))
        else:
            outcome.ok()
        if show_model:
            row = modelled_row(run)
            print(f"[{NAME}] model {abbr}: " + " ".join(
                f"{name}={row[name]}" for name in MODEL_FIELDS), flush=True)
    return {
        "sim.backend_mb_s": geomean(engine_mb_s) if engine_mb_s else 0.0,
        "sim.lazydfa_hit_ratio": hits / (hits + builds) if hits + builds else 0.0,
    }


def _mismatches(abbr: str, state: dict, result, expected, run,
                model: Dict[str, dict]) -> List[str]:
    problems = []
    for label, reports in (("baseline", state["baseline"].reports),
                           ("spap", state["spap"].reports),
                           ("ap_cpu", state["ap_cpu"].reports),
                           (f"engine {state['backend']}", result.reports)):
        if not reports_equal(reports, expected):
            problems.append(f"{label} reports differ from the reference engine")
    capacity = run.config.half_core.capacity
    baseline, spap = state["baseline"], state["spap"]
    floor = math.ceil(run.network.n_states / capacity)
    if baseline.n_batches < floor:
        problems.append(f"baseline batches {baseline.n_batches} < "
                        f"ceil(states/capacity) = {floor}")
    if spap.spap_consumed_cycles > spap.n_cold_batches * spap.n_symbols:
        problems.append(f"SpAP consumed {spap.spap_consumed_cycles} cycles > "
                        f"{spap.n_cold_batches} cold batches x {spap.n_symbols}")
    if state["row"].backend != state["backend"]:
        problems.append(f"sweep row ran {state['row'].backend}, "
                        f"selection said {state['backend']}")
    measured = modelled_row(run)
    copy = model.get(abbr)
    if copy != measured:
        problems.append(f"modelled statistics {measured} differ from the "
                        f"committed copy {copy}")
    return problems


def run_workload(seed: int, seconds: float, tracer: Tracer):
    """Returns ``(outcome, end_to_end, per_layer)``."""
    variant = variant_of(seed)
    model = load_model_copy()[str(variant)]
    config = pinned_config()
    setups = [probe_setup(seed) for _ in range(SETUPS)]

    outcome = Outcome()
    references: Dict[str, object] = {}
    pass_seconds: List[float] = []
    app_seconds: Dict[str, List[float]] = {abbr: [] for abbr in OFFLINE_APPS}
    checked: List[Dict[str, float]] = []
    counts: Dict[str, float] = {}
    while sum(pass_seconds) < seconds:
        pass_no = len(pass_seconds)
        began = time.perf_counter()
        rows = one_pass(tracer, pass_no, variant, config)
        pass_seconds.append(time.perf_counter() - began)
        for abbr, state in rows.items():
            app_seconds[abbr].append(state["seconds"])
        checked.append(check_pass(rows, references, model, outcome, tracer,
                                  pass_no, show_model=pass_no == 0))
        counts = {
            "cost.subsets": float(sum(s["subsets"] for s in rows.values())),
            "sim.dfa_states": float(sum(
                s["run"].compiled_dfa.n_states for s in rows.values()
                if s["backend"] == "dfa")),
        }
        del rows  # the next pass starts from nothing: no run stays alive
    print(f"[{NAME}] set-ups (launch to ready): "
          + " ".join(f"{s:.3f}" for s in setups) + " s", flush=True)
    print(f"[{NAME}] variant {variant}: {len(pass_seconds)} cold passes, "
          f"pass seconds " + " ".join(f"{s:.3f}" for s in pass_seconds),
          flush=True)
    print(f"[{NAME}] app row seconds, median over passes: " + ", ".join(
        f"{abbr} {median(times):.3f}" for abbr, times in app_seconds.items()),
        flush=True)

    # Whole passes are the units: an app row lasts 0.5-4 s, short enough for
    # scheduler and CPU-speed jitter to swing it by a fifth, while a pass
    # sums several seconds of every stage.
    end_to_end = {
        "setup_s": (median(setups), "s"),
        "throughput_ops": (len(OFFLINE_APPS) * len(pass_seconds)
                           / sum(pass_seconds), "1/s"),
        "p50_ms": (1e3 * median(pass_seconds), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "MB"),
    }
    per_layer = {}
    if tracer.enabled:
        per_layer = _per_layer(tracer, len(pass_seconds), checked, counts)
    return outcome, end_to_end, per_layer


#: The pipeline stages a traced pass times; metric ``<stage>_s`` each.
STAGES = ("workloads.build", "nfa.topology", "sim.compile", "sim.track",
          "semant.analyze", "cost.explore", "sim.compile_dfa",
          "sim.compile_lazydfa", "core.partition", "core.scenarios",
          "reduce.reduce")


def _per_layer(tracer: Tracer, n_passes: int, checked: List[Dict[str, float]],
               counts: Dict[str, float]) -> Dict[str, float]:
    """Per pass, each stage summed over the apps; median over passes."""
    pass_of = {span.id: span.attrs["pass"] for span in tracer.named("app")}
    sums: Dict[str, List[float]] = {stage: [0.0] * n_passes for stage in STAGES}
    for span in tracer.spans:
        if span.name in sums:
            sums[span.name][pass_of[span.parent]] += span.seconds
    readings = {f"{stage}_s": median(values) for stage, values in sums.items()}
    readings.update(counts)
    for key in ("sim.backend_mb_s", "sim.lazydfa_hit_ratio"):
        readings[key] = median([c[key] for c in checked])
    return readings
