"""Parallel all-application sweep: the 26-app workload fanned across cores.

Every paper figure consumes some slice of the same per-application pipeline
(build -> profile -> partition -> three scenarios).  This module runs that
pipeline for many applications at once with a ``ProcessPoolExecutor``: each
worker process keeps the ordinary :mod:`repro.experiments.pipeline`
``AppRun`` cache, so the expensive stages of one application are computed
exactly once no matter how many metrics the sweep extracts from it, and
separate applications proceed on separate cores.

``run_sweep(jobs=1)`` (or ``jobs=0``) degrades to a serial in-process sweep
that shares the caller's ``AppRun`` cache — useful in tests and when the
results will be reused by figure code in the same process.

CLI: ``python -m repro sweep [APPS ...] [--jobs N] [--profile F] [--json]``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.metrics import geometric_mean
from ..workloads.registry import APPS, app_names
from .config import ExperimentConfig, default_config
from .pipeline import get_run
from .tables import render_table

__all__ = [
    "AppSweepRow",
    "SweepError",
    "run_sweep",
    "render_sweep",
    "sweep_summary",
    "DEFAULT_PROFILE_FRACTION",
]

#: Profiling fraction used when none is given (the paper's 1% operating point).
DEFAULT_PROFILE_FRACTION = 0.01


class SweepError(RuntimeError):
    """One application's pipeline failed; names the app (pool workers lose
    that context otherwise).  In-process the original exception is
    ``__cause__``; ``args`` holds ``(abbr, message)`` so the exception
    survives pickling back across the process-pool boundary."""

    def __init__(self, abbr: str, cause):
        super().__init__(abbr, str(cause))
        self.abbr = abbr

    def __str__(self) -> str:
        return f"{self.args[0]}: {self.args[1]}"


@dataclass(frozen=True)
class AppSweepRow:
    """One application's sweep outcome (all scenarios, one profile point).

    The counter columns are the unified runtime statistics of
    :mod:`repro.stats` (Table IV's cycle/stall/report counters, the §V-B
    queue accounting, Table I prediction accuracy) so a sweep doubles as a
    cross-application stats export.
    """

    abbr: str
    full_name: str
    group: str
    n_states: int
    n_automata: int
    hot_fraction: float
    baseline_batches: int
    baseline_cycles: int
    base_cycles: int
    spap_cycles: int
    spap_stall_cycles: int
    n_intermediate_reports: int
    queue_refills: int
    device_bytes: int
    prediction_accuracy: float
    static_accuracy: float  # profile-free predictor (repro.semant)
    n_statically_dead: int
    n_classes: int  # effective symbol-class alphabet (repro.cost)
    dfa_safe: bool  # parent network proven determinizable within budget
    advised_backend: str  # the cost advisory's recommendation (network)
    backend: str  # engine actually used (= advised when none was executed)
    backend_mb_s: float  # measured MB/s of that engine (0.0 if not executed)
    spap_speedup: float
    ap_cpu_speedup: float
    resource_saving: float
    seconds: float  # wall time spent computing this row
    # SPAP-R reduction (repro.reduce): the transform is cheap and cached.
    n_states_reduced: int = 0
    reduce_saving: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


def sweep_app(abbr: str, config: ExperimentConfig,
              fraction: float = DEFAULT_PROFILE_FRACTION,
              backend: Optional[str] = None,
              backend_fallback: bool = False) -> AppSweepRow:
    """Compute one application's row (cached via the pipeline's ``AppRun``).

    ``backend`` requests a backend execution over the test input:
    ``"auto"`` selects per the cost advisory with feasibility fallback
    (DESIGN.md §13); an explicit name forces that engine and *raises*
    :class:`~repro.sim.BackendInfeasibleError` (wrapped in
    :class:`SweepError` by the pool worker) when it cannot run, unless
    ``backend_fallback`` opts into bitpacked substitution.  ``None``
    skips execution — the Backend column then shows the advisory's
    recommendation, as before.
    """
    from ..stats.collect import collect_run_stats

    if abbr not in APPS:
        raise KeyError(f"unknown application {abbr!r}")
    began = time.perf_counter()
    app_run = get_run(abbr, config)
    used_for_stats: Optional[str] = None
    backend_mb_s = 0.0
    if backend is not None:
        name, engine = app_run.select_backend(
            backend, fraction,
            allow_fallback=True if backend_fallback else None,
        )
        prepared = app_run.prepared_for(name)
        data = app_run.test_input
        engine.run(prepared, data)  # warm lazy tables/dispatch paths
        t0 = time.perf_counter()
        engine.run(prepared, data)
        elapsed = time.perf_counter() - t0
        used_for_stats = name
        backend_mb_s = len(data) / elapsed / 1e6 if elapsed > 0 else 0.0
    stats = collect_run_stats(
        abbr, config, fraction=fraction, app_run=app_run,
        requested_backend=backend, selected_backend=used_for_stats,
    )
    advised = next(
        (p.recommended for p in stats.cost_partitions if p.name == "network"),
        "reference",
    )
    used = used_for_stats if used_for_stats is not None else advised
    row = AppSweepRow(
        abbr=abbr,
        full_name=stats.full_name,
        group=stats.group,
        n_states=stats.n_states,
        n_automata=stats.n_automata,
        hot_fraction=stats.hot_fraction,
        baseline_batches=stats.baseline_batches,
        baseline_cycles=stats.baseline_cycles,
        base_cycles=stats.base_cycles,
        spap_cycles=stats.spap_cycles,
        spap_stall_cycles=stats.spap_stall_cycles,
        n_intermediate_reports=stats.n_intermediate_reports,
        queue_refills=stats.queue_refills,
        device_bytes=stats.device_bytes,
        prediction_accuracy=stats.prediction_accuracy,
        static_accuracy=stats.static_accuracy,
        n_statically_dead=stats.n_statically_dead,
        n_classes=stats.cost_n_classes,
        dfa_safe=any(
            p.dfa_safe for p in stats.cost_partitions if p.name == "network"
        ),
        advised_backend=advised,
        backend=used,
        backend_mb_s=backend_mb_s,
        spap_speedup=stats.spap_speedup,
        ap_cpu_speedup=stats.ap_cpu_speedup,
        resource_saving=stats.resource_saving,
        seconds=time.perf_counter() - began,
        n_states_reduced=stats.reduce_states_after,
        reduce_saving=stats.reduce_saving,
    )
    return row


def _sweep_worker(
    payload: Tuple[str, ExperimentConfig, float, Optional[str], bool]
) -> AppSweepRow:
    """Top-level (picklable) worker: one application in one process."""
    abbr, config, fraction, backend, backend_fallback = payload
    try:
        return sweep_app(abbr, config, fraction, backend, backend_fallback)
    except Exception as err:
        raise SweepError(abbr, err) from err


def run_sweep(
    apps: Optional[Sequence[str]] = None,
    config: Optional[ExperimentConfig] = None,
    *,
    fraction: float = DEFAULT_PROFILE_FRACTION,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    backend_fallback: bool = False,
) -> List[AppSweepRow]:
    """Sweep ``apps`` (default: the whole registry), ``jobs``-wide.

    ``jobs=None`` uses every core; ``jobs<=1`` runs serially in-process
    (sharing the caller's ``AppRun`` cache).  Rows come back in input order.
    ``backend`` (``"auto"`` or an engine name) additionally executes the
    test input per app on the selected engine — see :func:`sweep_app`;
    ``backend_fallback`` permits bitpacked substitution for explicit
    requests that are infeasible on some apps (otherwise those apps fail
    their rows loudly).
    """
    targets = list(apps) if apps is not None else app_names()
    for abbr in targets:
        if abbr not in APPS:
            raise KeyError(f"unknown application {abbr!r}")
    cfg = config or default_config()
    if jobs is None:
        jobs = os.cpu_count() or 1
    payloads = [(abbr, cfg, fraction, backend, backend_fallback) for abbr in targets]
    if jobs <= 1 or len(targets) <= 1:
        return [_sweep_worker(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(targets))) as executor:
        return list(executor.map(_sweep_worker, payloads))


def render_sweep(rows: Sequence[AppSweepRow]) -> str:
    """Human-readable sweep table (one row per application)."""
    body = [
        [
            row.abbr,
            row.group,
            row.n_states,
            row.n_automata,
            f"{100.0 * row.hot_fraction:.1f}%",
            row.baseline_batches,
            row.spap_stall_cycles,
            row.n_intermediate_reports,
            row.queue_refills,
            f"{row.prediction_accuracy:.3f}",
            f"{row.static_accuracy:.3f}",
            row.n_classes,
            f"{row.backend}{'*' if row.dfa_safe else ''}",
            f"{row.backend_mb_s:.1f}" if row.backend_mb_s > 0 else "-",
            f"{100.0 * row.reduce_saving:.1f}%",
            f"{row.spap_speedup:.2f}x",
            f"{row.ap_cpu_speedup:.2f}x",
            f"{100.0 * row.resource_saving:.1f}%",
            f"{row.seconds:.2f}s",
        ]
        for row in rows
    ]
    # Backend column: the engine that actually executed (or, when no
    # --backend was requested, the advisory's recommendation); '*' marks
    # networks proven DFA-safe within the default subset-construction
    # budget (repro.cost).  MB/s is '-' unless a backend was executed.
    # Reduce column: SPAP-R state saving.  "Saved" remains the paper's
    # Fig-10 *resource* saving — distinct.
    return render_table(
        ["App", "Group", "States", "NFAs", "Hot", "Batches", "Stalls",
         "IRs", "Refills", "PredAcc", "StatAcc", "Classes", "Backend",
         "MB/s", "Reduce", "SpAP", "AP-CPU", "Saved", "Wall"],
        body,
    )


def sweep_summary(rows: Sequence[AppSweepRow]) -> dict:
    """Aggregate view of a sweep: geomean speedups and counter totals.

    Geometric means are the paper's summary statistic for speedups
    (Fig 10); counters are summed across applications.
    """
    if not rows:
        raise ValueError("summary of an empty sweep")
    return {
        "n_apps": len(rows),
        "geomean_spap_speedup": geometric_mean(row.spap_speedup for row in rows),
        "geomean_ap_cpu_speedup": geometric_mean(row.ap_cpu_speedup for row in rows),
        "mean_resource_saving": sum(row.resource_saving for row in rows) / len(rows),
        "mean_reduce_saving": sum(row.reduce_saving for row in rows) / len(rows),
        # State ratio after/before per app (1.0 when nothing was reducible
        # or the network is empty), geomean'd like the speedups.
        "geomean_reduce_state_ratio": geometric_mean(
            (row.n_states_reduced / row.n_states)
            if row.n_states and row.n_states_reduced
            else 1.0
            for row in rows
        ),
        "mean_prediction_accuracy":
            sum(row.prediction_accuracy for row in rows) / len(rows),
        "mean_static_accuracy":
            sum(row.static_accuracy for row in rows) / len(rows),
        "total_statically_dead":
            sum(row.n_statically_dead for row in rows),
        "mean_class_count":
            sum(row.n_classes for row in rows) / len(rows),
        "fraction_dfa_safe":
            sum(1 for row in rows if row.dfa_safe) / len(rows),
        "total_intermediate_reports":
            sum(row.n_intermediate_reports for row in rows),
        "total_queue_refills": sum(row.queue_refills for row in rows),
        "total_device_bytes": sum(row.device_bytes for row in rows),
        "total_stall_cycles": sum(row.spap_stall_cycles for row in rows),
    }
