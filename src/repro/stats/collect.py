"""Assemble a :class:`RunStats` record from the experiment pipeline.

Drives the cached :class:`~repro.experiments.pipeline.AppRun` through the
baseline, BaseAP/SpAP, and AP-CPU scenarios (each computed once and reused
by any other consumer of the same run) and unifies their counters with the
queue model, the prediction-quality confusion matrix, and the pipeline's
stage timings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.metrics import prediction_quality
from .record import PartitionCostStats, RunStats

if TYPE_CHECKING:  # imported lazily at call time to avoid a package cycle
    from ..experiments.config import ExperimentConfig
    from ..experiments.pipeline import AppRun

__all__ = ["collect_run_stats", "DEFAULT_STATS_FRACTION"]

#: The paper's standard 1% profiling operating point.
DEFAULT_STATS_FRACTION = 0.01


def collect_run_stats(
    abbr: str,
    config: Optional[ExperimentConfig] = None,
    *,
    fraction: float = DEFAULT_STATS_FRACTION,
    app_run: Optional[AppRun] = None,
    requested_backend: Optional[str] = None,
    selected_backend: Optional[str] = None,
) -> RunStats:
    """All runtime statistics for one application at one profiling fraction.

    ``app_run`` short-circuits the registry lookup when the caller already
    holds a pipeline object (the sweep does); otherwise the shared
    :func:`~repro.experiments.pipeline.get_run` cache is used.

    ``requested_backend``/``selected_backend`` record a backend execution
    the caller performed (schema v4): what the operator asked for and the
    engine that actually ran after feasibility resolution.  Both stay null
    when the collection itself executed no backend — the stats document
    never guesses.
    """
    # Deferred: the pipeline itself uses repro.stats for stage timing, so a
    # top-level import here would be circular.
    from ..experiments.config import default_config
    from ..experiments.pipeline import get_run

    cfg = config or default_config()
    run = app_run if app_run is not None else get_run(abbr, cfg)
    ap = cfg.half_core

    baseline = run.baseline(ap)
    spap = run.base_spap(fraction, ap)
    ap_cpu = run.ap_cpu(fraction, ap)
    queue = spap.queue_usage(ap)

    # Table I prediction quality: the layer-closed predicted-hot mask from
    # the profiling run against the ground-truth hot mask on the test input.
    with run.stats.stage("prediction"):
        predicted = run.predicted_hot_mask(fraction)
        truth_mask = run.truth.hot_mask()
        quality = prediction_quality(predicted, truth_mask)
    n_states = run.network.n_states
    predicted_fraction = float(predicted.sum()) / n_states if n_states else 0.0

    # Profile-free counterpart (repro.semant): the same layer-closed mask
    # shape, predicted from depth and symbol-set selectivity alone, plus the
    # abstract interpreter's dead/never-reporting proofs.
    facts = run.semantics
    static = run.static_prediction()
    static_quality = prediction_quality(static.predicted_hot_mask, truth_mask)
    static_fraction = static.n_predicted_hot / n_states if n_states else 0.0

    # Compilability/cost advisories (repro.cost, schema v3).  The fast
    # static half only — the determinization differential stays in the
    # cost-smoke CI gate and the CLI's --check.
    cost = run.cost_outcome(fraction).cost
    parent = cost.network

    # Equivalence-preserving reduction (repro.reduce).  The transform is
    # cheap and static (partition refinement plus strip proofs already
    # cached on the run); the soundness differential stays in the
    # reduce-smoke CI gate and the CLI's --check.
    reduction = run.reduced
    batches_after = 0
    if reduction.network.automata:
        from ..ap.batching import pack_batches

        batches_after = len(
            pack_batches(
                [a.n_states for a in reduction.network.automata], ap.capacity
            )
        )

    return RunStats(
        app=run.spec.abbr,
        full_name=run.spec.full_name,
        group=run.spec.group,
        scale=cfg.scale,
        input_len=cfg.input_len,
        profile_fraction=fraction,
        capacity=ap.capacity,
        n_states=n_states,
        n_automata=run.network.n_automata,
        baseline_batches=baseline.n_batches,
        baseline_cycles=baseline.cycles,
        n_hot_batches=spap.n_hot_batches,
        n_cold_batches=spap.n_cold_batches,
        base_cycles=spap.base_cycles,
        spap_consumed_cycles=spap.spap_consumed_cycles,
        spap_stall_cycles=spap.spap_stall_cycles,
        spap_cycles=spap.spap_cycles,
        n_intermediate_reports=spap.n_intermediate_reports,
        jump_ratio=spap.jump_ratio(),
        queue_refills=queue.refills,
        device_bytes=queue.device_bytes,
        on_chip_bytes=queue.on_chip_bytes,
        cpu_seconds=ap_cpu.cpu_seconds,
        cpu_intermediate_reports=ap_cpu.n_intermediate_reports,
        hot_fraction=run.hot_fraction(),
        predicted_hot_fraction=predicted_fraction,
        prediction_accuracy=quality.accuracy,
        prediction_precision=quality.precision,
        prediction_recall=quality.recall,
        n_statically_dead=facts.n_statically_dead,
        n_never_reporting=facts.n_never_reporting,
        static_hot_fraction=static_fraction,
        static_accuracy=static_quality.accuracy,
        static_precision=static_quality.precision,
        static_recall=static_quality.recall,
        spap_speedup=run.spap_speedup(fraction, ap),
        ap_cpu_speedup=run.ap_cpu_speedup(fraction, ap),
        resource_saving=run.resource_saving(fraction, ap),
        cost_budget=cost.budget,
        backend_requested=requested_backend,
        backend_selected=selected_backend,
        cost_n_classes=parent.classes.n_classes,
        cost_table_bytes_dense=parent.classes.table_bytes_dense,
        cost_table_bytes_classed=parent.classes.table_bytes_classed,
        cost_class_compression_ratio=parent.classes.compression_ratio,
        cost_dfa_safe_fraction=cost.dfa_safe_fraction,
        cost_partitions=[
            PartitionCostStats(
                name=advisory.partition,
                n_states=advisory.n_states,
                n_classes=advisory.classes.n_classes,
                dfa_safe=advisory.dfa_safe,
                dfa_states=advisory.dfa_states,
                recommended=advisory.recommended,
                margin=advisory.margin,
            )
            for advisory in cost.advisories
        ],
        reduce_states_before=reduction.parent_n_states,
        reduce_states_after=reduction.n_states,
        reduce_saving=reduction.saving_fraction,
        reduce_dead_stripped=reduction.n_dead_stripped,
        reduce_backward_merged=reduction.n_backward_merged,
        reduce_batches_before=baseline.n_batches,
        reduce_batches_after=batches_after,
        stages=run.stats.spans(),
    )
