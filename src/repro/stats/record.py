"""The unified runtime-statistics record.

:class:`RunStats` gathers in one typed place every counter the paper's
evaluation (§VI) is built from, previously scattered across
``BaselineOutcome``, ``PartitionedOutcome``, ``ReportQueueUsage``,
``SimResult``, and ``PredictionQuality``:

* baseline executions and cycles (Table IV "Exe");
* BaseAP cycles, SpAP consumed vs. enable-stall cycles and the jump ratio
  (Table IV "JumpRatio"/"EStalls");
* intermediate-report counts, queue refills, and device-memory traffic
  (§V-B's 128-entry on-chip queue);
* hot fraction and hot/cold prediction quality (Fig 1, Table I);
* the profile-free static prediction and dead/never-reporting proofs
  (``repro.semant``), reported beside the profiled predictor;
* the compilability/cost advisories (``repro.cost``): DFA-safety proofs,
  symbol-class table compression, and the recommended backend per
  partition (schema v3);
* the speedup/resource-saving summary metrics (Fig 10);
* per-stage wall-time spans from the pipeline's :class:`StageTimer`.

``to_json()`` emits the versioned document validated by
:mod:`repro.stats.schema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .recorder import Span
from .schema import SCHEMA_VERSION

__all__ = ["PartitionCostStats", "RunStats", "render_stats"]


@dataclass(frozen=True)
class PartitionCostStats:
    """One partition's backend advisory, flattened for the stats export.

    A deliberately thin mirror of ``repro.cost.BackendAdvisory`` so this
    module stays import-cycle-free (the cost subsystem itself times its
    work through ``repro.stats``).
    """

    name: str  # "network", "hot", or "cold"
    n_states: int
    n_classes: int
    dfa_safe: bool
    dfa_states: Optional[int]  # proven subset-state count; None when unsafe
    recommended: str  # cheapest feasible backend per the cost model
    margin: float  # runner-up/winner predicted-cost ratio

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "n_states": self.n_states,
            "n_classes": self.n_classes,
            "dfa_safe": self.dfa_safe,
            "dfa_states": self.dfa_states,
            "recommended": self.recommended,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class RunStats:
    """All runtime counters for one application at one operating point."""

    app: str
    full_name: str
    group: str
    # workload
    scale: int
    input_len: int
    profile_fraction: float
    capacity: int
    n_states: int
    n_automata: int
    # baseline AP
    baseline_batches: int
    baseline_cycles: int
    # BaseAP/SpAP
    n_hot_batches: int
    n_cold_batches: int
    base_cycles: int
    spap_consumed_cycles: int
    spap_stall_cycles: int
    spap_cycles: int
    n_intermediate_reports: int
    jump_ratio: Optional[float]
    # intermediate-report queue (§V-B)
    queue_refills: int
    device_bytes: int
    on_chip_bytes: int
    # AP-CPU
    cpu_seconds: float
    cpu_intermediate_reports: int
    # hot/cold prediction
    hot_fraction: float
    predicted_hot_fraction: float
    prediction_accuracy: float
    prediction_precision: float
    prediction_recall: float
    # static semantic analysis (repro.semant)
    n_statically_dead: int
    n_never_reporting: int
    static_hot_fraction: float
    static_accuracy: float
    static_precision: float
    static_recall: float
    # summary metrics
    spap_speedup: float
    ap_cpu_speedup: float
    resource_saving: float
    # compilability/cost analysis (repro.cost, schema v3)
    cost_budget: int = 0
    # backend execution record (schema v4): what was asked for and what
    # actually ran; both null when the collection executed no backend.
    backend_requested: Optional[str] = None
    backend_selected: Optional[str] = None
    cost_n_classes: int = 0
    cost_table_bytes_dense: int = 0
    cost_table_bytes_classed: int = 0
    cost_class_compression_ratio: float = 1.0
    cost_dfa_safe_fraction: float = 0.0
    cost_partitions: List[PartitionCostStats] = field(default_factory=list)
    # equivalence-preserving reduction (repro.reduce)
    reduce_states_before: int = 0
    reduce_states_after: int = 0
    reduce_saving: float = 0.0
    reduce_dead_stripped: int = 0
    reduce_backward_merged: int = 0
    reduce_batches_before: int = 0
    reduce_batches_after: int = 0
    # pipeline stage timings
    stages: List[Span] = field(default_factory=list)

    def to_json(self) -> dict:
        """The versioned export document (see ``repro.stats.schema``)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "app": self.app,
            "full_name": self.full_name,
            "group": self.group,
            "workload": {
                "scale": self.scale,
                "input_len": self.input_len,
                "profile_fraction": self.profile_fraction,
                "capacity": self.capacity,
                "n_states": self.n_states,
                "n_automata": self.n_automata,
            },
            "baseline": {
                "n_batches": self.baseline_batches,
                "cycles": self.baseline_cycles,
            },
            "spap": {
                "n_hot_batches": self.n_hot_batches,
                "n_cold_batches": self.n_cold_batches,
                "base_cycles": self.base_cycles,
                "consumed_cycles": self.spap_consumed_cycles,
                "stall_cycles": self.spap_stall_cycles,
                "cycles": self.spap_cycles,
                "n_intermediate_reports": self.n_intermediate_reports,
                "jump_ratio": self.jump_ratio,
            },
            "queue": {
                "refills": self.queue_refills,
                "device_bytes": self.device_bytes,
                "on_chip_bytes": self.on_chip_bytes,
            },
            "ap_cpu": {
                "cpu_seconds": self.cpu_seconds,
                "n_intermediate_reports": self.cpu_intermediate_reports,
            },
            "prediction": {
                "hot_fraction": self.hot_fraction,
                "predicted_hot_fraction": self.predicted_hot_fraction,
                "accuracy": self.prediction_accuracy,
                "precision": self.prediction_precision,
                "recall": self.prediction_recall,
            },
            "semant": {
                "n_statically_dead": self.n_statically_dead,
                "n_never_reporting": self.n_never_reporting,
                "static_hot_fraction": self.static_hot_fraction,
                "accuracy": self.static_accuracy,
                "precision": self.static_precision,
                "recall": self.static_recall,
            },
            "speedups": {
                "spap": self.spap_speedup,
                "ap_cpu": self.ap_cpu_speedup,
                "resource_saving": self.resource_saving,
            },
            "cost": {
                "budget": self.cost_budget,
                "requested_backend": self.backend_requested,
                "selected_backend": self.backend_selected,
                "n_classes": self.cost_n_classes,
                "table_bytes_dense": self.cost_table_bytes_dense,
                "table_bytes_classed": self.cost_table_bytes_classed,
                "class_compression_ratio": self.cost_class_compression_ratio,
                "dfa_safe_fraction": self.cost_dfa_safe_fraction,
                "partitions": [p.to_json() for p in self.cost_partitions],
            },
            "reduce": {
                "states_before": self.reduce_states_before,
                "states_after": self.reduce_states_after,
                "saving": self.reduce_saving,
                "merges": {
                    "dead_stripped": self.reduce_dead_stripped,
                    "backward_merged": self.reduce_backward_merged,
                },
                "baseline_batches_before": self.reduce_batches_before,
                "baseline_batches_after": self.reduce_batches_after,
            },
            "stages": [span.to_json() for span in self.stages],
        }


def render_stats(stats: RunStats) -> str:
    """Human-readable block for one application (the non-``--json`` CLI view)."""
    lines = [
        f"{stats.app} ({stats.full_name}, {stats.group}): "
        f"{stats.n_states} states, {stats.n_automata} NFAs, "
        f"capacity {stats.capacity}, input {stats.input_len} B, "
        f"profile {100 * stats.profile_fraction:g}%",
        f"  baseline AP : {stats.baseline_batches} batches, "
        f"{stats.baseline_cycles} cycles",
        f"  BaseAP      : {stats.n_hot_batches} hot batches, "
        f"{stats.base_cycles} cycles",
        f"  SpAP        : {stats.n_cold_batches} cold batches, "
        f"{stats.spap_consumed_cycles} consumed + {stats.spap_stall_cycles} stall "
        f"= {stats.spap_cycles} cycles"
        + (f", jump ratio {stats.jump_ratio:.3f}" if stats.jump_ratio is not None else ""),
        f"  reports     : {stats.n_intermediate_reports} intermediate -> "
        f"{stats.queue_refills} queue refills, {stats.device_bytes} device bytes "
        f"({stats.on_chip_bytes} B on-chip)",
        f"  AP-CPU      : {1e6 * stats.cpu_seconds:.1f} us handler for "
        f"{stats.cpu_intermediate_reports} reports",
        f"  prediction  : hot {100 * stats.hot_fraction:.1f}% actual / "
        f"{100 * stats.predicted_hot_fraction:.1f}% predicted; "
        f"acc {stats.prediction_accuracy:.3f}, "
        f"prec {stats.prediction_precision:.3f}, "
        f"recall {stats.prediction_recall:.3f}",
        f"  semant      : {stats.n_statically_dead} proven dead, "
        f"{stats.n_never_reporting} never-reporting; "
        f"static hot {100 * stats.static_hot_fraction:.1f}% predicted; "
        f"acc {stats.static_accuracy:.3f}, "
        f"prec {stats.static_precision:.3f}, "
        f"recall {stats.static_recall:.3f}",
        f"  speedups    : SpAP {stats.spap_speedup:.2f}x, "
        f"AP-CPU {stats.ap_cpu_speedup:.2f}x, "
        f"resources saved {100 * stats.resource_saving:.1f}%",
    ]
    if stats.cost_partitions:
        verdicts = ", ".join(
            f"{p.name} {'DFA<=' + str(p.dfa_states) if p.dfa_safe else 'NFA-only'}"
            f"->{p.recommended}"
            for p in stats.cost_partitions
        )
        backend_note = ""
        if stats.backend_selected is not None:
            requested = stats.backend_requested or "auto"
            backend_note = (
                f"; ran {stats.backend_selected} (requested {requested})"
            )
        lines.append(
            f"  cost        : {stats.cost_n_classes} classes "
            f"({stats.cost_class_compression_ratio:.1f}x table compression), "
            f"budget {stats.cost_budget}; {verdicts}{backend_note}"
        )
    if stats.reduce_states_before:
        lines.append(
            f"  reduce      : {stats.reduce_states_before} -> "
            f"{stats.reduce_states_after} states "
            f"({100 * stats.reduce_saving:.1f}% saved); "
            f"{stats.reduce_dead_stripped} dead, "
            f"{stats.reduce_backward_merged} backward; "
            f"batches {stats.reduce_batches_before} -> {stats.reduce_batches_after}"
        )
    if stats.stages:
        spans = "  ".join(
            f"{span.name} {span.seconds * 1e3:.1f}ms/{span.calls}" for span in stats.stages
        )
        lines.append(f"  stages      : {spans}")
    return "\n".join(lines)
