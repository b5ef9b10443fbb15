"""End-to-end reduction analysis of one registry application.

Drives the cached experiment pipeline exactly as ``verify_app`` /
``semant_app`` / ``cost_app`` do, but through the SPAP-R reducer: build
the scaled network, reduce it, structurally verify the mapping and merge
classes (SPAP-R002/R003 — always on), re-price the parent and reduced
networks through the cost model's :func:`advise_network`, and optionally
replay the reduced network through ``sim/reference.py`` against the
pipeline's truth run (SPAP-R001 — the soundness gate).  Used by the
``python -m repro reduce`` CLI, the stats collector, the sweep column,
and the CI reduce-smoke gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

import numpy as np

from .. import bitops
from ..ap.batching import pack_batches
from ..cost.advisory import BackendAdvisory, advise_network
from ..cost.explore import DEFAULT_DFA_BUDGET
from ..cost.model import CostModel, DEFAULT_COST_MODEL
from ..experiments.config import ExperimentConfig, default_config
from ..experiments.pipeline import AppRun
from ..nfa.automaton import Network, State
from ..sim.reference import reference_run
from ..sim.result import reports_equal
from ..verify.diagnostics import VerificationReport
from ..workloads.registry import get_app
from .transform import ReductionResult

__all__ = ["ReduceSummary", "ReduceOutcome", "analyze_run_reduce", "reduce_app"]


@dataclass(frozen=True)
class ReduceSummary:
    """Reduction accounting plus the cost-model interplay for one app."""

    app: str
    budget: int
    states_before: int
    states_after: int
    n_automata_before: int
    n_automata_after: int
    n_dead_stripped: int
    n_backward_merged: int
    baseline_batches_before: int
    baseline_batches_after: int
    dfa_safe_before: bool
    dfa_safe_after: bool
    dfa_states_before: Optional[int]
    dfa_states_after: Optional[int]
    table_bytes_before: int
    table_bytes_after: int
    recommended_before: str
    recommended_after: str

    @property
    def saved_states(self) -> int:
        return self.states_before - self.states_after

    @property
    def saving(self) -> float:
        if self.states_before == 0:
            return 0.0
        return self.saved_states / float(self.states_before)

    @property
    def cost_improved(self) -> bool:
        """Whether the reduced network is strictly cheaper to compile.

        True on a DFA-safety flip (unsafe -> safe), a smaller materialized
        DFA, or a smaller class-compressed table.  Table bytes have 64-state
        word granularity (``ceil(n/64)`` words per row), so small strips may
        legitimately leave them unchanged.
        """
        if self.dfa_safe_after and not self.dfa_safe_before:
            return True
        if (
            self.dfa_states_before is not None
            and self.dfa_states_after is not None
            and self.dfa_states_after < self.dfa_states_before
        ):
            return True
        return self.table_bytes_after < self.table_bytes_before

    def to_json(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "budget": self.budget,
            "states_before": self.states_before,
            "states_after": self.states_after,
            "saved_states": self.saved_states,
            "saving": self.saving,
            "n_automata_before": self.n_automata_before,
            "n_automata_after": self.n_automata_after,
            "merges": {
                "dead_stripped": self.n_dead_stripped,
                "backward_merged": self.n_backward_merged,
            },
            "baseline_batches_before": self.baseline_batches_before,
            "baseline_batches_after": self.baseline_batches_after,
            "cost": {
                "dfa_safe_before": self.dfa_safe_before,
                "dfa_safe_after": self.dfa_safe_after,
                "dfa_states_before": self.dfa_states_before,
                "dfa_states_after": self.dfa_states_after,
                "table_bytes_before": self.table_bytes_before,
                "table_bytes_after": self.table_bytes_after,
                "recommended_before": self.recommended_before,
                "recommended_after": self.recommended_after,
                "improved": self.cost_improved,
            },
        }

    def render(self) -> str:
        lines = [
            f"{self.app}: {self.states_before} -> {self.states_after} states "
            f"({100.0 * self.saving:.1f}% saved; "
            f"{self.n_dead_stripped} dead, {self.n_backward_merged} backward)"
        ]
        safe = f"dfa_safe {self.dfa_safe_before} -> {self.dfa_safe_after}"
        table = f"table {self.table_bytes_before} -> {self.table_bytes_after} B"
        backend = f"backend {self.recommended_before} -> {self.recommended_after}"
        marker = " [improved]" if self.cost_improved else ""
        lines.append(f"  cost: {safe}, {table}, {backend}{marker}")
        lines.append(
            f"  batches: {self.baseline_batches_before} -> "
            f"{self.baseline_batches_after}"
        )
        return "\n".join(lines)


@dataclass
class ReduceOutcome:
    """Reduction summary plus the SPAP-R diagnostics for one application."""

    summary: ReduceSummary
    reduction: ReductionResult
    report: VerificationReport

    @property
    def ok(self) -> bool:
        """True when no soundness rule (ERROR severity) fired."""
        return self.report.ok

    def to_json(self) -> Dict[str, object]:
        return {"summary": self.summary.to_json(), "report": self.report.to_json()}

    def render(self) -> str:
        return self.summary.render()


def _attribute_tuple(state: State) -> object:
    return (
        state.symbol_set.mask,
        state.start,
        state.reporting,
        state.report_code,
        state.eod,
    )


def _check_mapping(
    parent: Network, reduction: ReductionResult, report: VerificationReport
) -> None:
    """SPAP-R002: state_map and members must be a sound, consistent cover."""
    state_map = reduction.state_map
    n_parent = parent.n_states
    n_reduced = reduction.network.n_states
    where = f"{reduction.network.name}"
    if state_map.size != n_parent:
        report.emit(
            "SPAP-R002",
            f"state_map covers {state_map.size} states, parent has {n_parent}",
            location=where,
        )
        return
    kept = state_map >= 0
    if kept.any() and int(state_map[kept].max()) >= n_reduced:
        report.emit(
            "SPAP-R002",
            f"state_map points past the reduced network "
            f"(max {int(state_map[kept].max())} >= {n_reduced})",
            location=where,
        )
    if len(reduction.members) != n_reduced:
        report.emit(
            "SPAP-R002",
            f"members table has {len(reduction.members)} entries, "
            f"reduced network has {n_reduced} states",
            location=where,
        )
        return
    seen = np.zeros(n_parent, dtype=bool)
    for reduced_gid, group in enumerate(reduction.members):
        if not group:
            report.emit(
                "SPAP-R002",
                f"reduced state {reduced_gid} has no parent members",
                location=where,
            )
            continue
        for parent_gid in group:
            if not 0 <= parent_gid < n_parent:
                report.emit(
                    "SPAP-R002",
                    f"member {parent_gid} of reduced state {reduced_gid} "
                    "is not a parent state",
                    location=where,
                )
                continue
            if seen[parent_gid]:
                report.emit(
                    "SPAP-R002",
                    f"parent state {parent_gid} appears in two classes",
                    location=where,
                )
            seen[parent_gid] = True
            if int(state_map[parent_gid]) != reduced_gid:
                report.emit(
                    "SPAP-R002",
                    f"member/state_map disagree on parent state {parent_gid}: "
                    f"{int(state_map[parent_gid])} vs {reduced_gid}",
                    location=where,
                )
    if not np.array_equal(seen, kept):
        report.emit(
            "SPAP-R002",
            "members do not cover exactly the kept parent states",
            location=where,
        )
    n_stripped = int((~kept).sum())
    if n_stripped != reduction.n_dead_stripped:
        report.emit(
            "SPAP-R002",
            f"{n_stripped} parent states map to -1 but the strip proofs "
            f"account for {reduction.n_dead_stripped}",
            location=where,
        )


def _check_classes(
    parent: Network, reduction: ReductionResult, report: VerificationReport
) -> None:
    """SPAP-R003: every merge class must be attribute-homogeneous."""
    parent_states = [state for _gid, _a, state in parent.global_states()]
    reduced_states = [state for _gid, _a, state in reduction.network.global_states()]
    if len(reduced_states) != len(reduction.members):
        return  # R002 already fired on the shape mismatch
    for reduced_gid, group in enumerate(reduction.members):
        want = _attribute_tuple(reduced_states[reduced_gid])
        for parent_gid in group:
            if not 0 <= parent_gid < len(parent_states):
                continue  # R002 already fired
            got = _attribute_tuple(parent_states[parent_gid])
            if got != want:
                report.emit(
                    "SPAP-R003",
                    f"parent state {parent_gid} disagrees with its class "
                    f"survivor {reduced_gid} on {got} vs {want}",
                    location=reduction.network.name,
                )


def _check_replay(
    run: AppRun, reduction: ReductionResult, report: VerificationReport
) -> None:
    """SPAP-R001: reduced-network reference replay must lift to the truth."""
    truth = run.truth
    reduced_result = reference_run(reduction.network, run.test_input)
    lifted = reduction.lift_result(reduced_result)
    where = run.spec.abbr
    if not reports_equal(lifted.reports, truth.reports):
        report.emit(
            "SPAP-R001",
            f"lifted reports diverge from the unreduced truth "
            f"({lifted.reports.shape[0]} vs {truth.reports.shape[0]} reports)",
            location=where,
        )
    n = run.network.n_states
    lifted_mask = bitops.to_bool(lifted.ever_enabled, n)
    truth_mask = bitops.to_bool(truth.ever_enabled, n)
    if not np.array_equal(lifted_mask, truth_mask):
        diff = int(np.count_nonzero(lifted_mask != truth_mask))
        report.emit(
            "SPAP-R001",
            f"lifted witness mask differs from the truth on {diff} states",
            location=where,
        )


def _baseline_batches(network: Network, capacity: int) -> int:
    """Baseline batch count, or 0 when the network is empty or has an NFA
    too large for the AP at this capacity (the batch columns are
    informational; unpackable networks must not fail the analyzer)."""
    if not network.automata:
        return 0
    try:
        return len(
            pack_batches([a.n_states for a in network.automata], capacity)
        )
    except ValueError:
        return 0


def analyze_run_reduce(
    run: AppRun,
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    model: CostModel = DEFAULT_COST_MODEL,
    check: bool = False,
) -> ReduceOutcome:
    """Reduce an already-built pipeline run and verify the result.

    The structural rules (SPAP-R002/R003) always run; ``check=True``
    additionally replays the reduced network through the reference
    simulator on the run's test input and compares lifted reports and
    witness masks against the unreduced truth (SPAP-R001) — the expensive
    half, on by default only in the CI gate and the CLI's ``--check``.
    """
    reduction = run.reduced
    parent = run.network
    report = VerificationReport(subject=f"{run.spec.abbr} [reduce]")
    with run.stats.stage("reduce"):
        _check_mapping(parent, reduction, report)
        _check_classes(parent, reduction, report)
        if reduction.saved_states == 0:
            report.emit(
                "SPAP-R004",
                "network is already minimal: no dead state and no two "
                "backward-bisimilar states",
                location=run.spec.abbr,
            )
        horizon = run.config.input_len
        before = advise_network(parent, budget=budget, horizon=horizon, model=model)
        after: Optional[BackendAdvisory] = None
        if reduction.network.n_states > 0:
            # Nothing reduced: the reduced network is the parent's own, so
            # exploring it again would repeat the parent's walk.
            after = before if reduction.saved_states == 0 else advise_network(
                reduction.network,
                partition="reduced",
                budget=budget,
                horizon=horizon,
                model=model,
            )
    if check:
        _check_replay(run, reduction, report)
    capacity = run.config.half_core.capacity
    summary = ReduceSummary(
        app=run.spec.abbr,
        budget=budget,
        states_before=reduction.parent_n_states,
        states_after=reduction.n_states,
        n_automata_before=parent.n_automata,
        n_automata_after=reduction.network.n_automata,
        n_dead_stripped=reduction.n_dead_stripped,
        n_backward_merged=reduction.n_backward_merged,
        baseline_batches_before=_baseline_batches(parent, capacity),
        baseline_batches_after=_baseline_batches(reduction.network, capacity),
        dfa_safe_before=before.dfa_safe,
        dfa_safe_after=bool(after is not None and after.dfa_safe),
        dfa_states_before=before.dfa_states,
        dfa_states_after=None if after is None else after.dfa_states,
        table_bytes_before=before.classes.table_bytes_classed,
        table_bytes_after=0 if after is None else after.classes.table_bytes_classed,
        recommended_before=before.recommended,
        recommended_after="-" if after is None else after.recommended,
    )
    return ReduceOutcome(summary=summary, reduction=reduction, report=report)


def reduce_app(
    abbr: str,
    config: Optional[ExperimentConfig] = None,
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    model: CostModel = DEFAULT_COST_MODEL,
    check: bool = False,
) -> ReduceOutcome:
    """Reduce one application end-to-end.

    Builds the scaled network, reduces it (strips proven-dead states and
    merges backward-bisimilar ones, preserving reports *and* witness masks
    bit for bit), and re-prices both networks through the cost model.
    Never raises on findings.
    """
    cfg = config or default_config()
    if cfg.verify:
        # Like verify_app/semant_app: the analysis must not fail fast mid-build.
        cfg = replace(cfg, verify=False)
    spec = get_app(abbr)  # raises KeyError for unknown apps (CLI maps to exit 2)
    run = AppRun(spec, cfg)
    return analyze_run_reduce(run, budget=budget, model=model, check=check)
