"""End-to-end cost analysis of one registry application.

Drives the cached experiment pipeline exactly as ``verify_app`` and
``semant_app`` do, but through the compilability/cost stack: partition the
application at the standard operating point, then emit one
:class:`~repro.cost.advisory.BackendAdvisory` each for the parent network,
the hot partition (streaming), and the cold partition (event-driven), with
all SPAP-C findings collected on one report.  Used by the
``python -m repro cost`` CLI, the stats collector, the sweep columns, and
the CI cost-smoke gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..experiments.config import ExperimentConfig, default_config
from ..experiments.pipeline import AppRun
from ..verify.diagnostics import VerificationReport
from ..workloads.registry import get_app
from .advisory import (
    BackendAdvisory,
    advise_network,
    check_advisory_soundness,
    emit_advisory_diagnostics,
)
from .explore import DEFAULT_DFA_BUDGET
from .model import CostModel, DEFAULT_COST_MODEL

__all__ = ["CostReport", "CostOutcome", "analyze_run_cost", "cost_app"]


@dataclass(frozen=True)
class CostReport:
    """Per-partition advisories plus aggregates for one application."""

    app: str
    budget: int
    advisories: List[BackendAdvisory]

    def advisory(self, partition: str) -> Optional[BackendAdvisory]:
        for advisory in self.advisories:
            if advisory.partition == partition:
                return advisory
        return None

    @property
    def network(self) -> BackendAdvisory:
        found = self.advisory("network")
        assert found is not None  # the parent network is never empty
        return found

    @property
    def n_dfa_safe(self) -> int:
        return sum(1 for advisory in self.advisories if advisory.dfa_safe)

    @property
    def dfa_safe_fraction(self) -> float:
        if not self.advisories:
            return 0.0
        return self.n_dfa_safe / len(self.advisories)

    def to_json(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "budget": self.budget,
            "n_partitions": len(self.advisories),
            "n_dfa_safe": self.n_dfa_safe,
            "dfa_safe_fraction": self.dfa_safe_fraction,
            "advisories": [advisory.to_json() for advisory in self.advisories],
        }


@dataclass
class CostOutcome:
    """Cost report plus the SPAP-C diagnostics for one application."""

    cost: CostReport
    report: VerificationReport

    @property
    def ok(self) -> bool:
        """True when no soundness rule (ERROR severity) fired."""
        return self.report.ok

    def to_json(self) -> Dict[str, object]:
        return {"cost": self.cost.to_json(), "report": self.report.to_json()}

    def render(self) -> str:
        lines = [f"{self.cost.app}: budget {self.cost.budget}"]
        for advisory in self.cost.advisories:
            lines.append(f"  {advisory.render()}")
        return "\n".join(lines)


def analyze_run_cost(
    run: AppRun,
    *,
    fraction: float,
    budget: int = DEFAULT_DFA_BUDGET,
    model: CostModel = DEFAULT_COST_MODEL,
    check: bool = False,
) -> CostOutcome:
    """Cost-analyze an already-built pipeline run at one operating point.

    ``check=True`` additionally replays every DFA-safety proof through real
    determinization plus a reference-simulation comparison on the run's
    test input (the SPAP-C001 differential) — the expensive half, on by
    default only in the CI gate and the CLI's ``--check``.
    """
    ap = run.config.half_core
    partitioned, _bins = run.partition(fraction, ap)
    prediction = run.static_prediction()  # timed under its own stage
    horizon = run.config.input_len
    networks = {"network": run.network, "hot": partitioned.hot, "cold": partitioned.cold}
    with run.stats.stage("cost"):
        parent = advise_network(
            run.network, budget=budget, horizon=horizon, model=model,
            core=run.subset_core(run.network), prediction=prediction,
        )
        if partitioned.cold.n_states:
            sides = [
                advise_network(
                    networks[name], partition=name, budget=budget,
                    event_driven=name == "cold", horizon=horizon, model=model,
                    core=run.subset_core(networks[name]),
                )
                for name in ("hot", "cold")
            ]
        else:
            # Nothing is cold: the hot network holds the parent's states in
            # the parent's order, so the parent's advisory is also its own.
            sides = [replace(parent, partition="hot")]
        advisories = [parent, *sides]
        report = VerificationReport(subject=f"{run.spec.abbr} [cost]")
        for advisory in advisories:
            emit_advisory_diagnostics(advisory, report)
        if check:
            for advisory in advisories:
                check_advisory_soundness(
                    networks[advisory.partition],
                    advisory,
                    report,
                    replay_input=run.test_input,
                )
    cost = CostReport(app=run.spec.abbr, budget=budget, advisories=advisories)
    return CostOutcome(cost=cost, report=report)


def cost_app(
    abbr: str,
    config: Optional[ExperimentConfig] = None,
    *,
    fraction: Optional[float] = None,
    budget: int = DEFAULT_DFA_BUDGET,
    model: CostModel = DEFAULT_COST_MODEL,
    check: bool = False,
) -> CostOutcome:
    """Cost-analyze one application end-to-end.

    Builds the scaled network, partitions it at ``fraction`` (default: the
    configuration's standard 1%), and fuses the DFA-safety proof, the
    symbol-class accounting, and the backend cost model into per-partition
    advisories.  Never raises on findings.
    """
    cfg = config or default_config()
    if cfg.verify:
        # Like verify_app/semant_app: the analysis must not fail fast mid-build.
        cfg = replace(cfg, verify=False)
    spec = get_app(abbr)  # raises KeyError for unknown apps (CLI maps to exit 2)
    run = AppRun(spec, cfg)
    use_fraction = cfg.profile_fractions[-1] if fraction is None else fraction
    return analyze_run_cost(
        run, fraction=use_fraction, budget=budget, model=model, check=check
    )
