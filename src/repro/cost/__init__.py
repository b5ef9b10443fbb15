"""Static compilability & cost analysis (``repro.cost``).

The third static-analysis subsystem, beside the structural verifier
(:mod:`repro.verify`) and the semantic analyzer (:mod:`repro.semant`):
given a partitioned application it *proves* which partitions can be
compiled to a table-driven DFA within a state budget (budgeted subset
construction, no table materialized), accounts the effective symbol-class
alphabet and its table-compression headroom, and prices every engine
backend with a cost model calibrated against the committed engine
benchmarks — fused into per-partition :class:`BackendAdvisory` records and
SPAP-C0xx diagnostics.  The hybrid DFA/NFA engine consumes these
advisories unchanged (ROADMAP: raw engine speed).

CLI: ``python -m repro cost [ABBR ...|--all] [--json] [--budget N]
[--check]``; see DESIGN.md §12 for the soundness argument and the
cost-model calibration.
"""

from .advisory import (
    BackendAdvisory,
    advise_network,
    check_advisory_soundness,
    emit_advisory_diagnostics,
)
from .app import CostOutcome, CostReport, analyze_run_cost, cost_app
from .classes import ClassAnalysis, analyze_symbol_classes
from .explore import DEFAULT_DFA_BUDGET, SubsetExploration, explore_subset_construction
from .model import (
    BACKENDS,
    DEFAULT_COST_MODEL,
    DFA_TABLE_BUDGET,
    CostFeatures,
    CostModel,
    rank_backends,
)

__all__ = [
    "BACKENDS",
    "BackendAdvisory",
    "ClassAnalysis",
    "CostFeatures",
    "CostModel",
    "CostOutcome",
    "CostReport",
    "DEFAULT_COST_MODEL",
    "DEFAULT_DFA_BUDGET",
    "DFA_TABLE_BUDGET",
    "SubsetExploration",
    "advise_network",
    "analyze_run_cost",
    "analyze_symbol_classes",
    "check_advisory_soundness",
    "cost_app",
    "emit_advisory_diagnostics",
    "explore_subset_construction",
    "rank_backends",
]
