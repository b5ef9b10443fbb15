"""Equivalence-preserving automata reduction (the SPAP-R analyzer).

The fourth static analyzer beside ``repro.verify`` / ``repro.semant`` /
``repro.cost``: backward-bisimulation partition refinement over the
homogeneous NFA semantics, fused with semant's dead-state proofs into a
:func:`reduce_network` transform that emits a smaller network, per-merge
proof artifacts, and a state-mapping table that lifts reports and witness
masks back to original global state ids bit for bit.  DESIGN.md §15
documents the algorithm and the soundness argument; findings surface
through ``verify.diagnostics`` as the SPAP-R rule family.
"""

from .app import ReduceOutcome, ReduceSummary, analyze_run_reduce, reduce_app
from .partition import Partition, initial_partition, refine_backward, refinement_round
from .transform import (
    RULE_BACKWARD,
    RULE_DEAD,
    MergeProof,
    ReductionResult,
    element_pinned_gids,
    reduce_element_network,
    reduce_network,
)

__all__ = [
    "RULE_BACKWARD",
    "RULE_DEAD",
    "Partition",
    "MergeProof",
    "ReductionResult",
    "ReduceOutcome",
    "ReduceSummary",
    "analyze_run_reduce",
    "element_pinned_gids",
    "initial_partition",
    "reduce_app",
    "reduce_element_network",
    "reduce_network",
    "refine_backward",
    "refinement_round",
]
