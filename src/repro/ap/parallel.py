"""Parallel Automata Processor model (paper ref [31], §I/§VIII).

The Parallel AP trades STEs for throughput: the input is split into ``k``
segments processed concurrently by ``k`` copies of the automaton, so the
application's footprint grows ``k``-fold — exactly the state-growth pressure
the paper's SparseAP addresses.  The paper argues the two are complementary
(§VIII): eliminating cold states frees the resources parallel execution
wants.  The ablation benchmark quantifies that synergy.

Model: each segment ``i`` re-processes an *overlap* window before its start
so matches ending inside the segment are complete (enough for acyclic
machines whose longest match is bounded by their topological depth; for
cyclic machines callers must supply a safe overlap).  A report belongs to
the segment its position falls in, which dedupes the overlap region.
Cycles per configuration pass = the longest segment including overlap;
batches follow from the ``k``-duplicated footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..nfa.analysis import analyze_network
from ..nfa.automaton import Network, StartKind
from ..nfa.determinize import subset_core
from ..nfa.transforms import duplicate_network
from ..sim.engine import as_input_array, run
from ..sim.result import reports_to_array
from .batching import batch_network
from .config import APConfig

__all__ = ["ParallelOutcome", "run_parallel_ap"]


@dataclass
class ParallelOutcome:
    """Parallel-AP execution of one application."""

    n_segments: int
    n_batches: int
    segment_cycles: int  # longest per-segment pass (overlap included)
    n_symbols: int
    reports: np.ndarray

    @property
    def cycles(self) -> int:
        """Total cycles: every batch runs all segments concurrently, so one
        pass costs the longest segment."""
        return self.n_batches * self.segment_cycles


def run_parallel_ap(
    network: Network,
    input_data,
    config: APConfig,
    segments: int,
    *,
    overlap: Optional[int] = None,
) -> ParallelOutcome:
    """Execute ``network`` over ``segments`` parallel input slices.

    ``overlap`` defaults to the network's maximum topological order minus
    one — sufficient for acyclic machines.  Raises ``ValueError`` for
    cyclic machines without an explicit overlap (their matches can span
    arbitrarily far back).
    """
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    symbols = as_input_array(input_data)
    n = int(symbols.size)

    topology = analyze_network(network)
    if overlap is None:
        has_cycle = any((t.scc_size > 1).any() for t in topology.per_automaton)
        has_self_loop = any(
            src == dst for a in network.automata for src, dst in a.edges()
        )
        if has_cycle or has_self_loop:
            raise ValueError(
                "cyclic machines need an explicit overlap (matches are unbounded)"
            )
        overlap = max(0, topology.max_topo - 1)

    if any(
        state.start is StartKind.START_OF_DATA
        for _g, _a, state in network.global_states()
    ):
        raise ValueError("start-of-data machines cannot be input-partitioned")

    # Footprint: k copies of the application, batched as usual.
    duplicated = duplicate_network(network, segments)
    n_batches = len(batch_network(duplicated, config.capacity))

    # Every segment walks the one subset core of the network (the segments
    # are the k concurrent copies of the Parallel AP).
    segment_len = (n + segments - 1) // segments
    core = subset_core(network)
    merged: List[np.ndarray] = []
    longest = 0
    for index in range(segments):
        begin = index * segment_len
        end = min(n, begin + segment_len)
        if begin >= end:
            continue
        window_start = max(0, begin - overlap)
        longest = max(longest, end - window_start)
        result = run(core, symbols[window_start:end], track_enabled=False)
        if result.reports.size:
            reports = result.reports.copy()
            reports[:, 0] += window_start
            # Keep only reports owned by this segment (dedupes the overlap).
            owned = (reports[:, 0] >= begin) & (reports[:, 0] < end)
            merged.append(reports[owned])
    reports = (
        reports_to_array(np.concatenate(merged)) if merged else reports_to_array([])
    )
    return ParallelOutcome(
        n_segments=segments,
        n_batches=n_batches,
        segment_cycles=longest,
        n_symbols=n,
        reports=reports,
    )
