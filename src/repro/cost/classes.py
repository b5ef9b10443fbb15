"""Symbol-class compression accounting (CAMA's observation, statically).

CAMA (PAPERS.md) shrinks 8-bit transition tables to the few dozen symbol
*classes* an application actually distinguishes.  This module computes that
effective class count per partition — the class count of the same
subset core determinization compresses columns with — and the resulting
transition-table sizes under the two encodings the engines use:

* **dense**: one row per byte value (a 256-row accept matrix, the AP's
  DRAM-row layout) — ``256 * n_words * 8`` bytes;
* **class-compressed**: one row per equivalence class plus a 256-entry
  byte->class map — ``n_classes * n_words * 8 + 256`` bytes.

The ratio between the two is the static headroom a class-indexed backend
(table-driven DFA, or a class-compressed accept matrix) has over the 8-bit
layout, before any dynamic effect is considered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .. import bitops
from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core
from ..nfa.symbolset import ALPHABET_SIZE

__all__ = ["ClassAnalysis", "analyze_symbol_classes"]


@dataclass(frozen=True)
class ClassAnalysis:
    """Alphabet-class accounting for one network (or partition)."""

    n_states: int
    n_words: int  # packed 64-bit words per state vector
    n_classes: int  # effective alphabet size
    n_distinct_symbol_sets: int
    table_bytes_dense: int  # 256-row accept matrix
    table_bytes_classed: int  # class rows + byte->class map

    @property
    def compression_ratio(self) -> float:
        """Dense-over-classed size: >1 means class compression pays."""
        if self.table_bytes_classed == 0:
            return 1.0
        return self.table_bytes_dense / self.table_bytes_classed

    def to_json(self) -> Dict[str, object]:
        return {
            "n_states": self.n_states,
            "n_classes": self.n_classes,
            "n_distinct_symbol_sets": self.n_distinct_symbol_sets,
            "table_bytes_dense": self.table_bytes_dense,
            "table_bytes_classed": self.table_bytes_classed,
            "compression_ratio": self.compression_ratio,
        }


def analyze_symbol_classes(
    network: Network, *, core: Optional[SubsetCore] = None
) -> ClassAnalysis:
    """Compute the effective alphabet-class count and table sizes
    (``core``: ``network``'s subset core when the caller already holds it)."""
    n = network.n_states
    n_words = bitops.num_words(max(n, 1))
    if n == 0:
        return ClassAnalysis(
            n_states=0,
            n_words=n_words,
            n_classes=1,
            n_distinct_symbol_sets=0,
            table_bytes_dense=ALPHABET_SIZE * n_words * 8,
            table_bytes_classed=1 * n_words * 8 + ALPHABET_SIZE,
        )
    n_classes = (subset_core(network) if core is None else core).n_classes
    distinct = {state.symbol_set for _g, _a, state in network.global_states()}
    return ClassAnalysis(
        n_states=n,
        n_words=n_words,
        n_classes=n_classes,
        n_distinct_symbol_sets=len(distinct),
        table_bytes_dense=ALPHABET_SIZE * n_words * 8,
        table_bytes_classed=n_classes * n_words * 8 + ALPHABET_SIZE,
    )
