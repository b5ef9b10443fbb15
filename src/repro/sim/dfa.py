"""Table-driven DFA execution backend: one table lookup per input symbol.

The NFA engines pay per-cycle costs proportional to the active-state
count (:mod:`repro.sim.reference`, :func:`repro.sim.engine.run`).
For partitions the budgeted explorer (:mod:`repro.cost.explore`) proves
DFA-safe, neither cost is necessary: subset construction collapses every
enabled set into a single integer state, and execution becomes one dense
table lookup per symbol — the CPU-DFA regime of the paper's §VIII related
work, with CAMA-style symbol-class column compression riding on the
classes of :class:`repro.nfa.determinize.SubsetCore`.

:func:`compile_dfa` materializes :func:`~repro.nfa.determinize.determinize`
output into a dense ``(n_dfa_states, n_classes)`` transition table (uint16
when the state count fits, uint32 otherwise — the same dtype ladder the
cost model's feasibility gate prices via
:func:`repro.cost.model.dfa_entry_bytes`), a symbol→class translation
vector, and flat per-``(state, class)`` report tuples.  :func:`dfa_run`
then executes a tight index-chase loop whose per-symbol work is three list
indexing operations — no NumPy dispatch, no set manipulation — which is
what buys the 10x+ MB/s over the bit-packed engine recorded in
``BENCH_engine.json``.

Feasibility is gated twice, honoring the same limits the advisory uses
(DESIGN.md §13): the subset-state budget (``DEFAULT_DFA_BUDGET``,
surfaced as :class:`~repro.nfa.determinize.DeterminizeError` blowup) and
the materialized-table memory budget
(:data:`repro.cost.model.DFA_TABLE_BUDGET`).  Both failure modes raise
:class:`DfaInfeasibleError`; :func:`dfa_feasible` answers the same
question non-destructively without building any table.

Results are bit-identical to the reference engine — reports *and*, when
``track_enabled`` is requested, the ever-enabled set, recovered from the
subset-construction witness each DFA state carries
(``DFA.subsets``) — property-gated by ``tests/test_dfa_backend.py`` and
the cross-engine suite.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import chain
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import bitops
from ..nfa.automaton import Network
from ..nfa.determinize import DFA, DeterminizeError, SubsetCore, determinize
from ..nfa.symbolset import ALPHABET_SIZE
from .engine import as_input_array
from .result import SimResult, reports_to_array

__all__ = [
    "CompiledDFA",
    "DfaInfeasibleError",
    "compile_determinized",
    "compile_dfa",
    "dfa_feasible",
    "dfa_run",
    "dfa_table_dtype",
]

InputLike = Union[bytes, bytearray, str, np.ndarray, Sequence[int]]


class DfaInfeasibleError(RuntimeError):
    """The network cannot be executed as a table-driven DFA.

    Raised when subset construction bursts the state budget, or when the
    proven DFA's materialized table would exceed the memory budget.
    """


def dfa_table_dtype(n_dfa_states: int) -> "np.dtype[np.unsignedinteger]":
    """Smallest unsigned dtype that can index ``n_dfa_states`` states.

    Must stay consistent with :func:`repro.cost.model.dfa_entry_bytes`, the
    pre-build estimate the feasibility gate prices tables with — pinned by
    a cross-check in ``tests/test_dfa_backend.py``.
    """
    return np.dtype(np.uint16) if n_dfa_states <= 0xFFFF else np.dtype(np.uint32)


def _default_budgets(
    budget: Optional[int], table_budget: Optional[int]
) -> Tuple[int, int]:
    """Resolve the subset-state and table-byte budgets (deferred imports:
    ``repro.cost`` imports ``repro.sim`` modules, so importing it at module
    scope here would create a package cycle)."""
    from ..cost.explore import DEFAULT_DFA_BUDGET
    from ..cost.model import DFA_TABLE_BUDGET

    return (
        DEFAULT_DFA_BUDGET if budget is None else budget,
        DFA_TABLE_BUDGET if table_budget is None else table_budget,
    )


@dataclass
class CompiledDFA:
    """A materialized table-driven DFA, ready for :func:`dfa_run`.

    ``transitions[s, c]`` is the successor DFA state for symbol class
    ``c``; ``reports[s * n_classes + c]`` / ``reports_mid[...]`` are the
    reporting NFA global ids that transition fires (``reports_mid``
    excludes end-of-data reporters and is used at every position except
    the last); ``subset_masks[s]`` is the packed NFA-state membership of
    DFA state ``s`` (for ever-enabled recovery).
    """

    n_states: int  # DFA subset states
    n_nfa_states: int  # global states of the source network
    n_classes: int  # compressed symbol classes (columns)
    n_words: int  # packed words per NFA state vector
    class_of_symbol: np.ndarray  # (256,) symbol -> class index
    transitions: np.ndarray  # (n_states, n_classes) uint16/uint32
    reports: Tuple[Tuple[int, ...], ...]  # flat (state, class) -> gids
    reports_mid: Tuple[Tuple[int, ...], ...]  # same, eod reporters removed
    subset_masks: np.ndarray  # (n_states, n_words) uint64
    _flat: Optional[List[int]] = field(default=None, repr=False, compare=False)
    _flat_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def table_bytes(self) -> int:
        """Actual footprint: transition table plus the byte->class map."""
        return int(self.transitions.nbytes) + ALPHABET_SIZE

    def __getstate__(self) -> dict:
        """Pickle support for the network store (``repro.grid.store``).

        The lazily-built flat table and its lock are process-local: the
        flat list would bloat the serialized artifact (it is derivable
        from ``transitions``), and a ``threading.Lock`` cannot cross a
        process boundary at all.  Both are rebuilt on first use after
        :meth:`__setstate__`.
        """
        state = dict(self.__dict__)
        state["_flat"] = None
        del state["_flat_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._flat_lock = threading.Lock()

    def run_tables(self) -> Tuple[List[int], Tuple[Tuple[int, ...], ...],
                                  Tuple[Tuple[int, ...], ...]]:
        """Hot-loop tables: a flat Python transition list whose entries are
        pre-multiplied by ``n_classes`` (so ``state`` doubles as the row
        base and one add yields the flat index), plus the report tuples.
        Built lazily, cached on the instance.

        The build is guarded by a lock: serve executes batches
        executor-side, so two workers can race the first call on a shared
        artifact — without the lock they would double-materialize (or, on
        non-CPython memory models, observe a half-assigned attribute).
        The fast path stays lock-free: ``_flat`` is assigned exactly once,
        after the list is fully built.
        """
        flat = self._flat
        if flat is None:
            with self._flat_lock:
                flat = self._flat
                if flat is None:
                    flat = (
                        self.transitions.astype(np.int64).ravel()
                        * self.n_classes
                    ).tolist()
                    self._flat = flat
        return flat, self.reports_mid, self.reports


def compile_dfa(
    network: Network,
    *,
    budget: Optional[int] = None,
    table_budget: Optional[int] = None,
    core: Optional[SubsetCore] = None,
) -> CompiledDFA:
    """Determinize ``network`` and materialize the dense execution tables.

    ``budget`` caps subset construction (default
    :data:`repro.cost.explore.DEFAULT_DFA_BUDGET`); ``table_budget`` caps
    the materialized transition-table bytes (default
    :data:`repro.cost.model.DFA_TABLE_BUDGET`).  Raises
    :class:`DfaInfeasibleError` when either gate fails, so callers have a
    single feasibility surface regardless of *why* the DFA is off the
    table.  ``core`` is ``network``'s subset core when the caller already
    holds it.
    """
    state_budget, byte_budget = _default_budgets(budget, table_budget)
    try:
        dfa = determinize(network, max_states=state_budget, core=core)
    except DeterminizeError as exc:
        raise DfaInfeasibleError(
            f"subset construction burst the {state_budget}-state budget: {exc}"
        ) from exc
    compiled = compile_determinized(network, dfa)
    if compiled.table_bytes > byte_budget:
        raise DfaInfeasibleError(
            f"DFA table needs {compiled.table_bytes} B "
            f"({compiled.n_states} states x {compiled.n_classes} classes x "
            f"{compiled.transitions.dtype.itemsize} B) "
            f"> budget {byte_budget} B"
        )
    return compiled


def compile_determinized(network: Network, dfa: DFA) -> CompiledDFA:
    """Pack an already-determinized :class:`~repro.nfa.determinize.DFA`.

    Split out of :func:`compile_dfa` so tests and callers holding a DFA
    (e.g. the advisory soundness replay) can build execution tables
    without re-running subset construction.  Applies no budget gates.
    """
    n_nfa = network.n_states
    n_words = bitops.num_words(max(n_nfa, 1))
    dtype = dfa_table_dtype(dfa.n_states)
    transitions = np.ascontiguousarray(dfa.transitions.astype(dtype))
    row_bytes = n_words * 8
    packed = b"".join(subset.to_bytes(row_bytes, "little") for subset in dfa.subsets)
    subset_masks = np.frombuffer(packed, dtype=np.uint64).reshape(dfa.n_states, n_words)
    return CompiledDFA(
        n_states=dfa.n_states,
        n_nfa_states=n_nfa,
        n_classes=dfa.n_classes,
        n_words=n_words,
        class_of_symbol=dfa.class_of_symbol,
        transitions=transitions,
        reports=tuple(chain.from_iterable(dfa.reports)),
        reports_mid=tuple(chain.from_iterable(dfa.reports_mid)),
        subset_masks=subset_masks,
    )


def dfa_feasible(
    network: Network,
    *,
    budget: Optional[int] = None,
    table_budget: Optional[int] = None,
) -> bool:
    """Whether :func:`compile_dfa` would succeed, without building tables.

    Runs the budgeted subset-construction explorer (cheap bitmask walk, no
    transition rows) and prices the would-be table with the actual entry
    dtype — the same two gates :func:`compile_dfa` enforces.
    """
    from ..cost.explore import explore_subset_construction
    from ..cost.model import dfa_entry_bytes

    state_budget, byte_budget = _default_budgets(budget, table_budget)
    exploration = explore_subset_construction(network, budget=state_budget)
    if not exploration.dfa_safe:
        return False
    table_bytes = (
        exploration.n_subset_states
        * exploration.n_classes
        * dfa_entry_bytes(exploration.n_subset_states)
        + ALPHABET_SIZE
    )
    return table_bytes <= byte_budget


def dfa_run(
    compiled: CompiledDFA,
    input_data: InputLike,
    *,
    track_enabled: bool = False,
) -> SimResult:
    """Consume ``input_data``; return a :class:`SimResult` bit-identical to
    the reference engine's.

    The hot loop is pure Python over flat lists: per symbol, one add (the
    pre-multiplied state base plus the symbol's class), one report-tuple
    index plus an emptiness branch, and one transition-list index.  With
    ``track_enabled`` the loop additionally records each visited DFA state
    (one set-add per symbol) and recovers the NFA-level ever-enabled
    vector afterwards by OR-ing the visited states' subset masks.
    """
    symbols = as_input_array(input_data)
    n = int(symbols.size)
    classes: List[int] = (
        compiled.class_of_symbol[symbols].tolist() if n else []
    )
    trans, mid, full = compiled.run_tables()
    out: List[Tuple[int, int]] = []
    append = out.append
    state = 0  # pre-multiplied row base of the initial DFA state (index 0)
    ever = np.zeros(compiled.n_words, dtype=np.uint64)
    if n:
        last = n - 1
        if track_enabled:
            visited = {0}
            for position in range(last):
                idx = state + classes[position]
                fired = mid[idx]
                if fired:
                    for gid in fired:
                        append((position, gid))
                state = trans[idx]
                visited.add(state)
            rows = np.fromiter(
                (base // compiled.n_classes for base in visited),
                dtype=np.int64,
                count=len(visited),
            )
            ever = np.bitwise_or.reduce(compiled.subset_masks[rows], axis=0)
        else:
            for position in range(last):
                idx = state + classes[position]
                fired = mid[idx]
                if fired:
                    for gid in fired:
                        append((position, gid))
                state = trans[idx]
        idx = state + classes[last]
        for gid in full[idx]:
            append((last, gid))
    return SimResult(
        n_states=compiled.n_nfa_states,
        n_symbols=n,
        cycles=n,
        reports=reports_to_array(out),
        ever_enabled=ever,
    )
