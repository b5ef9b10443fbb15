"""Lazy DFA: a subset table filled on demand and bounded in bytes.

The eager table backend (:mod:`repro.sim.dfa`) serves only networks the
budgeted explorer proves DFA-safe, and it builds every cell.  An input
visits few of them: a warm table on ``serve-lockstep``'s payloads holds
1.4% of its row x class cells, the subset-level face of the sparse
activity this paper exploits (and of the DFA-vs-NFA tradeoff literature in
PAPERS.md).  This module runs subset construction lazily over the
network's :class:`~repro.nfa.determinize.SubsetCore` and keeps only the
cells a walk has built (DESIGN.md §14):

* **Layout.**  A row is a subset the walk reached, numbered in order; its
  base is its number times ``n_classes``, so ``base + class`` keys its
  cell.  ``_cells`` maps that key to the successor's base, or, for a cell
  that fires reports, to ``~k``: entry ``k`` of ``_reports`` holds the
  successor's base and the mid-stream and end-of-data report tuples.  A
  silent hit costs one dict lookup and one compare.
* **Miss.**  An unbuilt cell is filled by one step of the subset core, the
  step every engine shares.
* **Budget.**  The table counts the bytes it holds.  When a new cell would
  pass ``budget`` the table is flushed whole, keeping only its start row
  (row 0, where every run begins), and restarts from the current subset
  (RE2's lazy-DFA policy: Cox, "Regular Expression Matching in the Wild").
  A run that fills the table more than ``MAX_RUN_FLUSHES`` times, or whose
  next step does not fit even a flushed table, finishes on the NFA walk of
  :mod:`repro.sim.engine` from the subset it has reached; the count resets
  per run.

Subsets are Python big-ints (bit ``g`` = global state ``g``), so a
``track_enabled`` run ORs the subsets of the rows it visited.  Reports and
hot sets are bit-identical to the reference engine, gated by the
cross-engine suite with byte budgets small enough to force flushes and the
NFA finish.

The table is shared mutable state: :func:`lazydfa_run` holds the
artifact's lock for the whole run, and a pickled artifact carries no table.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, List, Sequence, Set, Tuple, Union

import numpy as np

from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core
from .engine import _walk, as_input_array
from .result import SimResult, reports_to_array

__all__ = [
    "DEFAULT_LAZY_BUDGET",
    "MAX_RUN_FLUSHES",
    "CompiledLazyDfa",
    "compile_lazydfa",
    "lazydfa_run",
]

InputLike = Union[bytes, bytearray, str, np.ndarray, Sequence[int]]

#: Bytes one table may hold.  The census of DESIGN.md §14 (26 registry
#: apps, scale 16, 8 KiB inputs) sets it.
DEFAULT_LAZY_BUDGET = 4 << 20

#: A run that fills its table more often than this finishes on the NFA walk.
MAX_RUN_FLUSHES = 4

#: Heap bytes a row holds besides its subset (its slots in ``_rows`` and
#: ``_subsets`` and its base), a cell (its ``_cells`` slot and key), and a
#: reporting cell's entry (its code, its ``_reports`` slot, the entry and
#: two empty report tuples) plus each report in those tuples.  Summed over
#: the census tables of DESIGN.md §14 they come to 0.95-1.2 times the heap
#: those tables hold.
ROW_BYTES = 120
CELL_BYTES = 64
REPORT_BYTES = 184
BYTES_PER_REPORT = 40

#: One reporting cell: successor base, mid-stream and end-of-data reports.
_Reports = Tuple[int, Tuple[int, ...], Tuple[int, ...]]


class CompiledLazyDfa:
    """A network's subset core and its lazily filled, byte-bounded table.

    The table persists across runs, so repeated inputs walk built cells.
    :meth:`cache_stats` reports the table and the lifetime counters.
    """

    def __init__(self, core: SubsetCore, *, budget: int = DEFAULT_LAZY_BUDGET) -> None:
        start_bytes = _row_bytes(core.initial_mask)
        if budget < start_bytes:
            raise ValueError(
                f"lazy-DFA budget of {budget} B cannot hold the start row "
                f"({start_bytes} B)"
            )
        self.core = core
        self.n_states = core.n_states
        self.n_words = (max(core.n_states, 1) + 63) // 64
        self.n_classes = core.n_classes
        self.class_of_symbol = core.class_of
        self.budget = budget
        self._lock = threading.Lock()
        self._rows: Dict[int, int] = {}  # subset -> row base
        self._subsets: List[int] = []  # row number -> subset
        self._cells: Dict[int, int] = {}  # base + class -> successor base or ~k
        self._reports: List[_Reports] = []
        self._bytes = 0
        self._clear()
        self.steps = self.cell_builds = self.flushes = self.nfa_finishes = 0

    def __getstate__(self) -> dict:
        """Pickle support for the network store (``repro.grid.store``): the
        table and its lock are process-local, so an unpickled artifact
        starts empty with zero counters, like a fresh
        :func:`compile_lazydfa` output."""
        return {"core": self.core, "budget": self.budget}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["core"], budget=state["budget"])  # type: ignore[misc]

    def cache_stats(self) -> Dict[str, int]:
        """The table's size and the lifetime counters.  ``hits`` are table
        steps that found a built cell: steps minus cell builds."""
        with self._lock:
            return {
                "budget": self.budget,
                "bytes": self._bytes,
                "rows": len(self._subsets),
                "cells": len(self._cells),
                "hits": self.steps - self.cell_builds,
                "cell_builds": self.cell_builds,
                "flushes": self.flushes,
                "nfa_finishes": self.nfa_finishes,
            }

    def clear_cache(self) -> None:
        """Empty the table down to its start row and zero the lifetime
        counters: the post-compile state."""
        with self._lock:
            self._clear()
            self.steps = self.cell_builds = self.flushes = self.nfa_finishes = 0

    def _clear(self) -> None:
        """Empty the table down to its start row."""
        self._rows.clear()
        self._subsets.clear()
        self._cells.clear()
        self._reports.clear()
        self._bytes = _row_bytes(self.core.initial_mask)
        self._add_row(self.core.initial_mask)

    def _build(self, subset: int, cls: int) -> bool:
        """Build the cell of ``subset`` on ``cls``, with the rows it needs;
        False, building nothing, when that would pass the budget."""
        core = self.core
        activated = subset & core.accept_masks[cls]
        stepping = activated & ~core.always_mask
        nxt = core.start_steps[cls]
        if stepping:
            nxt |= core.step(stepping)
        fired, fired_mid = core.reports(activated)
        rows = self._rows
        base = rows.get(subset)
        nxt_base = rows.get(nxt)
        cost = CELL_BYTES
        if base is None:
            cost += _row_bytes(subset)
        if nxt_base is None and nxt != subset:
            cost += _row_bytes(nxt)
        if fired:
            if fired_mid == fired:
                fired_mid = fired  # one tuple serves every position
            reported = len(fired) + (0 if fired_mid is fired else len(fired_mid))
            cost += REPORT_BYTES + BYTES_PER_REPORT * reported
        if self._bytes + cost > self.budget:
            return False
        self._bytes += cost
        if base is None:
            base = self._add_row(subset)
        if nxt_base is None:
            nxt_base = base if nxt == subset else self._add_row(nxt)
        if fired:
            self._cells[base + cls] = ~len(self._reports)
            self._reports.append((nxt_base, fired_mid, fired))
        else:
            self._cells[base + cls] = nxt_base
        self.cell_builds += 1
        return True

    def _add_row(self, subset: int) -> int:
        base = self._rows[subset] = len(self._subsets) * self.n_classes
        self._subsets.append(subset)
        return base


def _row_bytes(subset: int) -> int:
    return ROW_BYTES + sys.getsizeof(subset)


def compile_lazydfa(network: Network, *, budget: int = DEFAULT_LAZY_BUDGET) -> CompiledLazyDfa:
    """Build ``network``'s subset core; the table fills during execution.

    Unlike :func:`repro.sim.dfa.compile_dfa` there is no feasibility gate:
    the budget bounds the table however many subsets are reachable.
    """
    return CompiledLazyDfa(subset_core(network), budget=budget)


def lazydfa_run(
    compiled: CompiledLazyDfa,
    input_data: InputLike,
    *,
    track_enabled: bool = False,
) -> SimResult:
    """Consume ``input_data``; return a :class:`SimResult` bit-identical to
    the reference engine's.

    Holds the artifact's lock for the whole run.  A miss builds its cell
    and walks on from the same position; a flush folds the visited rows'
    subsets into the hot set before their rows go.
    """
    symbols = as_input_array(input_data)
    n = int(symbols.size)
    classes: List[int] = compiled.class_of_symbol[symbols].tolist() if n else []
    out: List[Tuple[int, int]] = []
    append = out.append
    last = n - 1
    position = state = flushes = ever = 0
    visited: Set[int] = set()

    with compiled._lock:
        cells = compiled._cells
        reports = compiled._reports
        subsets = compiled._subsets
        n_classes = compiled.n_classes
        while position < n:
            if track_enabled:
                for position in range(position, n):
                    visited.add(state)
                    try:
                        nxt = cells[state + classes[position]]
                    except KeyError:
                        break
                    if nxt < 0:
                        nxt, mid, full = reports[~nxt]
                        for gid in full if position == last else mid:
                            append((position, gid))
                    state = nxt
                else:
                    position = n
                    break
            else:
                for position in range(position, n):
                    try:
                        nxt = cells[state + classes[position]]
                    except KeyError:
                        break
                    if nxt < 0:
                        nxt, mid, full = reports[~nxt]
                        for gid in full if position == last else mid:
                            append((position, gid))
                    state = nxt
                else:
                    position = n
                    break
            # A miss at ``position``: build its cell, flushing when full.
            subset = subsets[state // n_classes]
            cls = classes[position]
            flushed = False
            while not compiled._build(subset, cls):
                if flushed or flushes == MAX_RUN_FLUSHES:
                    break  # a flush cannot help, or may not happen again
                flushes += 1
                flushed = True
                for base in visited:
                    ever |= subsets[base // n_classes]
                visited.clear()
                compiled._clear()
                compiled.flushes += 1
            else:
                state = compiled._rows[subset]
                continue
            # The table keeps filling up, or cannot hold this step: finish
            # on the NFA walk.
            tail, tail_ever, _consumed, _stalls, _jumps = _walk(
                compiled.core, classes, (), (), track=track_enabled,
                count_stalls=False, enabled=subset, first=position,
            )
            out.extend(tail)
            ever |= tail_ever
            compiled.nfa_finishes += 1
            break
        compiled.steps += position
        for base in visited:
            ever |= subsets[base // n_classes]

    return SimResult(
        n_states=compiled.n_states,
        n_symbols=n,
        cycles=n,
        reports=reports_to_array(out),
        ever_enabled=np.frombuffer(
            ever.to_bytes(compiled.n_words * 8, "little"), dtype=np.uint64
        ).copy(),
    )
