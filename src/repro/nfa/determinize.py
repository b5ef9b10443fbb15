"""Subset-construction determinization of homogeneous NFA networks.

CPU regex engines of the paper's era (its DFA-acceleration related work,
§VIII) execute DFAs: one table lookup per symbol, at the cost of potential
state blowup.  This module builds that substrate: a DFA equivalent to a
whole network, with alphabet compression (symbols that no state
distinguishes share a column) and a state cap that surfaces blowup instead
of hanging.

Semantics match the network exactly: a DFA state is the set of enabled NFA
states; all-input start states are re-enabled on every transition, and a
transition that activates reporting NFA states emits those reports at the
consumed position.

Every NFA step in the package runs through one :class:`SubsetCore`,
built once per network by :func:`subset_core`: the byte→class map, the
per-class accept masks, the per-state successor masks and one
:meth:`SubsetCore.step`.  A subset is a Python big-int (bit ``g`` = global
state ``g``).  :func:`determinize` walks the subsets depth-first keeping
table rows; the budgeted explorer (:mod:`repro.cost.explore`) walks them
breadth-first keeping none; the lazy DFA (:mod:`repro.sim.lazydfa`) steps
them on demand; and the NFA engine (:mod:`repro.sim.engine`) steps one
enabled set per input symbol.  Sharing the core is what makes the
explorer's DFA-safety verdicts proofs about *this* ``determinize`` rather
than about a reimplementation that could drift (DESIGN.md §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .automaton import Network, StartKind
from .symbolset import ALPHABET_SIZE, SymbolSet

__all__ = [
    "DFA",
    "DeterminizeError",
    "NetworkTables",
    "SubsetCore",
    "determinize",
    "flatten_network",
    "subset_core",
]


class DeterminizeError(RuntimeError):
    """Raised when subset construction exceeds the state cap."""


@dataclass(frozen=True)
class NetworkTables:
    """A network flattened to per-global-state tables (determinization view).

    ``successors[g]`` lists global successor ids; ``always`` is the set of
    all-input start states (re-enabled on every transition); ``initial`` is
    the subset-construction start set (both start kinds).
    """

    symbol_sets: Tuple[SymbolSet, ...]
    successors: Tuple[Tuple[int, ...], ...]
    reporting: Tuple[bool, ...]
    eod: Tuple[bool, ...]
    always: FrozenSet[int]
    initial: FrozenSet[int]

    @property
    def n_states(self) -> int:
        return len(self.symbol_sets)


def flatten_network(network: Network) -> NetworkTables:
    """Flatten a network into the tables subset construction walks."""
    symbol_sets: List[SymbolSet] = []
    successors: List[Tuple[int, ...]] = []
    reporting: List[bool] = []
    eod: List[bool] = []
    always: List[int] = []
    initial: List[int] = []
    offsets = network.offsets()
    for a_index, automaton in enumerate(network.automata):
        base = offsets[a_index]
        for state in automaton.states():
            symbol_sets.append(state.symbol_set)
            successors.append(tuple(base + d for d in automaton.successors(state.sid)))
            reporting.append(state.reporting)
            eod.append(state.eod)
            if state.start is StartKind.ALL_INPUT:
                always.append(base + state.sid)
                initial.append(base + state.sid)
            elif state.start is StartKind.START_OF_DATA:
                initial.append(base + state.sid)
    return NetworkTables(
        symbol_sets=tuple(symbol_sets),
        successors=tuple(successors),
        reporting=tuple(reporting),
        eod=tuple(eod),
        always=frozenset(always),
        initial=frozenset(initial),
    )


def _mask_bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, ascending (a subset's states)."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _index_mask(indices: Iterable[int]) -> int:
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def _bool_mask(flags: np.ndarray) -> int:
    """A boolean vector as a big-int (element ``g`` -> bit ``g``)."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


@dataclass(frozen=True, eq=False)
class SubsetCore:
    """The subset-construction transition function of one network.

    On symbol class ``c`` a subset ``s`` activates ``s & accept_masks[c]``;
    :meth:`step` turns the activated states into the successor subset and
    :meth:`reports` into the reporting states they fire.  ``class_of[b]``
    is byte ``b``'s class.  Two bytes share a class exactly when no
    symbol-set in the network distinguishes them (CAMA's observation: real
    rulesets use a few dozen classes, not 256); classes are numbered in
    the order of their smallest byte.

    ``succ_masks[g]`` holds state ``g``'s successors relative to the first
    state of its automaton, ``succ_bases[g]``; a step shifts it into place.
    Automata never share states, so each mask is only as wide as its own
    automaton and the masks take memory linear in the network, where
    global-width masks grow with the square of the automaton count.
    """

    n_states: int
    class_of: np.ndarray  # (256,) int64
    accept_masks: Tuple[int, ...]  # per class
    succ_masks: Tuple[int, ...]  # per global state, local to its automaton
    succ_bases: Tuple[int, ...]  # per global state: its automaton's offset
    always_mask: int  # all-input starts, re-enabled every step
    initial_mask: int  # both start kinds
    report_mask: int
    mid_report_mask: int  # reporters that may fire before the last symbol

    @property
    def n_classes(self) -> int:
        return len(self.accept_masks)

    def step(self, activated: int) -> int:
        """The always-enabled states OR'd with the successors of
        ``activated``: the subset enabled after those states matched."""
        nxt = self.always_mask
        succ_masks = self.succ_masks
        succ_bases = self.succ_bases
        while activated:
            # Highest bit first: clearing it shrinks the int as it goes.
            gid = activated.bit_length() - 1
            activated ^= 1 << gid
            nxt |= succ_masks[gid] << succ_bases[gid]
        return nxt

    @cached_property
    def start_steps(self) -> Tuple[int, ...]:
        """Per class, the step of the always-enabled states it activates.

        Every reachable subset holds the always-enabled states, so a walk
        steps only the rest of a subset:
        ``step(subset & accept) == step(subset & accept & ~always_mask) |
        start_steps[cls]``.  On start-heavy networks (hundreds of
        all-input rules) that skips most of each step's successor ORs.
        Computed on first use and kept on the core.
        """
        return tuple(self.step(self.always_mask & accept) for accept in self.accept_masks)

    @cached_property
    def walk_masks(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
        """Per class, ``(steps, mid_reports, reports)``: the accepting
        states a walk steps (all but the always-enabled ones, whose
        successors :attr:`start_steps` holds), and the accepting reporters
        that may fire before the last symbol and at it.  One AND each per
        cycle of ``sim.engine``'s walk.  Without end-of-data reporters the
        two report tables are one.  Computed on first use and kept on the
        core."""
        moving = ~self.always_mask
        accepts = self.accept_masks
        reports = tuple(accept & self.report_mask for accept in accepts)
        mid_reports = reports
        if self.mid_report_mask != self.report_mask:
            mid_reports = tuple(accept & self.mid_report_mask for accept in accepts)
        return tuple(accept & moving for accept in accepts), mid_reports, reports

    def reports(self, activated: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """``(fired, fired_mid)``: the reporting states among ``activated``,
        ascending, and the same without end-of-data reporters."""
        fired = activated & self.report_mask
        if not fired:
            return (), ()
        return tuple(_mask_bits(fired)), tuple(_mask_bits(fired & self.mid_report_mask))


def subset_core(network: Network) -> SubsetCore:
    """Build the :class:`SubsetCore` of ``network``.

    Classes and accept masks come from one distinct-symbol-sets x 256 bit
    matrix: a byte's class is its column, and a class's accept mask is its
    representative byte's column spread over the states.
    """
    tables = flatten_network(network)
    distinct: Dict[int, int] = {}
    set_of_state = np.array(
        [distinct.setdefault(s.mask, len(distinct)) for s in tables.symbol_sets],
        dtype=np.intp,
    )
    row_bytes = ALPHABET_SIZE // 8
    raw = b"".join(mask.to_bytes(row_bytes, "little") for mask in distinct)
    matches = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(distinct), row_bytes),
        axis=1,
        bitorder="little",
    )
    columns = np.ascontiguousarray(np.packbits(matches, axis=0).T)
    class_by_column: Dict[bytes, int] = {}
    class_of: List[int] = []
    for symbol in range(ALPHABET_SIZE):
        class_of.append(
            class_by_column.setdefault(columns[symbol].tobytes(), len(class_by_column))
        )
    representatives = [class_of.index(cls) for cls in range(len(class_by_column))]
    accepted = matches[:, representatives][set_of_state].T  # (classes, states)
    reporting = np.array(tables.reporting, dtype=bool)
    eod = np.array(tables.eod, dtype=bool)
    succ_masks: List[int] = []
    succ_bases: List[int] = []
    for base, automaton in zip(network.offsets(), network.automata):
        for sid in range(automaton.n_states):
            succ_masks.append(_index_mask(automaton.successors(sid)))
            succ_bases.append(base)
    return SubsetCore(
        n_states=tables.n_states,
        class_of=np.array(class_of, dtype=np.int64),
        accept_masks=tuple(_bool_mask(row) for row in accepted),
        succ_masks=tuple(succ_masks),
        succ_bases=tuple(succ_bases),
        always_mask=_index_mask(tables.always),
        initial_mask=_index_mask(tables.initial),
        report_mask=_bool_mask(reporting),
        mid_report_mask=_bool_mask(reporting & ~eod),
    )


@dataclass
class DFA:
    """A table-driven DFA over compressed symbol classes.

    ``transitions[s, c]`` is the next DFA state for symbol class ``c``;
    ``reports[s][c]`` lists the network's reporting state ids activated by
    that transition (empty tuple if silent); ``reports_mid`` is the same
    with end-of-data reporters removed (used at every position except the
    last).  ``subsets[s]`` is the big-int subset DFA state ``s`` encodes
    (bit ``g`` = global NFA state ``g``) — the subset-construction witness,
    kept as the walk held it so downstream consumers
    (:mod:`repro.sim.dfa`, which also executes the table) can recover
    NFA-level facts such as the ever-enabled set without re-running subset
    construction.
    """

    n_states: int
    initial: int
    class_of_symbol: np.ndarray  # (256,) symbol -> class index
    transitions: np.ndarray  # (n_states, n_classes)
    reports: List[List[Tuple[int, ...]]]
    reports_mid: List[List[Tuple[int, ...]]]
    subsets: Tuple[int, ...] = ()

    @property
    def n_classes(self) -> int:
        return int(self.transitions.shape[1])


def determinize(
    network: Network, *, max_states: int = 65536, core: Optional[SubsetCore] = None
) -> DFA:
    """Subset construction over the whole network.

    Raises :class:`DeterminizeError` when more than ``max_states`` subset
    states are generated (the classic DFA blowup the AP avoids natively).
    A network whose reachable-subset count is *exactly* ``max_states``
    succeeds — the same boundary semantics as the budgeted explorer in
    :mod:`repro.cost.explore`, pinned by the boundary regression tests in
    ``tests/test_dfa_backend.py``.  DFA states are numbered in discovery
    order of a depth-first walk that expands classes in index order.
    ``core`` is ``network``'s :class:`SubsetCore` when the caller already
    holds it.
    """
    if max_states < 1:
        # Mirror the explorer's budget validation: the initial subset always
        # exists, so max_states=0 could never honor its own contract.
        raise ValueError(f"max_states must be >= 1, got {max_states}")
    if core is None:
        core = subset_core(network)
    n_classes = core.n_classes
    step = core.step
    start_steps = core.start_steps
    moving = ~core.always_mask
    report_mask = core.report_mask

    index_of: Dict[int, int] = {core.initial_mask: 0}
    worklist: List[int] = [core.initial_mask]
    transition_rows: List[List[int]] = [[]]
    report_rows: List[List[Tuple[int, ...]]] = [[]]
    report_mid_rows: List[List[Tuple[int, ...]]] = [[]]

    while worklist:
        current = worklist.pop()
        row = [0] * n_classes
        reps_row: List[Tuple[int, ...]] = [()] * n_classes
        reps_mid_row: List[Tuple[int, ...]] = [()] * n_classes
        for cls, accept in enumerate(core.accept_masks):
            activated = current & accept
            stepping = activated & moving
            target = step(stepping) | start_steps[cls] if stepping else start_steps[cls]
            index = index_of.get(target)
            if index is None:
                if len(index_of) >= max_states:
                    raise DeterminizeError(
                        f"subset construction exceeded {max_states} states"
                    )
                index = index_of[target] = len(index_of)
                worklist.append(target)
                transition_rows.append([])
                report_rows.append([])
                report_mid_rows.append([])
            row[cls] = index
            if activated & report_mask:
                reps_row[cls], reps_mid_row[cls] = core.reports(activated)
        index = index_of[current]
        transition_rows[index] = row
        report_rows[index] = reps_row
        report_mid_rows[index] = reps_mid_row

    n_states = len(index_of)
    return DFA(
        n_states=n_states,
        initial=0,
        class_of_symbol=core.class_of,
        transitions=np.array(transition_rows, dtype=np.int64).reshape(
            n_states, n_classes
        ),
        reports=report_rows,
        reports_mid=report_mid_rows,
        subsets=tuple(index_of),
    )
