"""Shared test utilities: random network generation, hypothesis strategies,
loop-based references for subset construction, and the reference-engine
references for the SpAP hot phase and cold side."""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from repro.core.partition import PartitionedNetwork
from repro.core.scenarios import HotPhase
from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.determinize import DFA, DeterminizeError, flatten_network
from repro.nfa.symbolset import ALPHABET_SIZE, SymbolSet
from repro.sim.dfa import compile_determinized, dfa_run
from repro.sim.engine import as_input_array
from repro.sim.reference import reference_run

#: A small alphabet keeps random inputs likely to hit transitions.
SMALL_ALPHABET = b"abcd"


def random_symbol_set(rng: random.Random, alphabet: bytes = SMALL_ALPHABET) -> SymbolSet:
    size = rng.randint(1, len(alphabet))
    return SymbolSet.from_symbols(rng.sample(list(alphabet), size))


def random_automaton(
    rng: random.Random,
    *,
    n_states: Optional[int] = None,
    cyclic: bool = True,
    name: str = "rand",
    start: StartKind = StartKind.ALL_INPUT,
) -> Automaton:
    """A random connected-ish automaton over the small alphabet.

    Guarantees at least one start and one reporting state.  With
    ``cyclic=True``, back edges (and hence SCCs) may appear.
    """
    n = n_states if n_states is not None else rng.randint(1, 12)
    automaton = Automaton(name)
    for index in range(n):
        automaton.add_state(
            random_symbol_set(rng),
            start=start if index == 0 else StartKind.NONE,
            reporting=index == n - 1,
            report_code=f"{name}:{index}" if index == n - 1 else None,
        )
    # A spine keeps every state reachable.
    for index in range(1, n):
        automaton.add_edge(rng.randint(0, index - 1), index)
    # Extra random edges.
    extra = rng.randint(0, n)
    for _ in range(extra):
        src = rng.randrange(n)
        if cyclic:
            dst = rng.randrange(n)
        else:
            if src == n - 1:
                continue
            dst = rng.randint(src + 1, n - 1)
        automaton.add_edge(src, dst)
    # A few extra reporting states make report comparisons more sensitive.
    for _ in range(rng.randint(0, 2)):
        state = automaton.state(rng.randrange(n))
        state.reporting = True
        if state.report_code is None:
            state.report_code = f"{name}:{state.sid}"
    # Occasionally make a reporter end-of-data-only (exercises eod paths).
    if rng.random() < 0.3:
        reporters = automaton.reporting_states()
        automaton.state(rng.choice(reporters)).eod = True
    return automaton


def random_network(
    rng: random.Random,
    *,
    n_automata: Optional[int] = None,
    cyclic: bool = True,
    start: StartKind = StartKind.ALL_INPUT,
) -> Network:
    count = n_automata if n_automata is not None else rng.randint(1, 5)
    network = Network("rand-net")
    for index in range(count):
        network.add(
            random_automaton(rng, cyclic=cyclic, name=f"nfa{index}", start=start)
        )
    return network


def random_input(rng: random.Random, length: int, alphabet: bytes = SMALL_ALPHABET) -> bytes:
    return bytes(rng.choice(alphabet) for _ in range(length))


#: Hypothesis strategy: a seed we expand into (network, input) via random.Random,
#: which shrinks better than composite object strategies for graph-shaped data.
seeds = st.integers(min_value=0, max_value=2**32 - 1)
input_lengths = st.integers(min_value=0, max_value=40)


def dfa_reports(network: Network, dfa: DFA, data: bytes) -> np.ndarray:
    """Reports of ``dfa`` (determinized from ``network``) on ``data``,
    through the table-driven engine."""
    return dfa_run(compile_determinized(network, dfa), data).reports


def subset_sets(dfa: DFA) -> Tuple[FrozenSet[int], ...]:
    """``dfa.subsets`` (big ints, bit ``g`` = global state ``g``) as sets of
    global state ids."""
    return tuple(
        frozenset(gid for gid in range(subset.bit_length()) if subset >> gid & 1)
        for subset in dfa.subsets
    )


def reference_hot_phase(
    partitioned: PartitionedNetwork, data: bytes, hot_bins: List[List[int]]
) -> HotPhase:
    """BaseAP mode on the reference engine: the independent reference for
    the lazy-DFA hot phase of ``repro.core.scenarios.run_hot_phase``."""
    symbols = as_input_array(data)
    reports = reference_run(partitioned.hot, symbols).reports
    return HotPhase.from_reports(partitioned, reports, symbols, hot_bins)


def reference_cold_reports(partitioned: PartitionedNetwork, hot: HotPhase) -> np.ndarray:
    """The cold side's reports in parent ids: the reference engine in events
    mode, driven by the hot phase's enable events."""
    reports = reference_run(partitioned.cold, hot.symbols, hot.events.tolist()).reports
    reports = reports.copy()
    if reports.size:
        reports[:, 1] = partitioned.cold_to_parent[reports[:, 1]]
    return reports


def full_alphabet_network(rng: random.Random) -> Network:
    """A random network whose symbol sets are random ranges and masks over
    all 256 bytes, so the byte classes are many and irregular."""
    network = random_network(rng)
    for _gid, _automaton, state in network.global_states():
        if rng.random() < 0.5:
            low = rng.randrange(ALPHABET_SIZE)
            state.symbol_set = SymbolSet.from_ranges((low, rng.randint(low, 255)))
        else:
            state.symbol_set = SymbolSet(rng.getrandbits(ALPHABET_SIZE))
    return network


# -- loop references for repro.nfa.determinize ---------------------------------
#
# Subset construction as it was written before the big-int core: per-symbol
# signatures and per-member ``SymbolSet.matches`` calls.  Slow, but each step
# reads straight off the definitions, so the core is property-tested against
# them (tests/test_nfa_equivalence.py).


def reference_alphabet_classes(network: Network) -> Tuple[np.ndarray, int]:
    """``(class_of, n_classes)``: bytes share a class exactly when no
    symbol-set in the network distinguishes them; classes are numbered by
    their first byte."""
    classes: Dict[Tuple[bool, ...], int] = {}
    class_of = np.zeros(ALPHABET_SIZE, dtype=np.int64)
    distinct = {state.symbol_set for _g, _a, state in network.global_states()}
    ordered = sorted(distinct, key=lambda symbol_set: symbol_set.mask)
    for symbol in range(ALPHABET_SIZE):
        signature = tuple(symbol_set.matches(symbol) for symbol_set in ordered)
        if signature not in classes:
            classes[signature] = len(classes)
        class_of[symbol] = classes[signature]
    return class_of, len(classes)


def class_representatives(class_of: np.ndarray, n_classes: int) -> np.ndarray:
    """One representative symbol per class (the smallest member)."""
    representative = np.zeros(n_classes, dtype=np.int64)
    for symbol in range(ALPHABET_SIZE - 1, -1, -1):
        representative[int(class_of[symbol])] = symbol
    return representative


def reference_determinize(network: Network, *, max_states: int = 65536) -> DFA:
    """Depth-first subset construction over frozensets of global states
    (its ``subsets`` stay frozensets: compare them with :func:`subset_sets`)."""
    class_of, n_classes = reference_alphabet_classes(network)
    representative = class_representatives(class_of, n_classes)
    tables = flatten_network(network)

    index_of: Dict[FrozenSet[int], int] = {tables.initial: 0}
    worklist: List[FrozenSet[int]] = [tables.initial]
    rows: Dict[int, Tuple[List[int], list, list]] = {}
    while worklist:
        current = worklist.pop()
        row = [0] * n_classes
        reps_row: List[Tuple[int, ...]] = [()] * n_classes
        reps_mid_row: List[Tuple[int, ...]] = [()] * n_classes
        for cls in range(n_classes):
            symbol = int(representative[cls])
            activated = [
                gid for gid in current if tables.symbol_sets[gid].matches(symbol)
            ]
            fired = tuple(sorted(gid for gid in activated if tables.reporting[gid]))
            nxt = set(tables.always)
            for gid in activated:
                nxt.update(tables.successors[gid])
            target = frozenset(nxt)
            if target not in index_of:
                if len(index_of) >= max_states:
                    raise DeterminizeError(
                        f"subset construction exceeded {max_states} states"
                    )
                index_of[target] = len(index_of)
                worklist.append(target)
            row[cls] = index_of[target]
            reps_row[cls] = fired
            reps_mid_row[cls] = tuple(gid for gid in fired if not tables.eod[gid])
        rows[index_of[current]] = (row, reps_row, reps_mid_row)

    n_states = len(index_of)
    subsets: List[FrozenSet[int]] = [frozenset()] * n_states
    for subset, state_index in index_of.items():
        subsets[state_index] = subset
    return DFA(
        n_states=n_states,
        initial=0,
        class_of_symbol=class_of,
        transitions=np.array(
            [rows[index][0] for index in range(n_states)], dtype=np.int64
        ).reshape(n_states, n_classes),
        reports=[rows[index][1] for index in range(n_states)],
        reports_mid=[rows[index][2] for index in range(n_states)],
        subsets=tuple(subsets),
    )
