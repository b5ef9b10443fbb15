"""Regression tests for silent-corruption footguns fixed in the sim core.

Each class pins one bug that used to corrupt results without raising:

* ``Network([automaton])`` bound the list to ``name`` and built an empty
  network — every downstream metric was computed over zero states.
* ``as_input_array`` wrapped out-of-range integers mod 256 and truncated
  floats — the engine silently matched a different input.
* ``jump_ratio()`` went negative on stall-dominated runs, and the final
  jump over an idle tail was missing from ``jumps``.
"""

import numpy as np
import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet
from repro.sim import as_input_array, run, run_events, subset_core


def _automaton(name: str = "a") -> Automaton:
    automaton = Automaton(name)
    automaton.add_state(
        SymbolSet.from_symbols(b"x"),
        start=StartKind.ALL_INPUT,
        reporting=True,
        report_code=f"{name}:0",
    )
    return automaton


class TestNetworkConstructorValidation:
    def test_positional_list_rejected(self):
        # The footgun: Network([automaton]) used to bind the list to `name`.
        with pytest.raises(TypeError, match="automata"):
            Network([_automaton()])

    def test_non_list_automata_rejected(self):
        with pytest.raises(TypeError):
            Network("net", automata=_automaton())

    def test_non_automaton_entry_rejected(self):
        with pytest.raises(TypeError):
            Network("net", automata=[_automaton(), "not-an-automaton"])

    def test_add_rejects_non_automaton(self):
        network = Network("net")
        with pytest.raises(TypeError):
            network.add("not-an-automaton")

    def test_valid_constructions_still_work(self):
        assert Network("net").n_automata == 0
        assert Network("net", automata=[_automaton()]).n_automata == 1
        network = Network("net")
        network.add(_automaton())
        assert network.n_states == 1


class TestAsInputArrayValidation:
    def test_float_array_rejected(self):
        # Used to silently truncate 1.9 -> 1.
        with pytest.raises(ValueError, match="integer dtype"):
            as_input_array(np.array([1.9, 2.0]))

    def test_out_of_range_rejected(self):
        # Used to silently wrap 300 -> 44.
        with pytest.raises(ValueError, match="wrap"):
            as_input_array(np.array([300, 65]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="wrap"):
            as_input_array(np.array([-1, 65]))

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            as_input_array(np.zeros((2, 3), dtype=np.uint8))

    def test_valid_inputs_still_work(self):
        assert as_input_array(b"ab").tolist() == [97, 98]
        assert as_input_array("ab").tolist() == [97, 98]
        assert as_input_array(np.array([0, 255], dtype=np.int64)).tolist() == [0, 255]
        passthrough = np.array([1, 2], dtype=np.uint8)
        assert as_input_array(passthrough) is passthrough
        assert as_input_array(np.array([], dtype=np.int32)).size == 0


class TestJumpAccounting:
    def test_jump_ratio_clamped_nonnegative(self):
        # Many simultaneous enables on a short input: stalls push
        # total_cycles past n_symbols; the ratio must clamp at 0, not go
        # negative.
        network = Network("net", automata=[_automaton(f"a{i}") for i in range(6)])
        compiled = subset_core(network)
        events = [(0, gid) for gid in range(6)]
        outcome = run_events(compiled, b"xy", events)
        assert outcome.total_cycles > outcome.n_symbols
        assert outcome.jump_ratio() == 0.0

    def test_final_jump_over_idle_tail_counted(self):
        # One event early in a long input, nothing afterwards: the machine
        # jumps over the idle tail, and that jump must be counted.
        automaton = Automaton("chain")
        automaton.add_state(SymbolSet.from_symbols(b"x"), start=StartKind.NONE,
                            reporting=True, report_code="chain:0")
        compiled = subset_core(Network("net", automata=[automaton]))
        outcome = run_events(compiled, b"xyyyyyyy", [(0, 0)])
        assert outcome.consumed_cycles < outcome.n_symbols
        assert outcome.jumps >= 1

    def test_no_events_one_jump_to_end(self):
        automaton = Automaton("chain")
        automaton.add_state(SymbolSet.from_symbols(b"x"), start=StartKind.NONE)
        compiled = subset_core(Network("net", automata=[automaton]))
        outcome = run_events(compiled, b"yyyy", [])
        assert outcome.consumed_cycles == 0
        assert outcome.jumps == 1
        assert outcome.jump_ratio() == 1.0

    def test_jump_ratio_empty_input(self):
        automaton = Automaton("chain")
        automaton.add_state(SymbolSet.from_symbols(b"x"), start=StartKind.NONE)
        compiled = subset_core(Network("net", automata=[automaton]))
        assert run_events(compiled, b"", []).jump_ratio() == 0.0


class TestEmptyEdges:
    def test_empty_network_runs(self):
        compiled = subset_core(Network("empty"))
        result = run(compiled, b"abc")
        assert result.reports.size == 0
        assert result.cycles == 3

    def test_empty_network_empty_input(self):
        compiled = subset_core(Network("empty"))
        result = run(compiled, b"")
        assert result.reports.size == 0
        assert result.cycles == 0
        assert result.hot_count() == 0
