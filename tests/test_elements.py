"""Tests for counter/boolean elements and the hybrid simulator."""

import pytest

from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.elements import Counter, CounterMode, ElementNetwork, Gate, GateKind
from repro.nfa.regex import compile_regex
from repro.nfa.symbolset import SymbolSet
from repro.sim import run, subset_core
from repro.sim.hybrid import element_report_id, hybrid_run


def _ste_net(*patterns):
    network = Network("h")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}", report_code=f"r{index}"))
    return network


class TestElementValidation:
    def test_counter_target_positive(self):
        with pytest.raises(ValueError):
            Counter(target=0)

    def test_gate_needs_inputs(self):
        with pytest.raises(ValueError):
            Gate(GateKind.AND, inputs=[])

    def test_not_gate_single_input(self):
        with pytest.raises(ValueError):
            Gate(GateKind.NOT, inputs=[("ste", 0), ("ste", 1)])

    def test_bad_signal(self):
        with pytest.raises(ValueError):
            Counter(target=1, count_inputs=[("nope", 0)])

    def test_forward_element_reference_rejected(self):
        wrapped = ElementNetwork(_ste_net(b"a"))
        with pytest.raises(ValueError):
            wrapped.add_gate(Gate(GateKind.OR, inputs=[("element", 0)]))

    def test_missing_ste_rejected(self):
        wrapped = ElementNetwork(_ste_net(b"a"))
        with pytest.raises(ValueError):
            wrapped.add_gate(Gate(GateKind.OR, inputs=[("ste", 99)]))

    def test_connect_enable_bounds(self):
        wrapped = ElementNetwork(_ste_net(b"ab"))
        gate = wrapped.add_gate(Gate(GateKind.OR, inputs=[("ste", 0)]))
        with pytest.raises(IndexError):
            wrapped.connect_enable(gate, 99)
        with pytest.raises(IndexError):
            wrapped.connect_enable(5, 0)

    def test_overwired_not_rejected_at_direct_construction(self):
        # Regression: the simulator's NOT evaluation reads only the first
        # input, so an over-wired NOT that slipped past Gate.__post_init__
        # (here: by mutating the inputs list afterwards) used to be
        # silently mis-evaluated.  The ElementNetwork constructor is the
        # last gate and must reject it.
        gate = Gate(GateKind.NOT, inputs=[("ste", 0)])
        gate.inputs.append(("ste", 1))
        with pytest.raises(ValueError, match="NOT gate takes exactly one"):
            ElementNetwork(_ste_net(b"a", b"b"), elements=[gate])

    def test_overwired_not_rejected_at_add_gate(self):
        wrapped = ElementNetwork(_ste_net(b"a", b"b"))
        gate = Gate(GateKind.NOT, inputs=[("ste", 0)])
        gate.inputs.append(("ste", 1))
        with pytest.raises(ValueError, match="NOT gate takes exactly one"):
            wrapped.add_gate(gate)
        assert wrapped.n_elements == 0  # the malformed gate was not kept

    def test_emptied_gate_rejected_at_construction(self):
        gate = Gate(GateKind.OR, inputs=[("ste", 0)])
        gate.inputs.clear()
        with pytest.raises(ValueError, match="at least one input"):
            ElementNetwork(_ste_net(b"a"), elements=[gate])


class TestCounterSemantics:
    def _counting_net(self, target, mode=CounterMode.LATCH):
        """Count occurrences of 'a'; report when the target is reached."""
        network = Network("h")
        automaton = network.automata if False else None
        from repro.nfa.automaton import Automaton

        a = Automaton("tick")
        a.add_state(SymbolSet.single("a"), start=StartKind.ALL_INPUT)
        network.add(a)
        wrapped = ElementNetwork(network)
        wrapped.add_counter(
            Counter(target=target, mode=mode, count_inputs=[("ste", 0)],
                    reporting=True, report_code="count")
        )
        return wrapped

    def test_latch_reports_from_target_on(self):
        wrapped = self._counting_net(3)
        result = hybrid_run(wrapped, b"aaxaxa")
        # Third 'a' is at position 3; latched output also reports at the
        # subsequent counting... latch asserts continuously once reached.
        positions = result.reports[:, 0].tolist()
        assert positions[0] == 3
        assert result.final_counts[0] == 3

    def test_pulse_reports_once_per_target(self):
        wrapped = self._counting_net(2, CounterMode.PULSE)
        result = hybrid_run(wrapped, b"aaaa")
        # Pulses at the 2nd 'a' only (count holds at target, no re-fire).
        assert result.reports[:, 0].tolist() == [1]

    def test_roll_fires_every_target_counts(self):
        wrapped = self._counting_net(2, CounterMode.ROLL)
        result = hybrid_run(wrapped, b"aaaaaa")
        assert result.reports[:, 0].tolist() == [1, 3, 5]

    def test_reset_wins_and_clears(self):
        network = Network("h")
        from repro.nfa.automaton import Automaton

        a = Automaton("tick")
        a.add_state(SymbolSet.single("a"), start=StartKind.ALL_INPUT)
        a.add_state(SymbolSet.single("r"), start=StartKind.ALL_INPUT)
        network.add(a)
        wrapped = ElementNetwork(network)
        wrapped.add_counter(
            Counter(target=2, count_inputs=[("ste", 0)], reset_inputs=[("ste", 1)],
                    reporting=True)
        )
        result = hybrid_run(wrapped, b"ar a")
        assert result.reports.size == 0  # reset before reaching 2
        assert result.final_counts[0] == 1

    def test_counter_enables_ste(self):
        """A counter output enabling an STE: match 'b' only after 3 'a's."""
        network = Network("h")
        from repro.nfa.automaton import Automaton

        a = Automaton("m")
        a.add_state(SymbolSet.single("a"), start=StartKind.ALL_INPUT)
        a.add_state(SymbolSet.single("b"), reporting=True, report_code="b-after-3a")
        network.add(a)
        wrapped = ElementNetwork(network)
        counter = wrapped.add_counter(
            Counter(target=3, mode=CounterMode.LATCH, count_inputs=[("ste", 0)])
        )
        wrapped.connect_enable(counter, 1)
        early = hybrid_run(wrapped, b"aab")
        assert early.reports.size == 0  # only 2 'a's seen
        late = hybrid_run(wrapped, b"aaab")
        assert late.reports.tolist() == [[3, 1]]


class TestGateSemantics:
    def _two_ste(self):
        network = _ste_net(b"a", b"b")
        return ElementNetwork(network)

    def test_and_gate(self):
        wrapped = self._two_ste()
        wrapped.add_gate(Gate(GateKind.AND, inputs=[("ste", 0), ("ste", 1)],
                              reporting=True, report_code="both"))
        # 'a' and 'b' can never activate on the same symbol here.
        assert hybrid_run(wrapped, b"ab").reports.shape[0] == 2  # only STE reports

    def test_and_gate_fires_on_overlap(self):
        network = Network("h")
        from repro.nfa.automaton import Automaton

        a = Automaton("x")
        a.add_state(SymbolSet.from_symbols("ab"), start=StartKind.ALL_INPUT)
        a.add_state(SymbolSet.from_symbols("ac"), start=StartKind.ALL_INPUT)
        network.add(a)
        wrapped = ElementNetwork(network)
        gate = wrapped.add_gate(
            Gate(GateKind.AND, inputs=[("ste", 0), ("ste", 1)], reporting=True)
        )
        result = hybrid_run(wrapped, b"abc")
        gate_reports = result.reports[
            result.reports[:, 1] == element_report_id(wrapped, gate)
        ]
        assert gate_reports[:, 0].tolist() == [0]  # only 'a' activates both

    def test_or_and_nor(self):
        wrapped = self._two_ste()
        or_gate = wrapped.add_gate(Gate(GateKind.OR, inputs=[("ste", 0), ("ste", 1)],
                                        reporting=True))
        nor_gate = wrapped.add_gate(Gate(GateKind.NOR, inputs=[("ste", 0), ("ste", 1)],
                                         reporting=True))
        result = hybrid_run(wrapped, b"axb")
        or_id = element_report_id(wrapped, or_gate)
        nor_id = element_report_id(wrapped, nor_gate)
        or_positions = result.reports[result.reports[:, 1] == or_id][:, 0].tolist()
        nor_positions = result.reports[result.reports[:, 1] == nor_id][:, 0].tolist()
        assert or_positions == [0, 2]
        assert nor_positions == [1]

    def test_gate_feeding_counter(self):
        """Element-to-element wiring: count cycles where either STE fired."""
        wrapped = self._two_ste()
        or_gate = wrapped.add_gate(Gate(GateKind.OR, inputs=[("ste", 0), ("ste", 1)]))
        wrapped.add_counter(
            Counter(target=3, mode=CounterMode.PULSE,
                    count_inputs=[("element", or_gate)], reporting=True)
        )
        result = hybrid_run(wrapped, b"abxab")
        counter_id = element_report_id(wrapped, 1)
        fired = result.reports[result.reports[:, 1] == counter_id][:, 0].tolist()
        assert fired == [3]  # third firing of (a|b) is at position 3


class TestHybridMatchesPlainEngine:
    def test_no_elements_same_reports(self):
        """With zero elements the hybrid engine IS the reference engine."""
        network = Network("h")
        network.add(compile_regex("a(b|c)+d", name="r"))
        wrapped = ElementNetwork(network)
        data = b"abcbd abd xacd"
        plain = run(subset_core(network), data)
        hybrid = hybrid_run(wrapped, data)
        assert plain.reports.tolist() == hybrid.reports.tolist()

    def test_counter_equivalent_to_expanded_repeat(self):
        """A counter-based a{3} matches the state-expanded a{3} chain —
        the state-savings trade real AP designs use counters for."""
        expanded = Network("e")
        expanded.add(compile_regex("aaab", name="expanded"))

        network = Network("h")
        from repro.nfa.automaton import Automaton

        a = Automaton("m")
        a.add_state(SymbolSet.single("a"), start=StartKind.START_OF_DATA)
        a.add_state(SymbolSet.single("a"))
        a.add_state(SymbolSet.single("b"), reporting=True, report_code="hit")
        a.add_edge(0, 1)
        a.add_edge(1, 1)
        network.add(a)
        wrapped = ElementNetwork(network)
        counter = wrapped.add_counter(
            Counter(target=3, mode=CounterMode.LATCH,
                    count_inputs=[("ste", 0), ("ste", 1)])
        )
        wrapped.connect_enable(counter, 2)

        data = b"aaab"
        plain = run(subset_core(expanded), data)
        hybrid = hybrid_run(wrapped, data)
        assert plain.reports[:, 0].tolist() == hybrid.reports[:, 0].tolist() == [3]
