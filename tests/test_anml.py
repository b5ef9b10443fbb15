"""ANML serialization round-trip tests."""

import random

import numpy as np
from hypothesis import given, settings

from repro.nfa.anml import format_symbol_set, network_from_anml, network_to_anml, parse_symbol_set
from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.regex import compile_regex
from repro.nfa.symbolset import SymbolSet
from repro.sim import run, subset_core
from repro.sim.result import reports_equal

from helpers import random_input, random_network, seeds


class TestSymbolSetSyntax:
    def test_star(self):
        assert parse_symbol_set("*").is_universal()

    def test_single_char(self):
        assert parse_symbol_set("a") == SymbolSet.single("a")

    def test_class(self):
        assert parse_symbol_set("[a-c]") == SymbolSet.from_ranges(("a", "c"))

    def test_negated_class(self):
        assert parse_symbol_set("[^a]") == SymbolSet.single("a").complement()

    def test_format_round_trip(self):
        for s in [
            SymbolSet.single(0),
            SymbolSet.from_ranges(("a", "z")),
            SymbolSet.from_symbols("a-]^"),
            SymbolSet.universal(),
        ]:
            assert parse_symbol_set(format_symbol_set(s)) == s


class TestNetworkRoundTrip:
    def _round_trip(self, network: Network) -> Network:
        return network_from_anml(network_to_anml(network), name=network.name)

    def test_structure_preserved(self):
        network = Network("demo")
        network.add(compile_regex("a((bc)|(cd)+)f", name="p"))
        network.add(literal_chain(b"virus", name="sig"))
        loaded = self._round_trip(network)
        assert loaded.n_automata == 2
        assert loaded.n_states == network.n_states
        assert loaded.n_edges == network.n_edges
        assert loaded.reporting_count() == network.reporting_count()
        assert loaded.start_count() == network.start_count()

    def test_start_kinds_preserved(self):
        network = Network("starts")
        network.add(literal_chain(b"ab", start=StartKind.START_OF_DATA))
        loaded = self._round_trip(network)
        kinds = {s.start for _g, _a, s in loaded.global_states() if s.is_start}
        assert kinds == {StartKind.START_OF_DATA}

    def test_report_codes_preserved(self):
        network = Network("codes")
        network.add(literal_chain(b"ab", report_code="R42"))
        loaded = self._round_trip(network)
        codes = [s.report_code for _g, _a, s in loaded.global_states() if s.reporting]
        assert codes == ["R42"]

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_behaviour_preserved(self, seed):
        """The loaded network must produce identical report streams."""
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, 25)
        loaded = self._round_trip(network)
        original = run(subset_core(network), data)
        reloaded = run(subset_core(loaded), data)
        # State ids may be permuted across automata grouping, so compare
        # report positions and counts only.
        assert original.reports.shape == reloaded.reports.shape
        assert np.array_equal(
            np.unique(original.reports[:, 0]), np.unique(reloaded.reports[:, 0])
        )


class TestErrors:
    def test_duplicate_id_rejected(self):
        text = """<anml><automata-network id="x">
        <state-transition-element id="a" symbol-set="a"/>
        <state-transition-element id="a" symbol-set="b"/>
        </automata-network></anml>"""
        try:
            network_from_anml(text)
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_dangling_edge_rejected(self):
        text = """<anml><automata-network id="x">
        <state-transition-element id="a" symbol-set="a">
          <activate-on-match element="missing"/>
        </state-transition-element>
        </automata-network></anml>"""
        try:
            network_from_anml(text)
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_missing_network_rejected(self):
        try:
            network_from_anml("<anml></anml>")
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_bare_network_element_accepted(self):
        text = """<automata-network id="x">
        <state-transition-element id="a" symbol-set="a" start="all-input">
          <report-on-match reportcode="r"/>
        </state-transition-element>
        </automata-network>"""
        network = network_from_anml(text)
        assert network.n_states == 1
        assert network.name == "x"
