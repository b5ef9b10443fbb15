"""Tests for the workload generator building blocks."""

import numpy as np
import pytest

from repro.nfa.analysis import analyze_automaton, analyze_network
from repro.nfa.automaton import Network, StartKind
from repro.sim import reference_run
from repro.workloads.generators import (
    ClassChainSpec,
    class_chain_network,
    class_of_width,
    dotstar_network,
    patterns_network,
    representative_match,
    tree_network,
)


class TestClassOfWidth:
    def test_width_respected(self):
        rng = np.random.default_rng(0)
        for width in [1, 5, 100, 256]:
            assert len(class_of_width(rng, width)) == width

    def test_width_clamped(self):
        rng = np.random.default_rng(0)
        assert len(class_of_width(rng, 0)) == 1
        assert len(class_of_width(rng, 500)) == 256

    def test_alphabet_restriction(self):
        rng = np.random.default_rng(0)
        s = class_of_width(rng, 3, b"ACGT")
        assert all(chr(v) in "ACGT" for v in s.symbols())

    def test_alphabet_width_clamped(self):
        rng = np.random.default_rng(0)
        assert len(class_of_width(rng, 10, b"ACGT")) == 4


class TestClassChains:
    def _spec(self, **kwargs):
        defaults = dict(
            n_nfas=5,
            length=lambda rng: 4,
            width=lambda rng: 2,
            name="cc",
        )
        defaults.update(kwargs)
        return ClassChainSpec(**defaults)

    def test_shape(self):
        network = class_chain_network(self._spec(), seed=1)
        assert network.n_automata == 5
        assert network.n_states == 20
        for automaton in network.automata:
            assert len(automaton.start_states()) == 1
            assert len(automaton.reporting_states()) == 1
            assert automaton.n_edges == 3

    def test_deterministic(self):
        a = class_chain_network(self._spec(), seed=1)
        b = class_chain_network(self._spec(), seed=1)
        assert [s.symbol_set for _g, _a, s in a.global_states()] == [
            s.symbol_set for _g, _a, s in b.global_states()
        ]

    def test_shared_prefix(self):
        network = class_chain_network(self._spec(shared_prefix=2), seed=1)
        first = [a.state(0).symbol_set for a in network.automata]
        second = [a.state(1).symbol_set for a in network.automata]
        assert len(set(first)) == 1
        assert len(set(second)) == 1
        third = [a.state(2).symbol_set for a in network.automata]
        assert len(set(third)) > 1  # beyond the prefix, sets diverge

    def test_start_kind(self):
        network = class_chain_network(self._spec(start=StartKind.START_OF_DATA), seed=1)
        kinds = {a.state(0).start for a in network.automata}
        assert kinds == {StartKind.START_OF_DATA}


class TestDotstar:
    def test_star_state_self_loop(self):
        network = dotstar_network(
            10, lambda r: 3, lambda r: 3, dotstar_fraction=1.0, seed=2
        )
        for automaton in network.automata:
            loops = [s for s, d in automaton.edges() if s == d]
            assert len(loops) == 1
            star = automaton.state(loops[0])
            assert star.symbol_set.is_universal()

    def test_fraction_zero_plain_chains(self):
        network = dotstar_network(
            10, lambda r: 3, lambda r: 3, dotstar_fraction=0.0, seed=2
        )
        assert all(
            not any(s == d for s, d in a.edges()) for a in network.automata
        )

    def test_dotstar_match_semantics(self):
        """Once the prefix matches, a suffix match at ANY later gap reports."""
        network = dotstar_network(
            1, lambda r: 2, lambda r: 2, dotstar_fraction=1.0, seed=3
        )
        automaton = network.automata[0]
        rng = np.random.default_rng(0)
        rep = representative_match(automaton, rng)
        assert rep is not None
        prefix, suffix = rep[:2], rep[-2:]
        data = prefix + b"\x00\x00\x00" + suffix
        result = reference_run(network, data)
        assert result.reports.shape[0] >= 1
        assert result.reports[-1, 0] == len(data) - 1


class TestTrees:
    def test_shape(self):
        network = tree_network(3, depth=3, leaves=7, width=lambda r: 200, seed=4)
        assert network.n_automata == 3
        assert all(a.n_states == 21 for a in network.automata)

    def test_max_topo_is_depth(self):
        network = tree_network(2, depth=3, leaves=4, width=lambda r: 200, seed=4)
        topology = analyze_network(network)
        assert topology.max_topo == 3

    def test_leaves_report(self):
        network = tree_network(1, depth=3, leaves=4, width=lambda r: 200, seed=4)
        assert len(network.automata[0].reporting_states()) == 4


class TestPatternsNetwork:
    def test_pattern_matches_itself(self):
        patterns = [b"hello", b"world"]
        network = patterns_network(patterns, name="p", seed=5)
        result = reference_run(network, b"xxhelloxxworldxx")
        positions = sorted(result.reports[:, 0].tolist())
        assert positions == [6, 13]

    def test_class_widening_keeps_pattern_match(self):
        patterns = [b"signature"]
        network = patterns_network(
            patterns, name="p", class_prob=0.5, class_width=10, seed=6
        )
        result = reference_run(network, b"..signature..")
        assert result.reports.shape[0] >= 1

    def test_wildcards_keep_pattern_match(self):
        network = patterns_network([b"abcdef"], name="p", wildcard_prob=0.4, seed=7)
        result = reference_run(network, b"abcdef")
        assert result.reports.shape[0] == 1

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            patterns_network([b""], name="p")


class TestRepresentativeMatch:
    def test_chain(self):
        network = patterns_network([b"abc"], name="p")
        rng = np.random.default_rng(0)
        rep = representative_match(network.automata[0], rng)
        assert rep == b"abc"

    def test_representative_reaches_report(self):
        network = dotstar_network(
            4, lambda r: 3, lambda r: 4, dotstar_fraction=0.5, seed=8
        )
        rng = np.random.default_rng(0)
        for automaton in network.automata:
            rep = representative_match(automaton, rng)
            assert rep is not None
            single = Network("one")
            single.add(automaton)
            result = reference_run(single, rep)
            assert result.reports.shape[0] >= 1

    def test_unreachable_returns_none(self):
        from repro.nfa.automaton import Automaton
        from repro.nfa.symbolset import SymbolSet

        automaton = Automaton("dead")
        automaton.add_state(SymbolSet.single("a"), start=StartKind.ALL_INPUT)
        automaton.add_state(SymbolSet.single("b"), reporting=True)  # disconnected
        rng = np.random.default_rng(0)
        assert representative_match(automaton, rng) is None
