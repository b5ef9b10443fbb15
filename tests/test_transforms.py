"""Tests for network transforms: duplication and common-prefix merging."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.transforms import duplicate_network, is_chain, merge_common_prefixes
from repro.sim import run, subset_core
from repro.sim.result import reports_equal

from helpers import random_input, random_network, seeds


def _patterns_net(*patterns):
    network = Network("n")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}", report_code=f"r{index}"))
    return network


class TestDuplicate:
    def test_state_multiplication(self):
        network = _patterns_net(b"abc", b"de")
        doubled = duplicate_network(network, 2)
        assert doubled.n_states == 2 * network.n_states
        assert doubled.n_automata == 2 * network.n_automata

    def test_one_copy_is_identity_shape(self):
        network = _patterns_net(b"abc")
        copy = duplicate_network(network, 1)
        assert copy.n_states == network.n_states

    def test_reports_multiply(self):
        network = _patterns_net(b"ab")
        doubled = duplicate_network(network, 3)
        result = run(subset_core(doubled), b"xxabxx")
        assert result.reports.shape[0] == 3

    def test_report_codes_distinguish_streams(self):
        network = _patterns_net(b"ab")
        doubled = duplicate_network(network, 2)
        codes = {
            s.report_code for _g, _a, s in doubled.global_states() if s.reporting
        }
        assert codes == {"r0", "r0@1"}

    def test_bad_copies(self):
        with pytest.raises(ValueError):
            duplicate_network(_patterns_net(b"ab"), 0)


class TestIsChain:
    def test_chain(self):
        assert is_chain(literal_chain(b"abcd"))

    def test_single_state(self):
        assert is_chain(literal_chain(b"a"))

    def test_branching_not_chain(self):
        automaton = literal_chain(b"abc")
        automaton.add_edge(0, 2)
        assert not is_chain(automaton)

    def test_self_loop_not_chain(self):
        automaton = literal_chain(b"abc")
        automaton.add_edge(1, 1)
        assert not is_chain(automaton)


class TestMergeCommonPrefixes:
    def test_shared_prefix_saves_states(self):
        network = _patterns_net(b"abcX", b"abcY", b"abcZ")
        merged = merge_common_prefixes(network)
        # 3 chains of 4 = 12 states -> trie: 3 shared + 3 leaves = 6.
        assert merged.n_states == 6
        assert merged.n_automata == 1

    def test_disjoint_patterns_keep_states(self):
        network = _patterns_net(b"abc", b"xyz")
        merged = merge_common_prefixes(network)
        assert merged.n_states == 6

    def test_reports_preserved(self):
        network = _patterns_net(b"abcX", b"abcY", b"qq")
        merged = merge_common_prefixes(network)
        data = b"..abcX..abcY..qq.."
        original = run(subset_core(network), data)
        trie = run(subset_core(merged), data)
        # Same report positions with the same multiplicity.
        assert np.array_equal(
            np.sort(original.reports[:, 0]), np.sort(trie.reports[:, 0])
        )

    def test_prefix_of_another_pattern(self):
        """'ab' reporting inside 'abc' must still report at the shared node."""
        network = _patterns_net(b"ab", b"abc")
        merged = merge_common_prefixes(network)
        assert merged.n_states == 3
        data = b"abc"
        original = run(subset_core(network), data)
        trie = run(subset_core(merged), data)
        assert np.array_equal(
            np.sort(original.reports[:, 0]), np.sort(trie.reports[:, 0])
        )

    def test_non_chains_passed_through(self):
        network = _patterns_net(b"abcX", b"abcY")
        loop = literal_chain(b"qr", name="loop")
        loop.add_edge(1, 0)
        network.add(loop)
        merged = merge_common_prefixes(network)
        assert merged.n_automata == 2  # the loop machine + one trie

    def test_start_kinds_not_mixed(self):
        network = Network("n")
        network.add(literal_chain(b"abX", name="u"))
        network.add(literal_chain(b"abY", name="a", start=StartKind.START_OF_DATA))
        merged = merge_common_prefixes(network)
        assert merged.n_automata == 2  # one trie per start kind

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_random_chain_sets_equivalent(self, seed):
        rng = random.Random(seed)
        alphabet = b"ab"
        patterns = [
            bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        network = _patterns_net(*patterns)
        merged = merge_common_prefixes(network)
        assert merged.n_states <= network.n_states
        data = random_input(rng, 30, alphabet)
        original = run(subset_core(network), data)
        trie = run(subset_core(merged), data)
        # Duplicate patterns collapse, so compare distinct report positions.
        assert np.array_equal(
            np.unique(original.reports[:, 0] if original.reports.size else []),
            np.unique(trie.reports[:, 0] if trie.reports.size else []),
        )
