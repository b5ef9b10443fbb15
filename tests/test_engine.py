"""Tests for the fast bit-parallel engine against the reference engine."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.symbolset import SymbolSet
from repro.sim import reference_run, run, run_events, subset_core
from repro.sim.result import reports_equal

from helpers import input_lengths, random_input, random_network, seeds


def _single(automaton) -> Network:
    network = Network("t")
    network.add(automaton)
    return network


class TestFastEngineBasics:
    def test_paper_example(self):
        """Fig 2: a((bc)|(cd)+)f over 'abcf' reports at the final f."""
        from repro.nfa.regex import compile_regex

        network = _single(compile_regex("a((bc)|(cd)+)f"))
        result = run(subset_core(network), b"abcf")
        assert result.reports.shape[0] == 1
        assert result.reports[0, 0] == 3

    def test_no_match(self):
        network = _single(literal_chain(b"abc"))
        result = run(subset_core(network), b"xyz")
        assert result.reports.size == 0

    def test_overlapping_matches(self):
        network = _single(literal_chain(b"aa"))
        result = run(subset_core(network), b"aaaa")
        assert result.reports[:, 0].tolist() == [1, 2, 3]

    def test_empty_input(self):
        network = _single(literal_chain(b"abc"))
        result = run(subset_core(network), b"")
        assert result.cycles == 0
        assert result.reports.size == 0
        assert result.hot_count() == 0

    def test_cycles_equal_input_length(self):
        network = _single(literal_chain(b"ab"))
        assert run(subset_core(network), b"qwerty").cycles == 6

    def test_start_of_data_only_matches_at_zero(self):
        network = _single(literal_chain(b"ab", start=StartKind.START_OF_DATA))
        result = run(subset_core(network), b"abab")
        assert result.reports[:, 0].tolist() == [1]

    def test_hot_set_includes_starts(self):
        network = _single(literal_chain(b"abc"))
        result = run(subset_core(network), b"zzz")
        assert result.hot_indices().tolist() == [0]
        assert result.hot_fraction() == pytest.approx(1 / 3)

    def test_hot_set_grows_with_matching_prefix(self):
        network = _single(literal_chain(b"abc"))
        result = run(subset_core(network), b"abz")
        # 'a' activates s0 enabling s1; 'b' activates s1 enabling s2.
        assert result.hot_indices().tolist() == [0, 1, 2]


class TestEquivalenceWithReference:
    @settings(max_examples=60, deadline=None)
    @given(seeds, input_lengths)
    def test_reports_and_hot_sets_match(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        fast = run(subset_core(network), data)
        ref = reference_run(network, data)
        assert reports_equal(fast.reports, ref.reports)
        assert np.array_equal(fast.ever_enabled, ref.ever_enabled)

    @settings(max_examples=30, deadline=None)
    @given(seeds, input_lengths)
    def test_start_of_data_networks(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng, start=StartKind.START_OF_DATA)
        data = random_input(rng, length)
        fast = run(subset_core(network), data)
        ref = reference_run(network, data)
        assert reports_equal(fast.reports, ref.reports)


class TestRunEvents:
    def _cold_chain(self):
        """A chain with NO start states: only events can enable it."""
        automaton = Automaton("cold")
        for index, char in enumerate(b"abc"):
            automaton.add_state(
                SymbolSet.single(char), reporting=index == 2, report_code="hit"
            )
        automaton.add_edge(0, 1)
        automaton.add_edge(1, 2)
        network = Network("cold-net")
        network.add(automaton)
        return network

    def test_no_events_consumes_nothing(self):
        network = self._cold_chain()
        outcome = run_events(subset_core(network), b"abcabc", [])
        assert outcome.consumed_cycles == 0
        assert outcome.total_cycles == 0
        assert outcome.reports.size == 0

    def test_jump_skips_idle_prefix(self):
        network = self._cold_chain()
        outcome = run_events(subset_core(network), b"zzzzabc", [(4, 0)])
        assert outcome.jumps == 1
        assert outcome.consumed_cycles == 3  # positions 4, 5, 6
        assert outcome.reports.tolist() == [[6, 2]]

    def test_event_matches_reference_injection(self):
        network = self._cold_chain()
        data = b"xxabcxx"
        events = [(2, 0)]
        fast = run_events(subset_core(network), data, events)
        ref = reference_run(network, data, events=events)
        assert reports_equal(fast.reports, ref.reports)

    def test_simultaneous_events_stall(self):
        network = self._cold_chain()
        outcome = run_events(
            subset_core(network), b"abc", [(0, 0), (0, 1), (0, 2)]
        )
        assert outcome.stall_cycles == 2  # 3 simultaneous enables -> 2 stalls

    def test_stalls_can_be_disabled(self):
        network = self._cold_chain()
        outcome = run_events(
            subset_core(network), b"abc", [(0, 0), (0, 1)], count_stalls=False
        )
        assert outcome.stall_cycles == 0

    def test_event_beyond_input_ignored(self):
        network = self._cold_chain()
        outcome = run_events(subset_core(network), b"abc", [(3, 0)])
        assert outcome.consumed_cycles == 0
        assert outcome.reports.size == 0

    def test_jump_ratio(self):
        network = self._cold_chain()
        outcome = run_events(subset_core(network), b"zzzzzzza", [(7, 0)])
        assert outcome.consumed_cycles == 1
        assert outcome.jump_ratio() == pytest.approx(7 / 8)

    @settings(max_examples=40, deadline=None)
    @given(seeds, input_lengths)
    def test_random_events_match_reference(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        n = network.n_states
        events = sorted(
            (rng.randrange(max(1, length)), rng.randrange(n))
            for _ in range(rng.randint(0, 5))
            if length > 0
        )
        fast = run_events(subset_core(network), data, events)
        ref = reference_run(network, data, events=events)
        assert reports_equal(fast.reports, ref.reports)


class TestCompiledNetwork:
    """The engine's compiled form: the network's subset core."""

    def test_accept_matrix_shape(self):
        network = _single(literal_chain(b"ab"))
        compiled = subset_core(network)
        assert compiled.class_of.shape == (256,)
        # 'a', 'b' and every other byte: three classes, one accept mask each.
        assert len(compiled.accept_masks) == compiled.n_classes == 3

    def test_accept_matrix_contents(self):
        network = _single(literal_chain(b"ab"))
        compiled = subset_core(network)
        assert compiled.accept_masks[compiled.class_of[ord("a")]] == 0b01
        assert compiled.accept_masks[compiled.class_of[ord("b")]] == 0b10
        assert compiled.accept_masks[compiled.class_of[ord("z")]] == 0

    def test_csr_successors(self):
        network = _single(literal_chain(b"abc"))
        compiled = subset_core(network)
        moving = ~compiled.always_mask
        assert compiled.step(0b001) & moving == 0b010
        assert compiled.step(0b011) & moving == 0b110
        assert compiled.step(0b100) & moving == 0

    def test_global_id_offsets(self):
        network = Network("two")
        network.add(literal_chain(b"ab"))
        network.add(literal_chain(b"cd"))
        compiled = subset_core(network)
        # Second automaton's head accepts 'c' and is state 2; its successor
        # mask is local to the automaton and shifted into place at use.
        assert compiled.accept_masks[compiled.class_of[ord("c")]] == 1 << 2
        assert compiled.succ_masks[2] == 0b10 and compiled.succ_bases[2] == 2
        assert compiled.step(1 << 2) & ~compiled.always_mask == 1 << 3

    def test_report_codes(self):
        from repro.sim import decode_reports

        network = _single(literal_chain(b"ab", report_code="R1"))
        compiled = subset_core(network)
        assert compiled.report_mask == 0b10
        (decoded,) = decode_reports(network, run(compiled, b"xab").reports)
        assert decoded.code == "R1" and decoded.position == 2
