"""Tests for end-of-data reporting (``$`` anchors, ANML/MNRL eod) across
every engine, both interchange formats, and the partition pipeline."""

import random

import pytest

from repro.ap import APConfig
from repro.core import (
    prepare_partition,
    run_base_spap,
    run_baseline_ap,
    verify_equivalence,
)
from repro.nfa.anml import network_from_anml, network_to_anml
from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.determinize import determinize
from repro.nfa.mnrl import network_from_mnrl, network_to_mnrl
from repro.nfa.regex import RegexError, compile_regex
from repro.sim import reference_run, run, run_events, subset_core
from repro.sim.result import reports_equal

from helpers import dfa_reports, random_input


def _eod_net(pattern=b"ab"):
    """A chain reporting only at end-of-data."""
    network = Network("t")
    automaton = literal_chain(pattern, name="p")
    automaton.state(automaton.n_states - 1).eod = True
    network.add(automaton)
    return network


class TestEngineSemantics:
    def test_fires_only_at_last_position(self):
        network = _eod_net(b"ab")
        result = run(subset_core(network), b"abxab")
        assert result.reports.tolist() == [[4, 1]]

    def test_silent_when_no_match_at_end(self):
        network = _eod_net(b"ab")
        result = run(subset_core(network), b"abxx")
        assert result.reports.size == 0

    def test_all_engines_agree(self):
        network = _eod_net(b"ab")
        rng = random.Random(4)
        for _ in range(10):
            data = random_input(rng, rng.randint(1, 20), b"abx")
            fast = run(subset_core(network), data)
            ref = reference_run(network, data)
            dfa = determinize(network)
            assert reports_equal(fast.reports, ref.reports)
            assert reports_equal(dfa_reports(network, dfa, data), ref.reports)

    def test_run_events_respects_eod(self):
        network = _eod_net(b"ab")
        outcome = run_events(subset_core(network), b"abab", [])
        assert outcome.reports.tolist() == [[3, 1]]

    def test_non_eod_states_unaffected(self):
        network = Network("t")
        network.add(literal_chain(b"ab"))
        network.add(_eod_net(b"ab").automata[0].copy("p2"))
        result = run(subset_core(network), b"abab")
        # Plain reporter fires at 1 and 3; eod reporter only at 3.
        assert result.reports.tolist() == [[1, 1], [3, 1], [3, 3]]


class TestRegexAnchors:
    def test_dollar_sets_eod(self):
        automaton = compile_regex("ab$")
        last = automaton.state(automaton.n_states - 1)
        assert last.eod and last.reporting

    def test_caret_sets_start_of_data(self):
        automaton = compile_regex("^ab")
        assert automaton.state(0).start is StartKind.START_OF_DATA

    def test_full_anchoring_semantics(self):
        network = Network("t")
        network.add(compile_regex("^ab$"))
        compiled = subset_core(network)
        assert run(compiled, b"ab").reports.shape[0] == 1
        assert run(compiled, b"abx").reports.size == 0
        assert run(compiled, b"xab").reports.size == 0

    def test_dollar_only_rejected(self):
        with pytest.raises(RegexError):
            compile_regex("$")
        with pytest.raises(RegexError):
            compile_regex("^")

    def test_dollar_semantics_match_re(self):
        import re

        network = Network("t")
        network.add(compile_regex("ab$"))
        compiled = subset_core(network)
        for text in ("ab", "xab", "abx", "abab", ""):
            ours = run(compiled, text.encode()).reports.shape[0] > 0
            theirs = re.search("ab$", text) is not None
            assert ours == theirs, text


class TestInterchange:
    def test_anml_round_trip(self):
        network = _eod_net(b"abc")
        loaded = network_from_anml(network_to_anml(network))
        flags = [s.eod for _g, _a, s in loaded.global_states() if s.reporting]
        assert flags == [True]

    def test_mnrl_round_trip(self):
        network = _eod_net(b"abc")
        loaded = network_from_mnrl(network_to_mnrl(network))
        flags = [s.eod for _g, _a, s in loaded.global_states() if s.reporting]
        assert flags == [True]


class TestPartitionWithEod:
    def test_equivalence_preserved(self):
        """The partition invariant must hold for eod reporters in cold sets."""
        network = Network("t")
        for index in range(3):
            automaton = compile_regex("abcdef$", name=f"p{index}")
            network.add(automaton)
        config = APConfig(capacity=10, blocks=96)
        data = b"zzabcdefzz" * 3 + b"abcdef"
        baseline = run_baseline_ap(network, data, config)
        assert baseline.reports.shape[0] == 3  # once per NFA, at the end
        partitioned, bins = prepare_partition(network, b"zzzz", config, fill=False)
        outcome = run_base_spap(partitioned, data, config, bins)
        assert verify_equivalence(baseline, outcome)
