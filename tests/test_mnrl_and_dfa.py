"""Tests for the MNRL interchange format and DFA determinization."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.determinize import DeterminizeError, determinize
from repro.nfa.mnrl import network_from_mnrl, network_to_mnrl
from repro.nfa.regex import compile_regex
from repro.sim import run, subset_core
from repro.sim.result import reports_equal

from helpers import dfa_reports, random_input, random_network, seeds


def _net(*patterns, start=StartKind.ALL_INPUT):
    network = Network("n")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}", start=start))
    return network


class TestMNRL:
    def test_round_trip_structure(self):
        network = Network("demo")
        network.add(compile_regex("a(b|c)+d", name="r"))
        network.add(literal_chain(b"xyz", start=StartKind.START_OF_DATA))
        loaded = network_from_mnrl(network_to_mnrl(network))
        assert loaded.n_states == network.n_states
        assert loaded.n_edges == network.n_edges
        assert loaded.reporting_count() == network.reporting_count()
        kinds = sorted(
            s.start.value for _g, _a, s in loaded.global_states() if s.is_start
        )
        assert kinds == sorted(
            s.start.value for _g, _a, s in network.global_states() if s.is_start
        )

    def test_document_shape(self):
        network = _net(b"ab")
        document = json.loads(network_to_mnrl(network))
        assert document["id"] == "n"
        assert all(node["type"] == "hState" for node in document["nodes"])
        reporting = [n for n in document["nodes"] if n["report"]]
        assert len(reporting) == 1
        assert reporting[0]["attributes"]["reportId"] == "p0"

    def test_unknown_node_type_rejected(self):
        text = json.dumps({"id": "x", "nodes": [{"id": "a", "type": "upCounter"}]})
        with pytest.raises(ValueError):
            network_from_mnrl(text)

    def test_dangling_edge_rejected(self):
        text = json.dumps({
            "id": "x",
            "nodes": [{
                "id": "a", "type": "hState",
                "attributes": {"symbolSet": "a"},
                "activate": [{"id": "missing"}],
            }],
        })
        with pytest.raises(ValueError):
            network_from_mnrl(text)

    def test_duplicate_id_rejected(self):
        node = {"id": "a", "type": "hState", "attributes": {"symbolSet": "a"}}
        with pytest.raises(ValueError):
            network_from_mnrl(json.dumps({"id": "x", "nodes": [node, node]}))

    def test_missing_nodes_rejected(self):
        with pytest.raises(ValueError):
            network_from_mnrl(json.dumps({"id": "x"}))

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_behaviour_preserved(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, 20)
        loaded = network_from_mnrl(network_to_mnrl(network))
        original = run(subset_core(network), data)
        reloaded = run(subset_core(loaded), data)
        assert original.reports.shape == reloaded.reports.shape
        assert np.array_equal(
            np.unique(original.reports[:, 0]), np.unique(reloaded.reports[:, 0])
        )


class TestDeterminize:
    def test_single_chain(self):
        network = _net(b"abc")
        dfa = determinize(network)
        assert dfa_reports(network, dfa, b"xxabcxabc").tolist() == [[4, 2], [8, 2]]

    def test_matches_nfa_on_regex(self):
        network = Network("n")
        network.add(compile_regex("a((bc)|(cd)+)f"))
        dfa = determinize(network)
        data = b"abcfacdcdfzzabcdf"
        nfa_result = run(subset_core(network), data)
        assert reports_equal(dfa_reports(network, dfa, data), nfa_result.reports)

    def test_start_of_data(self):
        network = _net(b"ab", start=StartKind.START_OF_DATA)
        dfa = determinize(network)
        assert dfa_reports(network, dfa, b"abab").tolist() == [[1, 1]]

    def test_alphabet_compression(self):
        network = _net(b"ab")
        dfa = determinize(network)
        # Only 'a', 'b', and everything-else: 3 symbol classes.
        assert dfa.n_classes == 3

    def test_state_cap(self):
        # Many distinct patterns force subset blowup past a tiny cap.
        network = _net(b"abcd", b"bcda", b"cdab", b"dabc")
        with pytest.raises(DeterminizeError):
            determinize(network, max_states=2)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_equivalent_to_nfa(self, seed):
        """The determinized machine reports exactly what the network does."""
        rng = random.Random(seed)
        network = random_network(rng, n_automata=rng.randint(1, 3))
        data = random_input(rng, rng.randint(0, 30))
        dfa = determinize(network, max_states=20000)
        nfa_result = run(subset_core(network), data)
        assert reports_equal(dfa_reports(network, dfa, data), nfa_result.reports)

    def test_dfa_blowup_vs_nfa_size(self):
        """The classic motivation: DFAs can dwarf the NFA they encode."""
        network = Network("n")
        network.add(compile_regex("a.{6}b"))  # overlapping windows
        dfa = determinize(network, max_states=100000)
        assert dfa.n_states > network.n_states
