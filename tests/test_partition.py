"""Tests for topological partitioning and intermediate reporting states.

The central invariant (checked here by hand cases and property tests):
executing the hot partition over the input and then replaying the cold
partition driven by intermediate reports yields exactly the reports of the
unpartitioned network.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.partition import (
    INTERMEDIATE_CODE,
    hot_size_with_intermediates,
    partition_network,
    plan_hot_batches,
)
from repro.core.profiling import choose_partition_layers
from repro.nfa.analysis import analyze_network
from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.regex import compile_regex
from repro.sim import run, run_events, subset_core
from repro.sim.result import reports_equal, reports_to_array

from helpers import random_input, random_network, seeds


def _chain_net(pattern=b"abcdef"):
    network = Network("n")
    network.add(literal_chain(pattern, name="p"))
    return network


def partitioned_reports(network, partitioned, data):
    """Run hot then cold (single batches) and merge final reports."""
    hot_result = run(subset_core(partitioned.hot), data)
    reports = hot_result.reports
    if reports.size:
        is_im = partitioned.hot_is_intermediate[reports[:, 1]]
        final = reports[~is_im].copy()
        final[:, 1] = partitioned.hot_to_parent[reports[~is_im][:, 1]]
        events = reports[is_im].copy()
        events[:, 1] = [partitioned.translation[int(g)] for g in reports[is_im][:, 1]]
    else:
        final = reports
        events = reports
    merged = [final]
    if partitioned.cold.n_states:
        cold_out = run_events(subset_core(partitioned.cold), data, events)
        cold_reports = cold_out.reports.copy()
        if cold_reports.size:
            cold_reports[:, 1] = partitioned.cold_to_parent[cold_reports[:, 1]]
        merged.append(cold_reports)
    merged = [m for m in merged if m.size]
    return reports_to_array(np.concatenate(merged) if merged else [])


class TestPartitionStructure:
    def test_chain_cut(self):
        network = _chain_net(b"abcdef")
        partitioned = partition_network(network, [3])
        assert partitioned.n_hot_original == 3
        assert partitioned.n_cold == 3
        assert partitioned.n_intermediate == 1  # one crossing edge c->d
        assert partitioned.hot.n_states == 4

    def test_intermediate_mirrors_target_symbolset(self):
        network = _chain_net(b"abcdef")
        partitioned = partition_network(network, [3])
        intermediates = [
            s for _g, _a, s in partitioned.hot.global_states()
            if s.report_code == INTERMEDIATE_CODE
        ]
        assert len(intermediates) == 1
        assert intermediates[0].symbol_set.matches("d")
        assert intermediates[0].reporting

    def test_translation_points_to_cut_target(self):
        network = _chain_net(b"abcdef")
        partitioned = partition_network(network, [3])
        (cold_gid,) = partitioned.translation.values()
        assert partitioned.cold_to_parent[cold_gid] == 3  # state matching 'd'

    def test_shared_intermediate_for_multi_predecessor_target(self):
        # a(b|c)d: both Glushkov positions b,c feed d; cut at layer 2.
        network = Network("n")
        network.add(compile_regex("a(b|c)de"))
        partitioned = partition_network(network, [2])
        assert partitioned.n_intermediate == 1  # one v' shared for target d

    def test_full_hot_partition(self):
        network = _chain_net(b"abc")
        partitioned = partition_network(network, [3])
        assert partitioned.n_cold == 0
        assert partitioned.n_intermediate == 0
        assert partitioned.cold.n_automata == 0

    def test_layer_below_one_rejected(self):
        network = _chain_net(b"abc")
        with pytest.raises(ValueError):
            partition_network(network, [0])

    def test_wrong_layer_count_rejected(self):
        network = _chain_net(b"abc")
        with pytest.raises(ValueError):
            partition_network(network, [1, 1])

    def test_scc_never_split(self):
        network = Network("n")
        network.add(compile_regex("ab(cd)+e"))
        topology = analyze_network(network)
        for k in range(1, int(topology.max_topo) + 1):
            partitioned = partition_network(network, [k], topology=topology)
            # Every cold automaton state's SCC must be fully cold.
            orders = topology.per_automaton[0].topo_order
            cold_orders = orders[orders > k]
            hot_orders = orders[orders <= k]
            assert not set(cold_orders.tolist()) & set(hot_orders.tolist())

    def test_resource_saving(self):
        network = _chain_net(b"abcdefgh")
        partitioned = partition_network(network, [2])
        assert partitioned.resource_saving() == pytest.approx(6 / 8)

    def test_reporting_counts(self):
        network = _chain_net(b"abcd")
        partitioned = partition_network(network, [2])
        counts = partitioned.reporting_counts()
        assert counts["baseline"] == 1
        assert counts["hot_true"] == 0  # the reporting tail is cold
        assert counts["intermediate"] == 1


class TestHotSize:
    def test_chain(self):
        network = _chain_net(b"abcdef")
        topology = analyze_network(network)
        orders = topology.per_automaton[0].topo_order
        automaton = network.automata[0]
        assert hot_size_with_intermediates(automaton, orders, 3) == 4  # 3 + 1 im
        assert hot_size_with_intermediates(automaton, orders, 6) == 6  # all, no im

    def test_matches_constructed_size(self):
        rng = random.Random(7)
        network = random_network(rng, n_automata=3)
        topology = analyze_network(network)
        for index, automaton in enumerate(network.automata):
            orders = topology.per_automaton[index].topo_order
            max_order = topology.per_automaton[index].max_order
            for k in range(1, max_order + 1):
                layers = [topology.per_automaton[i].max_order for i in range(3)]
                layers[index] = k
                partitioned = partition_network(network, layers, topology=topology)
                expected = sum(
                    hot_size_with_intermediates(
                        network.automata[i],
                        topology.per_automaton[i].topo_order,
                        layers[i],
                    )
                    for i in range(3)
                )
                assert partitioned.hot.n_states == expected


class TestCapacityFill:
    def test_fill_extends_layers(self):
        network = Network("n")
        network.add(literal_chain(b"abcdefgh", name="p0"))
        topology = analyze_network(network)
        # Predicted layer 2 (hot size 3 with im); capacity 6 leaves slack.
        layers, bins = plan_hot_batches(network, topology, [2], capacity=6)
        assert bins == [[0]]
        assert layers[0] > 2  # slack absorbed deeper layers

    def test_fill_respects_capacity(self):
        network = Network("n")
        network.add(literal_chain(b"abcdefgh", name="p0"))
        network.add(literal_chain(b"ijklmnop", name="p1"))
        topology = analyze_network(network)
        layers, bins = plan_hot_batches(network, topology, [2, 2], capacity=7)
        for members in bins:
            total = sum(
                hot_size_with_intermediates(
                    network.automata[i], topology.per_automaton[i].topo_order, int(layers[i])
                )
                for i in members
            )
            assert total <= 7

    def test_fill_disabled(self):
        network = _chain_net(b"abcdefgh")
        topology = analyze_network(network)
        layers, _bins = plan_hot_batches(network, topology, [2], capacity=100, fill=False)
        assert layers.tolist() == [2]

    def test_fill_consumes_whole_network_when_it_fits(self):
        network = _chain_net(b"abcd")
        topology = analyze_network(network)
        layers, _bins = plan_hot_batches(network, topology, [1], capacity=100)
        assert layers.tolist() == [4]


class TestEquivalenceInvariant:
    def test_chain_every_cut(self):
        network = _chain_net(b"abcab")
        data = b"abcababcab"
        baseline = run(subset_core(network), data).reports
        for k in range(1, 6):
            partitioned = partition_network(network, [k])
            assert reports_equal(baseline, partitioned_reports(network, partitioned, data))

    def test_regex_with_cycles_every_cut(self):
        network = Network("n")
        network.add(compile_regex("a((bc)|(cd)+)f"))
        topology = analyze_network(network)
        data = b"abcfacdcdfabcdf"
        baseline = run(subset_core(network), data).reports
        assert baseline.size  # the test must exercise real matches
        for k in range(1, topology.max_topo + 1):
            partitioned = partition_network(network, [k], topology=topology)
            assert reports_equal(baseline, partitioned_reports(network, partitioned, data))

    @settings(max_examples=50, deadline=None)
    @given(seeds)
    def test_random_networks_random_cuts(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, n_automata=rng.randint(1, 3))
        topology = analyze_network(network)
        data = random_input(rng, rng.randint(1, 30))
        layers = [
            rng.randint(1, topology.per_automaton[i].max_order)
            for i in range(network.n_automata)
        ]
        partitioned = partition_network(network, layers, topology=topology)
        baseline = run(subset_core(network), data).reports
        assert reports_equal(baseline, partitioned_reports(network, partitioned, data))

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_profiled_layers_preserve_semantics(self, seed):
        """Layers chosen from (possibly bad) profiling still never lose reports."""
        rng = random.Random(seed)
        network = random_network(rng, n_automata=2)
        topology = analyze_network(network)
        profile_data = random_input(rng, 4)
        test_data = random_input(rng, 30)
        profiled = run(subset_core(network), profile_data)
        layers = choose_partition_layers(network, topology, profiled.hot_mask())
        partitioned = partition_network(network, layers, topology=topology)
        baseline = run(subset_core(network), test_data).reports
        assert reports_equal(baseline, partitioned_reports(network, partitioned, test_data))


class TestPerEdgeIntermediates:
    """The paper-literal construction: one intermediate per cut edge."""

    def test_multi_predecessor_target_gets_one_per_edge(self):
        network = Network("n")
        network.add(compile_regex("a(b|c)de"))
        shared = partition_network(network, [2], share_intermediates=True)
        literal = partition_network(network, [2], share_intermediates=False)
        assert shared.n_intermediate == 1
        assert literal.n_intermediate == 2  # edges b->d and c->d

    def test_equivalence_holds_in_both_modes(self):
        network = Network("n")
        network.add(compile_regex("a(b|c)de"))
        data = b"abdeacde.abde"
        baseline = run(subset_core(network), data).reports
        for share in (True, False):
            partitioned = partition_network(network, [2], share_intermediates=share)
            assert reports_equal(
                baseline, partitioned_reports(network, partitioned, data)
            ), share

    def test_single_predecessor_identical(self):
        network = _chain_net(b"abcdef")
        shared = partition_network(network, [3], share_intermediates=True)
        literal = partition_network(network, [3], share_intermediates=False)
        assert shared.n_intermediate == literal.n_intermediate == 1

    def test_literal_mode_never_fewer_intermediates(self):
        rng = random.Random(11)
        for _ in range(10):
            network = random_network(rng, n_automata=2)
            from repro.nfa.analysis import analyze_network as _an

            topology = _an(network)
            layers = [
                rng.randint(1, topology.per_automaton[i].max_order)
                for i in range(network.n_automata)
            ]
            shared = partition_network(network, layers, topology=topology)
            literal = partition_network(
                network, layers, topology=topology, share_intermediates=False
            )
            assert literal.n_intermediate >= shared.n_intermediate
