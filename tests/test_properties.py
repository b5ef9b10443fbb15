"""Cross-cutting property tests on core invariants (hypothesis-driven)."""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ap.batching import min_batches, pack_batches
from repro.core.partition import hot_size_with_intermediates, partition_network, plan_hot_batches
from repro.nfa.analysis import analyze_network
from repro.sim import run, run_events, subset_core
from repro.sim.result import reports_to_array

from helpers import random_input, random_network, seeds


class TestPackingProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
        st.integers(min_value=40, max_value=100),
    )
    def test_bins_valid(self, sizes, capacity):
        bins = pack_batches(sizes, capacity)
        covered = sorted(i for b in bins for i in b)
        assert covered == list(range(len(sizes)))
        for members in bins:
            assert sum(sizes[i] for i in members) <= capacity

    @given(
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
        st.integers(min_value=40, max_value=100),
    )
    def test_ffd_near_optimal(self, sizes, capacity):
        """FFD uses at most (11/9)·OPT + 1 bins; check the lower bound too."""
        bins = pack_batches(sizes, capacity)
        optimal_lower = min_batches(sum(sizes), capacity)
        assert len(bins) >= optimal_lower
        assert len(bins) <= math.ceil(11 / 9 * optimal_lower) + 1


class TestEventRunProperties:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_cycle_bounds(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, n_automata=2)
        data = random_input(rng, rng.randint(1, 40))
        n = len(data)
        events = sorted(
            (rng.randrange(n), rng.randrange(network.n_states))
            for _ in range(rng.randint(0, 8))
        )
        outcome = run_events(subset_core(network), data, events)
        assert 0 <= outcome.consumed_cycles <= n
        assert 0 <= outcome.stall_cycles <= len(events)
        assert outcome.total_cycles == outcome.consumed_cycles + outcome.stall_cycles
        # Reports only at consumed positions within the input.
        if outcome.reports.size:
            assert outcome.reports[:, 0].max() < n
            assert outcome.reports[:, 0].min() >= 0

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_more_events_never_fewer_reports(self, seed):
        """Adding enable events can only add report opportunities."""
        rng = random.Random(seed)
        network = random_network(rng, n_automata=2)
        data = random_input(rng, rng.randint(5, 30))
        base_events = sorted(
            (rng.randrange(len(data)), rng.randrange(network.n_states))
            for _ in range(3)
        )
        extra_events = sorted(
            base_events
            + [(rng.randrange(len(data)), rng.randrange(network.n_states))]
        )
        compiled = subset_core(network)
        fewer = run_events(compiled, data, base_events)
        more = run_events(compiled, data, extra_events)
        assert more.reports.shape[0] >= fewer.reports.shape[0]


class TestPartitionPlanningProperties:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_filled_batches_respect_capacity(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, n_automata=rng.randint(2, 5))
        topology = analyze_network(network)
        capacity = max(
            hot_size_with_intermediates(
                network.automata[i], topology.per_automaton[i].topo_order,
                topology.per_automaton[i].max_order,
            )
            for i in range(network.n_automata)
        ) + rng.randint(0, 8)
        layers = np.ones(network.n_automata, dtype=np.int64)
        filled, bins = plan_hot_batches(network, topology, layers, capacity)
        for members in bins:
            total = sum(
                hot_size_with_intermediates(
                    network.automata[i], topology.per_automaton[i].topo_order,
                    int(filled[i]),
                )
                for i in members
            )
            assert total <= capacity

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_fill_only_deepens(self, seed):
        rng = random.Random(seed)
        network = random_network(rng, n_automata=rng.randint(2, 4))
        topology = analyze_network(network)
        capacity = network.n_states + 20
        layers = np.ones(network.n_automata, dtype=np.int64)
        filled, _bins = plan_hot_batches(network, topology, layers, capacity)
        assert (filled >= layers).all()
        for index in range(network.n_automata):
            assert filled[index] <= topology.per_automaton[index].max_order

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_deeper_layers_monotone_partition_sizes(self, seed):
        """Raising a partition layer moves states hot-ward, never cold-ward."""
        rng = random.Random(seed)
        network = random_network(rng, n_automata=1)
        topology = analyze_network(network)
        max_order = topology.per_automaton[0].max_order
        previous_cold = None
        for k in range(1, max_order + 1):
            partitioned = partition_network(network, [k], topology=topology)
            if previous_cold is not None:
                assert partitioned.n_cold <= previous_cold
            previous_cold = partitioned.n_cold
        assert previous_cold == 0  # at max order everything is hot


class TestReportHelpers:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)), max_size=30))
    def test_reports_to_array_sorted(self, pairs):
        arr = reports_to_array(pairs)
        assert arr.shape == (len(pairs), 2)
        if len(pairs) > 1:
            keys = [tuple(row) for row in arr]
            assert keys == sorted(keys)
