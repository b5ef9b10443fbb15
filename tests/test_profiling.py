"""Tests for profiling-based hot/cold prediction."""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.profiling import (
    choose_partition_layers,
    layer_closure_mask,
    profile_network,
    split_input,
)
from repro.nfa.analysis import analyze_network
from repro.nfa.automaton import Network
from repro.nfa.build import literal_chain
from repro.sim import run, subset_core

from helpers import random_input, random_network, seeds


def _net(*patterns):
    network = Network("n")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}"))
    return network


class TestProfileNetwork:
    def test_idle_input_keeps_only_starts_hot(self):
        network = _net(b"abc")
        profile = profile_network(network, b"zzzz")
        assert profile.hot_mask.tolist() == [True, False, False]
        assert profile.layers.tolist() == [1]
        assert profile.predicted_hot_mask.tolist() == [True, False, False]

    def test_matching_prefix_deepens_layer(self):
        network = _net(b"abcde")
        profile = profile_network(network, b"xxabxx")
        # 'ab' enables up to state 2 (depth 3 layer of 'c').
        assert profile.layers.tolist() == [3]
        assert profile.predicted_hot_mask.sum() == 3

    def test_full_match_makes_all_hot(self):
        network = _net(b"abc")
        profile = profile_network(network, b"abc")
        assert profile.layers.tolist() == [3]
        assert profile.n_predicted_hot == 3

    def test_independent_layers_per_nfa(self):
        network = _net(b"abz", b"qrs")
        profile = profile_network(network, b"abqq")
        assert profile.layers.tolist() == [3, 2]

    def test_layer_closure_includes_skipped_shallow_states(self):
        """A cold state shallower than k_U is still predicted hot (§IV-D)."""
        from repro.nfa.regex import compile_regex

        network = Network("n")
        network.add(compile_regex("(ab|cd)e"))
        # Profile with only 'ab' seen: positions for c,d never enabled... but
        # layer closure must still include them (same topological layers).
        profile = profile_network(network, b"abe")
        assert profile.predicted_hot_mask.all()

    def test_empty_profile_input(self):
        network = _net(b"abc")
        profile = profile_network(network, b"")
        assert profile.layers.tolist() == [1]  # defensive floor keeps starts


class TestChooseLayers:
    def test_all_cold_floor(self):
        network = _net(b"abc")
        topology = analyze_network(network)
        layers = choose_partition_layers(network, topology, np.zeros(3, dtype=bool))
        assert layers.tolist() == [1]

    def test_shape_mismatch_rejected(self):
        network = _net(b"abc")
        topology = analyze_network(network)
        with pytest.raises(ValueError):
            choose_partition_layers(network, topology, np.zeros(5, dtype=bool))

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_closure_contains_profile_hot(self, seed):
        """Predicted hot set is a layer-closed superset of the profiled hot set."""
        rng = random.Random(seed)
        network = random_network(rng)
        topology = analyze_network(network)
        data = random_input(rng, 12)
        result = run(subset_core(network), data)
        layers = choose_partition_layers(network, topology, result.hot_mask())
        closure = layer_closure_mask(network, topology, layers)
        assert not np.any(result.hot_mask() & ~closure)


class TestSplitInput:
    def test_halves(self):
        profile, test = split_input(bytes(range(100)), 0.5)
        assert len(profile) == 50
        assert test == bytes(range(50, 100))

    def test_one_percent(self):
        profile, _test = split_input(b"x" * 1000, 0.01)
        assert len(profile) == 10

    def test_minimum_one_symbol(self):
        profile, _test = split_input(b"x" * 100, 0.001)
        assert len(profile) == 1

    def test_profile_never_exceeds_half(self):
        profile, test = split_input(b"x" * 10, 0.5)
        assert len(profile) == 5 and len(test) == 5

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_input(b"x" * 10, 0.6)
        with pytest.raises(ValueError):
            split_input(b"x" * 10, 0.0)

    def test_too_short_input_rejected(self):
        # Regression: a 0- or 1-symbol input used to come back with an
        # *empty* profiling input (the 1-symbol floor clamped to half == 0),
        # silently profiling nothing.
        for data in (b"", b"x"):
            with pytest.raises(ValueError, match="at least 2"):
                split_input(data, 0.5)

    def test_two_symbols_is_the_floor(self):
        profile, test = split_input(b"ab", 0.5)
        assert profile == b"a" and test == b"b"

    def test_profile_is_prefix_of_first_half(self):
        data = bytes(range(200))
        profile, _ = split_input(data, 0.1)
        assert data.startswith(profile)
