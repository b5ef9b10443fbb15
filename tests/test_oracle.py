"""Tests for the oracle analyses (ideal speedup model, constrained states)."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import constrained_states, ideal_speedup
from repro.nfa.analysis import analyze_network
from repro.nfa.automaton import Network
from repro.nfa.build import literal_chain
from repro.nfa.regex import compile_regex
from repro.sim import run, subset_core

from helpers import random_input, random_network, seeds


class TestIdealSpeedup:
    def test_paper_formula(self):
        # S = 100K states, C = 24K, p = 0.5 -> ceil(100/24)/ceil(50/24) = 5/3.
        assert ideal_speedup(100_000, 24_000, 0.5) == pytest.approx((5 / 3))

    def test_no_cold_states_no_speedup(self):
        assert ideal_speedup(100_000, 24_000, 0.0) == 1.0

    def test_asymptotic_one_over_one_minus_p(self):
        s = ideal_speedup(10_000_000, 24_000, 0.75)
        assert s == pytest.approx(4.0, rel=0.01)

    def test_small_app_no_benefit(self):
        # Application already fits: 1 batch either way.
        assert ideal_speedup(10_000, 24_000, 0.9) == 1.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            ideal_speedup(100, 10, 1.0)
        with pytest.raises(ValueError):
            ideal_speedup(100, 10, -0.1)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**5),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_at_least_one(self, states, capacity, p):
        assert ideal_speedup(states, capacity, p) >= 1.0


class TestConstrainedStates:
    def test_chain_no_constraint(self):
        """On a chain, hot prefixes align with layers: zero constrained states."""
        network = Network("n")
        network.add(literal_chain(b"abcdef"))
        topology = analyze_network(network)
        hot = np.array([True, True, True, False, False, False])
        result = constrained_states(network, topology, hot)
        assert result.constrained == 0
        assert result.perfect_hot == 3
        assert result.topo_hot == 3

    def test_branch_constraint(self):
        """In (ab|cd)e with only the 'ab' arm hot, c/d are constrained."""
        network = Network("n")
        network.add(compile_regex("(ab|cd)ef"))
        topology = analyze_network(network)
        # Glushkov positions: a,b,c,d,e,f. Hot: a,b,e (deep hot state e).
        hot = np.array([True, True, False, False, True, False])
        result = constrained_states(network, topology, hot)
        # Layer of e is 3 -> closure covers a,b,c,d,e: c,d constrained.
        assert result.topo_hot == 5
        assert result.constrained == 2
        assert result.constrained_fraction == pytest.approx(2 / 6)

    def test_scc_constraint(self):
        """If one SCC member is hot the whole SCC is forced hot."""
        network = Network("n")
        network.add(compile_regex("a(bc)+d"))
        topology = analyze_network(network)
        orders = topology.per_automaton[0].topo_order
        # Mark only the first SCC member hot.
        scc_states = np.flatnonzero(topology.per_automaton[0].scc_size[
            topology.per_automaton[0].scc_id] > 1)
        hot = np.zeros(network.n_states, dtype=bool)
        hot[0] = True
        hot[scc_states[0]] = True
        result = constrained_states(network, topology, hot)
        assert result.topo_hot >= len(scc_states) + 1

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_closure_superset_and_bounds(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        topology = analyze_network(network)
        data = random_input(rng, 15)
        hot = run(subset_core(network), data).hot_mask()
        result = constrained_states(network, topology, hot)
        assert result.constrained >= 0
        assert result.perfect_hot <= result.topo_hot <= network.n_states
        assert 0.0 <= result.constrained_fraction <= 1.0
