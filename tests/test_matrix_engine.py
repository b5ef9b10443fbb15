"""Three-way engine equivalence: bit-packed vs reference vs matrix."""

import random

import numpy as np
from hypothesis import given, settings

from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.sim import reference_run, run, subset_core
from repro.sim.matrix import matrix_compile, matrix_run
from repro.sim.result import reports_equal

from helpers import input_lengths, random_input, random_network, seeds


class TestMatrixEngineBasics:
    def test_simple_chain(self):
        network = Network("t")
        network.add(literal_chain(b"abc"))
        result = matrix_run(matrix_compile(network), b"xxabcx")
        assert result.reports.tolist() == [[4, 2]]
        assert result.cycles == 6

    def test_empty_input(self):
        network = Network("t")
        network.add(literal_chain(b"ab"))
        result = matrix_run(matrix_compile(network), b"")
        assert result.reports.size == 0
        assert result.hot_count() == 0

    def test_start_of_data(self):
        network = Network("t")
        network.add(literal_chain(b"ab", start=StartKind.START_OF_DATA))
        result = matrix_run(matrix_compile(network), b"abab")
        assert result.reports[:, 0].tolist() == [1]

    def test_hot_tracking(self):
        network = Network("t")
        network.add(literal_chain(b"abc"))
        result = matrix_run(matrix_compile(network), b"abzz")
        assert result.hot_indices().tolist() == [0, 1, 2]


class TestThreeWayEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(seeds, input_lengths)
    def test_all_engines_agree(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        fast = run(subset_core(network), data)
        ref = reference_run(network, data)
        matrix = matrix_run(matrix_compile(network), data)
        assert reports_equal(fast.reports, matrix.reports)
        assert reports_equal(ref.reports, matrix.reports)
        assert np.array_equal(fast.ever_enabled, matrix.ever_enabled)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_workload_app_agreement(self, seed):
        """Engines agree on a real (tiny-scale) workload application."""
        from repro.workloads import get_app

        rng = random.Random(seed)
        abbr = rng.choice(["Bro217", "DS03", "LV"])
        spec = get_app(abbr)
        network = spec.build(128)
        data = spec.make_input(network, 256, seed=seed)
        fast = run(subset_core(network), data)
        matrix = matrix_run(matrix_compile(network), data)
        assert reports_equal(fast.reports, matrix.reports)
        assert fast.hot_count() == matrix.hot_count()
