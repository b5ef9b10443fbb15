"""Tests for the 26-application registry: structure, determinism, signatures.

These run at an aggressive scale (1/64) to stay fast; structural invariants
are scale-independent.
"""

import numpy as np
import pytest

from repro.ap.batching import batch_network
from repro.nfa.analysis import analyze_network
from repro.nfa.automaton import StartKind
from repro.sim import run, subset_core
from repro.workloads.inputs import dna_bytes, plant, token_stream, uniform_bytes
from repro.workloads.registry import APPS, app_names, get_app

FAST_SCALE = 64


class TestRegistryShape:
    def test_26_applications(self):
        assert len(app_names()) == 26

    def test_table2_order_and_groups(self):
        names = app_names()
        assert names[0] == "CAV4k"
        assert names[-1] == "Bro217"
        groups = [APPS[n].group for n in names]
        assert groups.count("high") == 11
        assert groups.count("medium") == 5
        assert groups.count("low") == 10

    def test_get_app_unknown(self):
        with pytest.raises(KeyError):
            get_app("nope")

    def test_paper_stats_recorded(self):
        for abbr in app_names():
            paper = APPS[abbr].paper
            assert paper.states > 0
            assert paper.nfas > 0
            assert paper.rstates > 0

    def test_start_of_data_flags(self):
        flagged = {abbr for abbr in app_names() if APPS[abbr].start_of_data}
        assert flagged == {"SPM", "Fermi"}


@pytest.mark.parametrize("abbr", app_names())
class TestEveryApplication:
    def test_builds_and_validates(self, abbr):
        network = get_app(abbr).build(FAST_SCALE)
        network.validate()
        assert network.n_automata >= 2

    def test_state_budget(self, abbr):
        spec = get_app(abbr)
        network = spec.build(FAST_SCALE)
        target = spec.scaled_states(FAST_SCALE)
        largest = max(a.n_states for a in network.automata)
        # Within one NFA of the budget in either direction.
        assert network.n_states <= target + largest
        assert network.n_states >= min(0.5 * target, target - largest)

    def test_deterministic_build(self, abbr):
        spec = get_app(abbr)
        a = spec.build(FAST_SCALE)
        b = spec.build(FAST_SCALE)
        assert a.n_states == b.n_states
        assert a.n_edges == b.n_edges

    def test_every_nfa_fits_reference_capacity(self, abbr):
        """No single NFA may exceed the reference-scale half-core (1,536 STEs
        at scale 16) — batching requires whole NFAs to fit."""
        network = get_app(abbr).build(FAST_SCALE)
        assert max(a.n_states for a in network.automata) <= 24576 // 16

    def test_input_generation(self, abbr):
        spec = get_app(abbr)
        network = spec.build(FAST_SCALE)
        data = spec.make_input(network, 1024)
        assert len(data) == 1024
        again = spec.make_input(network, 1024)
        assert data == again  # deterministic by default seed

    def test_runs_end_to_end(self, abbr):
        spec = get_app(abbr)
        network = spec.build(FAST_SCALE)
        data = spec.make_input(network, 512)
        result = run(subset_core(network), data)
        assert result.cycles == 512
        assert 0.0 < result.hot_fraction() <= 1.0

    def test_start_kind_consistent(self, abbr):
        spec = get_app(abbr)
        network = spec.build(FAST_SCALE)
        kinds = {
            s.start for _g, _a, s in network.global_states() if s.is_start
        }
        if spec.start_of_data:
            assert kinds == {StartKind.START_OF_DATA}
        else:
            assert kinds == {StartKind.ALL_INPUT}


class TestStructuralSignatures:
    def test_cav4k_mostly_cold(self):
        spec = get_app("CAV4k")
        network = spec.build(FAST_SCALE)
        data = spec.make_input(network, 2048)
        result = run(subset_core(network), data)
        assert result.hot_fraction() < 0.10

    def test_rf_mostly_hot(self):
        spec = get_app("RF1")
        network = spec.build(FAST_SCALE)
        data = spec.make_input(network, 2048)
        result = run(subset_core(network), data)
        assert result.hot_fraction() > 0.85

    def test_lv_large_scc(self):
        network = get_app("LV").build(FAST_SCALE)
        topology = analyze_network(network)
        for t in topology.per_automaton:
            assert t.scc_size.max() >= 0.5 * t.scc_id.size

    def test_er_large_scc(self):
        network = get_app("ER").build(FAST_SCALE)
        topology = analyze_network(network)
        for t in topology.per_automaton:
            assert t.scc_size.max() >= 0.5 * t.scc_id.size

    def test_rf_max_topo_3(self):
        network = get_app("RF1").build(FAST_SCALE)
        assert analyze_network(network).max_topo == 3

    def test_baseline_batches_match_paper_at_reference_scale(self):
        """The headline ratio check: S/C preserved => Table IV batch counts.

        Run at the reference scale for a representative subset (full-suite
        check lives in the benchmarks).
        """
        from repro.experiments.config import ExperimentConfig

        cfg = ExperimentConfig(scale=16)
        for abbr in ["HM500", "DS", "Snort", "Brill", "RF2"]:
            spec = get_app(abbr)
            network = spec.build(16)
            batches = batch_network(network, cfg.half_core.capacity)
            assert len(batches) == spec.paper.baseline_execs, abbr


class TestInputs:
    def test_uniform_deterministic(self):
        assert uniform_bytes(100, 7) == uniform_bytes(100, 7)
        assert uniform_bytes(100, 7) != uniform_bytes(100, 8)

    def test_uniform_alphabet(self):
        data = uniform_bytes(500, 1, b"xy")
        assert set(data) <= {ord("x"), ord("y")}

    def test_dna(self):
        assert set(dna_bytes(200, 3)) <= set(b"ACGT")

    def test_token_stream_tokens_present(self):
        tokens = [b"GET ", b"POST"]
        data = token_stream(400, 5, tokens, noise=0.0)
        assert b"GET " in data or b"POST" in data
        assert len(data) == 400

    def test_token_stream_requires_tokens(self):
        with pytest.raises(ValueError):
            token_stream(10, 1, [])

    def test_plant_inserts(self):
        data = bytes(500)
        planted = plant(data, [b"NEEDLE"], seed=2)
        assert b"NEEDLE" in planted
        assert len(planted) == 500

    def test_plant_skips_oversized(self):
        data = bytes(4)
        assert plant(data, [b"TOOLONG"], seed=2) == data
