"""Bounded-subset lazy-DFA hybrid: cache discipline and fallback paths.

Cross-engine report/witness equivalence lives in
``test_engine_equivalence.py`` (including the adversarial capacity-1/2
arms); this file pins the *cache machinery* of :mod:`repro.sim.lazydfa`:

* construction-time validation of the capacity and churn knobs;
* LRU eviction accounting under tiny caps, and the churn-burst guard that
  stops inserting (but keeps answering) when one input thrashes;
* cache persistence across runs on one artifact — the second identical
  run must be nearly all hits and build no new cells;
* ``clear_cache`` tombstoning, after which stale direct links must repair
  themselves and results stay bit-identical;
* the registered engine's metadata (no feasibility gate, streaming-only).
"""

import random

import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.determinize import subset_core
from repro.nfa.symbolset import SymbolSet
from repro.sim import (
    ENGINES,
    compile_lazydfa,
    lazydfa_run,
    reference_run,
    reports_equal,
)
from repro.sim.lazydfa import (
    DEFAULT_CHURN_FACTOR,
    DEFAULT_LAZY_CAPACITY,
    CompiledLazyDfa,
)

from helpers import random_input, random_network


def _network(seed=3):
    return random_network(random.Random(seed))


def blowup_network(tail: int = 13) -> Network:
    """``a`` followed by ``tail`` wildcards: 2**tail reachable subsets (the
    classic counting pattern the eager DFA backend must reject)."""
    automaton = Automaton("blowup")
    automaton.add_state(SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT)
    for index in range(tail):
        automaton.add_state(
            SymbolSet.universal(),
            reporting=index == tail - 1,
            report_code="blow" if index == tail - 1 else None,
        )
        automaton.add_edge(index, index + 1)
    network = Network("blowup-net")
    network.add(automaton)
    return network


class TestConstructionValidation:
    def test_capacity_must_be_positive(self):
        network = _network()
        with pytest.raises(ValueError, match="capacity"):
            compile_lazydfa(network, capacity=0)
        with pytest.raises(ValueError, match="capacity"):
            compile_lazydfa(network, capacity=-5)

    def test_churn_factor_must_be_positive(self):
        network = _network()
        with pytest.raises(ValueError, match="churn"):
            compile_lazydfa(network, churn_factor=0.0)

    def test_defaults_recorded_on_artifact(self):
        compiled = compile_lazydfa(_network())
        assert compiled.capacity == DEFAULT_LAZY_CAPACITY
        assert compiled.churn_factor == DEFAULT_CHURN_FACTOR
        stats = compiled.cache_stats()
        assert stats["size"] == 0
        assert stats["hits"] == stats["inserts"] == stats["evictions"] == 0


class TestCacheDiscipline:
    def test_second_identical_run_is_all_hits(self):
        rng = random.Random(11)
        network = _network(11)
        data = random_input(rng, 200)
        compiled = compile_lazydfa(network)
        first = lazydfa_run(compiled, data)
        builds_after_first = compiled.cache_stats()["cell_builds"]
        second = lazydfa_run(compiled, data)
        stats = compiled.cache_stats()
        # A converged cache answers a repeated input without building a
        # single new cell — that is the "table speed on hits" contract.
        assert stats["cell_builds"] == builds_after_first
        assert stats["fallback_steps"] == 0
        assert reports_equal(first.reports, second.reports)

    def test_capacity_bound_is_respected(self):
        rng = random.Random(5)
        network = _network(5)
        data = random_input(rng, 300)
        for capacity in (1, 2, 7):
            compiled = compile_lazydfa(network, capacity=capacity)
            lazydfa_run(compiled, data)
            stats = compiled.cache_stats()
            assert stats["size"] <= capacity
            assert stats["inserts"] - stats["evictions"] == stats["size"]

    def test_tiny_cap_evicts_and_stays_correct(self):
        rng = random.Random(23)
        network = blowup_network()
        data = bytes(rng.randrange(256) for _ in range(400))
        expected = reference_run(network, data)
        compiled = compile_lazydfa(network, capacity=1)
        got = lazydfa_run(compiled, data)
        stats = compiled.cache_stats()
        assert stats["evictions"] > 0
        assert reports_equal(got.reports, expected.reports)

    def test_churn_burst_stops_inserting_and_falls_back(self):
        # The blowup pattern visits a fresh subset almost every position,
        # so a capacity-1 cache evicts on nearly every insert; once one
        # run's evictions exceed capacity * churn_factor the guard must
        # stop inserting and carry the rest of the input on fallback
        # steps — still bit-identical.
        rng = random.Random(29)
        network = blowup_network()
        data = b"a" + bytes(rng.randrange(256) for _ in range(399))
        expected = reference_run(network, data)
        compiled = compile_lazydfa(network, capacity=1, churn_factor=2.0)
        got = lazydfa_run(compiled, data, track_enabled=True)
        stats = compiled.cache_stats()
        assert stats["evictions"] > 2  # the burst actually happened
        assert stats["fallback_steps"] > 0  # ... and tripped the guard
        assert reports_equal(got.reports, expected.reports)
        assert (got.ever_enabled == expected.ever_enabled).all()

    def test_churn_guard_resets_between_runs(self):
        # The guard is per-input: a thrashing input must not poison the
        # artifact for later well-behaved inputs.
        network = blowup_network()
        compiled = compile_lazydfa(network, capacity=1, churn_factor=1.0)
        thrash = b"a" + bytes(range(200))
        lazydfa_run(compiled, thrash)
        assert compiled.cache_stats()["fallback_steps"] > 0
        before = compiled.cache_stats()["inserts"]
        lazydfa_run(compiled, b"bbbb")  # tiny, cache-friendly input
        assert compiled.cache_stats()["inserts"] > before

    def test_clear_cache_tombstones_and_results_survive(self):
        rng = random.Random(31)
        network = _network(31)
        data = random_input(rng, 150)
        compiled = compile_lazydfa(network)
        expected = lazydfa_run(compiled, data, track_enabled=True)
        compiled.clear_cache()
        assert compiled.cache_stats()["size"] == 0
        again = lazydfa_run(compiled, data, track_enabled=True)
        assert reports_equal(again.reports, expected.reports)
        assert (again.ever_enabled == expected.ever_enabled).all()

    def test_clear_cache_resets_lifetime_counters(self):
        # clear_cache is a full reset to the post-compile state: the
        # lifetime counters go back to zero along with the rows, so
        # cache_stats() after a clear describes only post-clear work.
        rng = random.Random(37)
        network = _network(37)
        data = random_input(rng, 150)
        compiled = compile_lazydfa(network)
        lazydfa_run(compiled, data)
        assert compiled.cache_stats()["inserts"] > 0
        compiled.clear_cache()
        stats = compiled.cache_stats()
        assert stats["size"] == 0
        for counter in ("hits", "cell_builds", "inserts", "evictions",
                        "fallback_steps"):
            assert stats[counter] == 0, counter
        # ... and the counters resume counting from zero afterwards.
        lazydfa_run(compiled, data)
        after = compiled.cache_stats()
        assert after["inserts"] > 0 and after["hits"] >= 0


class TestEngineMetadata:
    def test_registered_without_feasibility_gate(self):
        engine = ENGINES["lazydfa"]
        assert engine.streaming_only
        # No proof required: the hybrid is feasible even for the classic
        # exponential-blowup pattern that the eager backend must reject.
        assert engine.feasible(blowup_network())

    def test_artifact_direct_construction_validates(self):
        with pytest.raises(ValueError):
            CompiledLazyDfa(subset_core(_network()), capacity=0)
