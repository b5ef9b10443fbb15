"""Lazy DFA: the byte-bounded table and its flush policy.

Cross-engine report/witness equivalence lives in
``test_engine_equivalence.py`` (including tiny-budget arms); this file pins
the *table discipline* of :mod:`repro.sim.lazydfa`:

* budget validation: a budget must hold the table's start row;
* the accounted bytes never pass the budget;
* a full table is flushed whole and restarts at the current subset;
* a run that keeps filling its table (more than ``MAX_RUN_FLUSHES``
  flushes) stops building and finishes on the NFA walk, and the count
  resets per run;
* the table persists across runs: a second identical run builds no cell;
* ``clear_cache`` returns the artifact to its post-compile state, and a
  pickle round trip drops the table;
* threads walking one artifact stay bit-identical;
* the registered engine's metadata (no feasibility gate, streaming-only).
"""

import concurrent.futures
import pickle
import random
import sys

import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.determinize import subset_core
from repro.nfa.symbolset import SymbolSet
from repro.sim import ENGINES, compile_lazydfa, lazydfa_run, reference_run, reports_equal
from repro.sim.lazydfa import DEFAULT_LAZY_BUDGET, MAX_RUN_FLUSHES, CompiledLazyDfa

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


def _subset_walk(network, data):
    """The subset before each symbol and after the last, stepped directly
    on the core."""
    core = subset_core(network)
    subset = core.initial_mask
    walk = [subset]
    for cls in core.class_of[list(data)].tolist():
        subset = core.step(subset & core.accept_masks[cls])
        walk.append(subset)
    return walk


def _start_row_bytes(network):
    return compile_lazydfa(network).cache_stats()["bytes"]


def _assert_matches_reference(network, data, got):
    expected = reference_run(network, data)
    assert reports_equal(got.reports, expected.reports)
    assert (got.ever_enabled == expected.ever_enabled).all()


#: A blowup input: ``a`` at random positions keeps new subsets coming.
_THRASH = random_input(random.Random(1), 400, b"ax")


class TestConstructionValidation:
    def test_capacity_must_be_positive(self):
        # The capacity is a byte budget, and it must hold the start row.
        network = _network()
        start = _start_row_bytes(network)
        for budget in (-5, 0, start - 1):
            with pytest.raises(ValueError, match="budget"):
                compile_lazydfa(network, budget=budget)
        assert compile_lazydfa(network, budget=start).cache_stats()["bytes"] == start

    def test_defaults_recorded_on_artifact(self):
        stats = compile_lazydfa(_network()).cache_stats()
        assert stats["budget"] == DEFAULT_LAZY_BUDGET
        assert stats["rows"] == 1 and stats["cells"] == 0  # the start row
        assert 0 < stats["bytes"] < DEFAULT_LAZY_BUDGET
        assert stats["hits"] == stats["cell_builds"] == stats["flushes"] == 0
        assert stats["nfa_finishes"] == 0


class TestCacheDiscipline:
    def test_second_identical_run_is_all_hits(self):
        rng = random.Random(11)
        network = _network(11)
        data = random_input(rng, 200)
        compiled = compile_lazydfa(network)
        first = lazydfa_run(compiled, data)
        after_first = compiled.cache_stats()
        # hits are table steps that found a built cell: steps minus builds.
        assert after_first["hits"] + after_first["cell_builds"] == len(data)
        second = lazydfa_run(compiled, data)
        stats = compiled.cache_stats()
        # A repeated input walks built cells only: table speed, no builds.
        assert stats["cell_builds"] == after_first["cell_builds"]
        assert stats["hits"] == after_first["hits"] + len(data)
        assert stats["flushes"] == stats["nfa_finishes"] == 0
        assert reports_equal(first.reports, second.reports)

    def test_capacity_bound_is_respected(self):
        rng = random.Random(5)
        network = blowup_network()
        inputs = [_THRASH] + [random_input(rng, 120, b"ax") for _ in range(6)]
        for budget in (_start_row_bytes(network), 500, 2000, 6000, DEFAULT_LAZY_BUDGET):
            compiled = compile_lazydfa(network, budget=budget)
            for data in inputs:
                lazydfa_run(compiled, data)
                assert compiled.cache_stats()["bytes"] <= budget, budget

    def test_tiny_cap_evicts_and_stays_correct(self):
        # A table a few rows wide flushes (evicting every row) many times.
        network = blowup_network()
        data = _THRASH[:120]
        compiled = compile_lazydfa(network, budget=2000)
        got = lazydfa_run(compiled, data, track_enabled=True)
        assert compiled.cache_stats()["flushes"] > 0
        _assert_matches_reference(network, data, got)

    def test_flush_restarts_at_the_current_subset(self):
        network = blowup_network()
        data = _THRASH[:60]
        walk = _subset_walk(network, data)
        unbounded = compile_lazydfa(network)
        lazydfa_run(unbounded, data)
        # A budget a little under the whole table fills it exactly once.
        compiled = compile_lazydfa(network, budget=unbounded.cache_stats()["bytes"] * 3 // 4)
        got = lazydfa_run(compiled, data, track_enabled=True)
        _assert_matches_reference(network, data, got)
        stats = compiled.cache_stats()
        assert stats["flushes"] == 1 and stats["nfa_finishes"] == 0
        # After the flush the table holds its start row, then the subsets
        # from the flush on, in order, starting with the subset the walk
        # had reached.
        assert compiled._subsets[0] == walk[0]
        restarts = [
            p for p in range(1, len(walk))
            if compiled._subsets[1:] == [s for s in dict.fromkeys(walk[p:]) if s != walk[0]]
        ]
        assert restarts, "the table did not restart at a subset of the walk"

    def test_churn_burst_stops_inserting_and_falls_back(self):
        # A run that fills its table more than MAX_RUN_FLUSHES times stops
        # building cells and finishes on the NFA walk, bit-identically.
        network = blowup_network()
        compiled = compile_lazydfa(network, budget=3000)
        got = lazydfa_run(compiled, _THRASH, track_enabled=True)
        _assert_matches_reference(network, _THRASH, got)
        stats = compiled.cache_stats()
        assert stats["flushes"] == MAX_RUN_FLUSHES
        assert stats["nfa_finishes"] == 1
        # The NFA walk carried the tail: the table stepped only a prefix.
        assert stats["hits"] + stats["cell_builds"] < len(_THRASH)

    def test_churn_guard_resets_between_runs(self):
        # The flush count is per run: a thrashing run must not send later
        # runs straight to the NFA walk.
        network = blowup_network()
        compiled = compile_lazydfa(network, budget=3000)
        first = lazydfa_run(compiled, _THRASH)
        second = lazydfa_run(compiled, _THRASH)
        assert reports_equal(first.reports, second.reports)
        stats = compiled.cache_stats()
        # Had the count carried over, the second run would finish on the
        # NFA walk at its first full table, without flushing.
        assert stats["flushes"] == 2 * MAX_RUN_FLUSHES
        assert stats["nfa_finishes"] == 2

    def test_a_step_that_cannot_fit_a_flushed_table_finishes_on_the_nfa_walk(self):
        network = _network(7)
        data = random_input(random.Random(7), 50)
        start = _start_row_bytes(network)
        compiled = compile_lazydfa(network, budget=start)
        got = lazydfa_run(compiled, data, track_enabled=True)
        _assert_matches_reference(network, data, got)
        stats = compiled.cache_stats()
        # One flush, then the same step still does not fit: no second try.
        assert stats["flushes"] == stats["nfa_finishes"] == 1
        assert stats["cells"] == 0 and stats["bytes"] == start

    def test_clear_cache_empties_the_table_and_results_survive(self):
        rng = random.Random(31)
        network = _network(31)
        data = random_input(rng, 150)
        compiled = compile_lazydfa(network)
        expected = lazydfa_run(compiled, data, track_enabled=True)
        compiled.clear_cache()
        assert compiled.cache_stats()["cells"] == 0
        again = lazydfa_run(compiled, data, track_enabled=True)
        assert reports_equal(again.reports, expected.reports)
        assert (again.ever_enabled == expected.ever_enabled).all()

    def test_clear_cache_resets_lifetime_counters(self):
        # clear_cache is a full reset to the post-compile state: the
        # lifetime counters go back to zero along with the table, so
        # cache_stats() after a clear describes only post-clear work.
        rng = random.Random(37)
        network = _network(37)
        data = random_input(rng, 150)
        compiled = compile_lazydfa(network)
        lazydfa_run(compiled, data)
        assert compiled.cache_stats()["cell_builds"] > 0
        compiled.clear_cache()
        assert compiled.cache_stats() == compile_lazydfa(network).cache_stats()
        lazydfa_run(compiled, data)
        after = compiled.cache_stats()
        assert after["cell_builds"] > 0 and after["hits"] >= 0

    def test_pickle_round_trip_drops_the_table(self):
        rng = random.Random(13)
        network = _network(13)
        data = random_input(rng, 120)
        compiled = compile_lazydfa(network, budget=50_000)
        lazydfa_run(compiled, data)
        assert compiled.cache_stats()["cells"] > 0
        restored = pickle.loads(pickle.dumps(compiled))
        assert restored.cache_stats() == compile_lazydfa(network, budget=50_000).cache_stats()
        _assert_matches_reference(
            network, data, lazydfa_run(restored, data, track_enabled=True)
        )

    def test_two_threads_on_one_artifact_stay_bit_identical(self):
        rng = random.Random(17)
        network = _network(17)
        inputs = [random_input(rng, rng.randint(0, 150)) for _ in range(40)] * 3
        expected = [reference_run(network, data) for data in inputs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            # 4,000 bytes keep the threads flushing the shared table; the
            # default budget never flushes, so every step is a hit or a build.
            for budget in (4000, DEFAULT_LAZY_BUDGET):
                compiled = compile_lazydfa(network, budget=budget)
                with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
                    results = list(pool.map(
                        lambda data: lazydfa_run(compiled, data, track_enabled=True),
                        inputs, timeout=120,
                    ))
                for got, want in zip(results, expected):
                    assert reports_equal(got.reports, want.reports)
                    assert (got.ever_enabled == want.ever_enabled).all()
                stats = compiled.cache_stats()
                assert stats["bytes"] <= budget
                if budget == DEFAULT_LAZY_BUDGET:
                    assert stats["hits"] + stats["cell_builds"] == sum(map(len, inputs))
        finally:
            sys.setswitchinterval(switch)


class TestEngineMetadata:
    def test_registered_without_feasibility_gate(self):
        engine = ENGINES["lazydfa"]
        assert engine.streaming_only
        # No proof required: the lazy table is feasible even for the classic
        # exponential-blowup pattern that the eager backend must reject.
        assert engine.feasible(blowup_network())

    def test_artifact_direct_construction_validates(self):
        with pytest.raises(ValueError, match="budget"):
            CompiledLazyDfa(subset_core(_network()), budget=0)
