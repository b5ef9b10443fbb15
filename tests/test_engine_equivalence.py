"""Cross-engine equivalence: all engines report bit-identically.

The execution paths — the pure-Python reference, the NFA engine on the
subset core (``bitpacked``), the table-driven DFA engine, and the
byte-bounded lazy DFA — implement the same homogeneous-NFA
semantics.  ``bitpacked``, ``dfa`` and ``lazydfa`` share
one subset core, so every arm here compares against ``reference_run``,
the one engine that does not.  These property tests pin every registered
engine to it on random networks (cyclic, eod reporters, multiple
automata), on networks over the full 256-byte alphabet, and on
start-of-data networks that go quiet (where the NFA engine jumps over the
idle tail), plus the lazy DFA under tiny byte budgets (600 and 2,500
bytes: most runs flush their table, and at 600 most finish on the NFA
walk).  Degenerate inputs — empty and single-symbol — get explicit parity
arms across every registered engine (reports *and* witness masks), and
the NFA engine is also checked on real workload applications.
"""

import random

import numpy as np
from hypothesis import given, settings

from repro import bitops
from repro.nfa.automaton import StartKind
from repro.reduce import reduce_network
from repro.sim import (
    ENGINES,
    compile_lazydfa,
    lazydfa_run,
    reference_run,
    reports_equal,
    run,
    run_events,
    subset_core,
)

from helpers import full_alphabet_network, input_lengths, random_input, random_network, seeds


def _assert_engines_match_reference(network, data):
    """Every registered engine and the lazy DFA at tiny byte budgets
    report, and track the ever-enabled set, exactly as the reference
    engine does."""
    expected = reference_run(network, data)
    results = {
        name: engine.run_network(network, data, track_enabled=True)
        for name, engine in ENGINES.items()
        if engine.feasible(network)
    }
    # A few rows fill these tables, so runs flush them, and at 600 bytes
    # most finish on the NFA walk from the subset they reached.
    for budget in (600, 2500):
        lazy = compile_lazydfa(network, budget=budget)
        results[f"lazydfa@{budget}B"] = lazydfa_run(lazy, data, track_enabled=True)
    for name, got in results.items():
        assert reports_equal(got.reports, expected.reports), name
        assert (got.ever_enabled == expected.ever_enabled).all(), name


class TestFourEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seeds, input_lengths)
    def test_reports_identical_across_engines(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        _assert_engines_match_reference(network, random_input(rng, length))

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_hot_sets_identical(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, rng.randint(1, 30))
        expected = reference_run(network, data)
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, data, track_enabled=True)
            assert (got.ever_enabled == expected.ever_enabled).all(), name

    @settings(max_examples=40, deadline=None)
    @given(seeds, input_lengths)
    def test_full_alphabet_networks(self, seed, length):
        """Many irregular byte classes: inputs over all 256 bytes."""
        rng = random.Random(seed)
        network = full_alphabet_network(rng)
        data = bytes(rng.randrange(256) for _ in range(length))
        _assert_engines_match_reference(network, data)

    @settings(max_examples=40, deadline=None)
    @given(seeds, input_lengths)
    def test_start_of_data_networks_that_go_quiet(self, seed, length):
        """Start-of-data automata die out; the NFA engine then jumps over
        the idle tail instead of stepping an empty set."""
        rng = random.Random(seed)
        network = random_network(rng, cyclic=False, start=StartKind.START_OF_DATA)
        data = random_input(rng, length)
        _assert_engines_match_reference(network, data)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_multistream_both_paths_match_scalar(self, seed):
        """K ragged streams through one core, each bit-identical to its own
        reference run on both entry points of the one loop: ``run`` and
        ``run_events`` with no events."""
        rng = random.Random(seed)
        network = random_network(rng)
        core = subset_core(network)
        streams = [random_input(rng, rng.randint(0, 30)) for _ in range(rng.randint(1, 6))]
        for data in streams:
            want = reference_run(network, data)
            streamed = run(core, data, track_enabled=True)
            evented = run_events(core, data, track_enabled=True)
            for got in (streamed, evented):
                assert reports_equal(got.reports, want.reports)
                assert (got.ever_enabled == want.ever_enabled).all()
            assert streamed.cycles == len(data)

    def test_quiet_stream_jumps_over_its_tail(self):
        rng = random.Random(7)
        network = random_network(
            rng, n_automata=2, cyclic=False, start=StartKind.START_OF_DATA
        )
        data = b"zz" + random_input(rng, 30)  # no symbol of the small alphabet
        outcome = run_events(subset_core(network), data)
        assert outcome.consumed_cycles == 1 and outcome.jumps == 1
        _assert_engines_match_reference(network, data)


class TestNfaEngineMatchesReference:
    """The NFA engine on the subset core against the reference engine,
    on random networks and on real (tiny-scale) workload applications."""

    @settings(max_examples=50, deadline=None)
    @given(seeds, input_lengths)
    def test_random_network_agreement(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        fast = run(subset_core(network), data)
        ref = reference_run(network, data)
        assert reports_equal(fast.reports, ref.reports)
        assert np.array_equal(fast.ever_enabled, ref.ever_enabled)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_workload_app_agreement(self, seed):
        """The engines agree on a real application's network and input."""
        from repro.workloads import get_app

        rng = random.Random(seed)
        abbr = rng.choice(["Bro217", "DS03", "LV"])
        spec = get_app(abbr)
        network = spec.build(128)
        data = spec.make_input(network, 256, seed=seed)
        fast = run(subset_core(network), data)
        ref = reference_run(network, data)
        assert reports_equal(fast.reports, ref.reports)
        assert fast.hot_count() == ref.hot_count()
        assert np.array_equal(fast.ever_enabled, ref.ever_enabled)


class TestReducedNetworkEquivalence:
    """Every engine run on the SPAP-R-reduced network, lifted through the
    state-mapping table, must match the reference run on the *parent*
    network — reports and witness masks.  This closes the loop the
    per-engine arms above leave open: reduction composes with every
    datapath, not just the reference simulator.
    """

    @settings(max_examples=40, deadline=None)
    @given(seeds, input_lengths)
    def test_exact_reduction_lifts_bit_identically(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        truth = reference_run(network, data)
        reduction = reduce_network(network)
        n = network.n_states
        truth_mask = bitops.to_bool(truth.ever_enabled, n)
        for name, engine in ENGINES.items():
            if not engine.feasible(reduction.network):
                continue
            got = engine.run_network(reduction.network, data, track_enabled=True)
            lifted = reduction.lift_result(got)
            assert reports_equal(lifted.reports, truth.reports), name
            assert np.array_equal(
                bitops.to_bool(lifted.ever_enabled, n), truth_mask
            ), name


class TestDegenerateInputs:
    """Empty and single-symbol streams across every registered engine.

    The boundary positions are where engines disagree first: an empty
    stream must produce zero reports and an all-zero witness mask without
    stepping any datapath, and a one-symbol stream is simultaneously the
    first *and* last position (eod reporters fire, mid-only bookkeeping
    must not).  Every entry in the registry — not a hand-kept list — is
    pinned to the reference engine on both, so a sixth engine cannot land
    without inheriting the parity bar.
    """

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_empty_input_parity(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        expected = reference_run(network, b"")
        assert expected.reports.shape[0] == 0
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, b"", track_enabled=True)
            assert got.reports.shape[0] == 0, name
            assert (got.ever_enabled == expected.ever_enabled).all(), name
            assert not got.ever_enabled.any(), name

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_single_symbol_parity(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, 1)
        expected = reference_run(network, data)
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, data, track_enabled=True)
            assert reports_equal(got.reports, expected.reports), name
            assert (got.ever_enabled == expected.ever_enabled).all(), name
