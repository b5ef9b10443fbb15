"""Property tests: determinized/transformed automata vs the reference engine.

The subset-construction DFA (``nfa/determinize.py``) and the network
transforms (``nfa/transforms.py``) both claim to preserve matching
behaviour.  These tests check that claim directly against the set-based
reference simulator (``sim/reference.py``) — the transcription of the paper
§II-A semantics — on randomized networks and inputs, rather than against
the bit-parallel engine (which has its own equivalence suite).
"""

import random
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cost.explore import explore_subset_construction
from repro.nfa.automaton import Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.determinize import (
    DeterminizeError,
    determinize,
    flatten_network,
    subset_core,
)
from repro.nfa.transforms import duplicate_network, merge_common_prefixes
from repro.sim.reference import reference_run
from repro.sim.result import reports_equal
from repro.workloads.registry import get_app

from helpers import (
    class_representatives,
    dfa_reports,
    full_alphabet_network,
    random_automaton,
    random_input,
    random_network,
    reference_alphabet_classes,
    reference_determinize,
    seeds,
    subset_sets,
)

#: Subset construction is exponential in the worst case; random cyclic
#: networks are kept small enough that blowup past this cap is rare, and
#: the rare case is discarded (it is DeterminizeError's own test's job).
_DFA_STATE_CAP = 4096


def _small_network(rng: random.Random, start: StartKind = StartKind.ALL_INPUT) -> Network:
    """A random network small enough to determinize."""
    network = Network("rand-small")
    for index in range(rng.randint(1, 3)):
        network.add(
            random_automaton(
                rng, n_states=rng.randint(1, 5), name=f"nfa{index}", start=start
            )
        )
    return network


def _patterns_net(*patterns):
    network = Network("n")
    for index, pattern in enumerate(patterns):
        network.add(literal_chain(pattern, name=f"p{index}", report_code=f"r{index}"))
    return network


class TestDeterminizeVsReference:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_random_networks_equivalent(self, seed):
        rng = random.Random(seed)
        network = _small_network(rng)
        data = random_input(rng, rng.randint(0, 30))
        try:
            dfa = determinize(network, max_states=_DFA_STATE_CAP)
        except DeterminizeError:
            assume(False)  # pathological blowup: discard, don't fail
        expected = reference_run(network, data)
        assert reports_equal(dfa_reports(network, dfa, data), expected.reports)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_start_of_data_networks_equivalent(self, seed):
        rng = random.Random(seed)
        network = _small_network(rng, start=StartKind.START_OF_DATA)
        data = random_input(rng, rng.randint(0, 20))
        dfa = determinize(network, max_states=_DFA_STATE_CAP)
        expected = reference_run(network, data)
        assert reports_equal(dfa_reports(network, dfa, data), expected.reports)

    def test_empty_input(self):
        network = _patterns_net(b"ab")
        dfa = determinize(network)
        assert reports_equal(dfa_reports(network, dfa, b""), reference_run(network, b"").reports)


class TestDeterminizeHelpers:
    """The subset core ``determinize``, the budgeted explorer
    (``repro.cost.explore``) and the lazy DFA share."""

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_alphabet_classes_are_a_partition(self, seed):
        rng = random.Random(seed)
        network = _small_network(rng)
        core = subset_core(network)
        class_of, n_classes = core.class_of, core.n_classes
        assert class_of.shape == (256,)
        assert sorted(set(int(c) for c in class_of)) == list(range(n_classes))
        representative = class_representatives(class_of, n_classes)
        for cls in range(n_classes):
            assert class_of[representative[cls]] == cls

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_class_members_are_indistinguishable(self, seed):
        """No symbol-set in the network separates two symbols of one class."""
        rng = random.Random(seed)
        network = _small_network(rng)
        core = subset_core(network)
        class_of, n_classes = core.class_of, core.n_classes
        tables = flatten_network(network)
        representative = class_representatives(class_of, n_classes)
        for symbol in range(0, 256, 7):  # a sample is plenty
            twin = int(representative[class_of[symbol]])
            for symbol_set in tables.symbol_sets:
                assert symbol_set.matches(symbol) == symbol_set.matches(twin)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_explorer_verdict_is_order_independent_of_determinize(self, seed):
        """The BFS explorer and determinize's insertion-order walk must agree
        exactly: same safe/unsafe verdict at the same budget, and on safe
        networks the same subset-state count (DESIGN.md §12 soundness)."""
        rng = random.Random(seed)
        network = _small_network(rng)
        budget = rng.randint(1, _DFA_STATE_CAP)
        outcome = explore_subset_construction(network, budget=budget)
        try:
            dfa = determinize(network, max_states=budget)
        except DeterminizeError:
            assert not outcome.dfa_safe
        else:
            assert outcome.dfa_safe
            assert dfa.n_states == outcome.n_subset_states


def _assert_core_matches_loop_reference(network: Network) -> None:
    """The core's classes and accept masks equal the signature-loop ones."""
    core = subset_core(network)
    class_of, n_classes = reference_alphabet_classes(network)
    np.testing.assert_array_equal(core.class_of, class_of)
    assert core.n_classes == n_classes
    tables = flatten_network(network)
    for cls, symbol in enumerate(class_representatives(class_of, n_classes)):
        expected = 0
        for gid, symbol_set in enumerate(tables.symbol_sets):
            if symbol_set.matches(int(symbol)):
                expected |= 1 << gid
        assert core.accept_masks[cls] == expected


def _assert_same_dfa(network: Network, budget: int) -> None:
    """``determinize`` builds the loop reference's DFA, or both raise."""
    try:
        expected = reference_determinize(network, max_states=budget)
    except DeterminizeError:
        with pytest.raises(DeterminizeError):
            determinize(network, max_states=budget)
        return
    dfa = determinize(network, max_states=budget)
    assert dfa.n_states == expected.n_states
    np.testing.assert_array_equal(dfa.class_of_symbol, expected.class_of_symbol)
    np.testing.assert_array_equal(dfa.transitions, expected.transitions)
    assert dfa.reports == expected.reports
    assert dfa.reports_mid == expected.reports_mid
    assert subset_sets(dfa) == expected.subsets


class TestSubsetCoreMatchesLoopReference:
    """The big-int subset core against the frozenset / ``SymbolSet.matches``
    loops it replaced (kept in ``helpers``)."""

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_classes_and_accept_masks(self, seed):
        rng = random.Random(seed)
        _assert_core_matches_loop_reference(random_network(rng))
        _assert_core_matches_loop_reference(full_alphabet_network(rng))

    @settings(max_examples=60, deadline=None)
    @given(seeds, st.integers(min_value=1, max_value=600))
    def test_determinize_and_budget(self, seed, budget):
        """Same DFA at a random budget, and the same boundary: the exact
        state count is admitted and one state less raises in both."""
        rng = random.Random(seed)
        network = random_network(rng)
        _assert_same_dfa(network, budget)
        try:
            exact = determinize(network, max_states=budget).n_states
        except DeterminizeError:
            return
        _assert_same_dfa(network, exact)
        if exact > 1:
            _assert_same_dfa(network, exact - 1)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_full_alphabet_determinize(self, seed):
        _assert_same_dfa(full_alphabet_network(random.Random(seed)), 400)

    def test_bro217_at_release_scale(self):
        network = get_app("Bro217").build(16)
        _assert_core_matches_loop_reference(network)
        _assert_same_dfa(network, 4096)


class TestDuplicateVsReference:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_copy_zero_preserves_reports(self, seed):
        """Copy 0 keeps its global ids, so its reports match the original's."""
        rng = random.Random(seed)
        network = _small_network(rng)
        copies = rng.randint(1, 3)
        doubled = duplicate_network(network, copies)
        data = random_input(rng, rng.randint(0, 25))
        original = reference_run(network, data)
        dup = reference_run(doubled, data)
        first_copy = dup.reports[dup.reports[:, 1] < network.n_states]
        assert reports_equal(first_copy, original.reports)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_match_ends_multiply(self, seed):
        """Every copy reports at exactly the original's match positions."""
        rng = random.Random(seed)
        network = _small_network(rng)
        copies = rng.randint(1, 3)
        doubled = duplicate_network(network, copies)
        data = random_input(rng, rng.randint(0, 25))
        original = reference_run(network, data)
        dup = reference_run(doubled, data)
        assert np.array_equal(
            np.sort(dup.reports[:, 0]),
            np.sort(np.tile(original.reports[:, 0], copies)),
        )


class TestMergeVsReference:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_match_ends_preserved(self, seed):
        """The trie reports at exactly the distinct positions the chains do.

        Duplicate patterns collapse onto one trie node (their report codes
        merge), so the comparison is on distinct match-end positions.
        """
        rng = random.Random(seed)
        alphabet = b"ab"
        patterns = [
            bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        network = _patterns_net(*patterns)
        merged = merge_common_prefixes(network)
        data = random_input(rng, 30, alphabet)
        original = reference_run(network, data)
        trie = reference_run(merged, data)
        assert np.array_equal(
            np.unique(original.reports[:, 0]), np.unique(trie.reports[:, 0])
        )

    def test_distinct_patterns_keep_multiplicity(self):
        network = _patterns_net(b"abX", b"abY", b"q")
        merged = merge_common_prefixes(network)
        data = b".abX.abY.q.abX"
        original = reference_run(network, data)
        trie = reference_run(merged, data)
        assert np.array_equal(
            np.sort(original.reports[:, 0]), np.sort(trie.reports[:, 0])
        )

    def test_merged_codes_cover_originals(self):
        """Every original report code survives (possibly '+'-combined)."""
        network = _patterns_net(b"ab", b"ab", b"ac")
        merged = merge_common_prefixes(network)
        combined = "+".join(
            state.report_code or ""
            for _g, _a, state in merged.global_states()
            if state.reporting
        )
        for code in ("r0", "r1", "r2"):
            assert code in combined


class TestSubsetCoreMemory:
    def test_successor_masks_stay_linear_on_the_largest_app(self):
        """Masks local to each automaton keep the core linear in the
        network: CAV4k at the release scale (70,309 states in 4,096
        automata) holds about 3.5 MB of successor masks, where global-width
        masks took 330 MB."""
        core = subset_core(get_app("CAV4k").build(16))
        assert core.n_states > 70_000
        assert sum(sys.getsizeof(mask) for mask in core.succ_masks) < 16 << 20
