"""Table-driven DFA backend: tables, budgets, registry, and app sweep.

Four layers of pinning for :mod:`repro.sim.dfa` and the pluggable-engine
registry (DESIGN.md §13):

* the dense transition table is re-derived cell-by-cell from the
  :class:`~repro.nfa.determinize.NetworkTables` successor function, so the
  materialized array can never drift from subset construction;
* symbol→class translation composes with the per-class representatives,
  and the executor is byte-for-byte identical to the reference engine over
  the *full* 256-symbol alphabet (not just the small test alphabet);
* the determinize/explorer state budgets share exact boundary semantics
  (admit exactly ``budget`` states, reject ``budget`` + 1, reject a
  budget of 0 loudly) — the off-by-one regression tests;
* the engine registry mirrors the cost model's canonical backend names,
  and the ``dfa`` engine is bit-identical to the reference engine on
  every DFA-safe registry application at the standard bench scale.
"""

import random

import pytest
from hypothesis import given, settings

from repro import bitops
from repro.cost.explore import explore_subset_construction
from repro.cost.model import (
    BACKENDS,
    STREAMING_BACKENDS,
    CostFeatures,
    dfa_entry_bytes,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import get_run
from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.determinize import DeterminizeError, determinize, flatten_network
from repro.nfa.symbolset import ALPHABET_SIZE, SymbolSet
from repro.sim import (
    ENGINES,
    FALLBACK_BACKEND,
    BackendInfeasibleError,
    DfaInfeasibleError,
    compile_dfa,
    dfa_feasible,
    dfa_run,
    dfa_table_dtype,
    get_engine,
    reference_run,
    reports_equal,
    resolve_backend,
)
from repro.sim.dfa import compile_determinized
from repro.workloads.registry import app_names

from helpers import (
    class_representatives,
    input_lengths,
    random_input,
    random_network,
    seeds,
    subset_sets,
)

_CONFIG = ExperimentConfig(scale=64, input_len=512)


def _blowup_network(tail: int = 13) -> Network:
    """``a`` followed by ``tail`` wildcards: 2**tail reachable subsets.

    The classic counting pattern whose subset construction bursts any
    reasonable budget (here 8192 > DEFAULT_DFA_BUDGET = 4096), used to
    exercise the infeasible paths without waiting on a real blowup.
    """
    automaton = Automaton("blowup")
    automaton.add_state(
        SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT
    )
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


class TestTableMatchesNetworkTables:
    """The dense table is exactly the NetworkTables transition function."""

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_random_cells_match_successor_function(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        dfa = determinize(network)
        compiled = compile_determinized(network, dfa)
        tables = flatten_network(network)
        representative = class_representatives(
            dfa.class_of_symbol, compiled.n_classes
        )
        subsets = subset_sets(dfa)
        index_of = {subset: index for index, subset in enumerate(subsets)}

        assert compiled.transitions.shape == (dfa.n_states, dfa.n_classes)
        assert compiled.transitions.dtype == dfa_table_dtype(dfa.n_states)
        for _ in range(25):
            s = rng.randrange(dfa.n_states)
            c = rng.randrange(compiled.n_classes)
            symbol = int(representative[c])
            activated = [
                gid for gid in subsets[s]
                if tables.symbol_sets[gid].matches(symbol)
            ]
            target = set(tables.always)
            for gid in activated:
                target.update(tables.successors[gid])
            assert int(compiled.transitions[s, c]) == index_of[frozenset(target)]
            fired = tuple(
                sorted(gid for gid in activated if tables.reporting[gid])
            )
            assert compiled.reports[s * compiled.n_classes + c] == fired

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_subset_masks_encode_witnesses(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        dfa = determinize(network)
        compiled = compile_determinized(network, dfa)
        n = max(network.n_states, 1)
        for index, subset in enumerate(subset_sets(dfa)):
            expected = bitops.from_indices(sorted(subset), n)
            assert (compiled.subset_masks[index] == expected).all()


class TestClassComposition:
    """Symbol→class translation composes with the representatives, and the
    executor matches the reference engine over the full byte alphabet."""

    @settings(max_examples=50, deadline=None)
    @given(seeds, input_lengths)
    def test_full_alphabet_byte_identical_to_reference(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        # Full 256-symbol inputs: most bytes fall in the none-match class,
        # exercising columns the small-alphabet suite never touches.
        data = bytes(rng.randrange(ALPHABET_SIZE) for _ in range(length))
        if not dfa_feasible(network):
            return
        compiled = compile_dfa(network)
        expected = reference_run(network, data)
        got = dfa_run(compiled, data, track_enabled=True)
        assert reports_equal(got.reports, expected.reports)
        assert (got.ever_enabled == expected.ever_enabled).all()
        assert got.cycles == expected.cycles

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_representative_is_class_fixed_point(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        dfa = determinize(network)
        representative = class_representatives(
            dfa.class_of_symbol, dfa.n_classes
        )
        for symbol in range(ALPHABET_SIZE):
            cls = int(dfa.class_of_symbol[symbol])
            # The representative must land back in the class it represents:
            # running it through the translation is the identity on classes.
            assert int(dfa.class_of_symbol[int(representative[cls])]) == cls


class TestBudgetBoundary:
    """Determinize/explorer budget semantics: exact-fit admits, +1 rejects.

    Regression tests for the budget off-by-one audit: both walkers admit a
    reachable-subset count of exactly ``budget`` and reject ``budget + 1``,
    and both reject a zero budget loudly instead of vacuously succeeding
    (``determinize(max_states=0)`` used to return a 1-state DFA, silently
    violating its own cap).
    """

    def test_zero_budget_rejected(self):
        network = random_network(random.Random(7))
        with pytest.raises(ValueError):
            determinize(network, max_states=0)
        with pytest.raises(ValueError):
            explore_subset_construction(network, budget=0)

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_exact_budget_admits_and_minus_one_rejects(self, seed):
        rng = random.Random(seed)
        network = random_network(rng)
        exact = determinize(network).n_states

        dfa = determinize(network, max_states=exact)
        assert dfa.n_states == exact
        outcome = explore_subset_construction(network, budget=exact)
        assert outcome.dfa_safe
        assert outcome.n_subset_states == exact

        if exact > 1:
            with pytest.raises(DeterminizeError):
                determinize(network, max_states=exact - 1)
            tight = explore_subset_construction(network, budget=exact - 1)
            assert not tight.dfa_safe

    def test_explorer_and_determinize_agree_on_blowup(self):
        network = _blowup_network()
        assert not explore_subset_construction(network, budget=4096).dfa_safe
        with pytest.raises(DeterminizeError):
            determinize(network, max_states=4096)


class TestFeasibilityGates:
    """compile_dfa/dfa_feasible enforce the same two budgets, and the
    table pricing matches the cost model byte-for-byte."""

    def test_state_budget_gate(self):
        network = _blowup_network()
        assert not dfa_feasible(network)
        with pytest.raises(DfaInfeasibleError):
            compile_dfa(network)

    def test_table_budget_gate(self):
        network = random_network(random.Random(11))
        assert dfa_feasible(network)
        assert not dfa_feasible(network, table_budget=1)
        with pytest.raises(DfaInfeasibleError):
            compile_dfa(network, table_budget=1)

    def test_table_bytes_match_cost_features(self):
        network = random_network(random.Random(3))
        compiled = compile_dfa(network)
        features = CostFeatures(
            n_states=network.n_states,
            n_words=compiled.n_words,
            n_classes=compiled.n_classes,
            mean_fanout=1.0,
            hot_fraction=0.1,
            event_driven=False,
            dfa_safe=True,
            dfa_states=compiled.n_states,
        )
        assert compiled.table_bytes == features.dfa_table_bytes_actual
        # The 8-byte figure is a deliberate over-estimate, never an
        # under-estimate, so it can be quoted before the build.
        assert features.dfa_table_bytes >= (
            features.dfa_table_bytes_actual - ALPHABET_SIZE
        )

    @pytest.mark.parametrize("n", [1, 0xFFFF, 0x10000, 5_000_000])
    def test_dtype_ladder_matches_entry_bytes(self, n):
        assert dfa_table_dtype(n).itemsize == dfa_entry_bytes(n)


class TestEngineRegistry:
    """The registry mirrors the cost model's canonical backend names."""

    def test_registry_keys_are_canonical(self):
        assert tuple(ENGINES) == BACKENDS

    def test_streaming_flags_match_cost_model(self):
        for name, engine in ENGINES.items():
            assert engine.streaming_only == (name in STREAMING_BACKENDS), name

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_engine("systolic")

    def test_resolve_explicit_beats_advice(self):
        network = random_network(random.Random(5))
        name, engine = resolve_backend("reference", network, advised="dfa")
        assert name == "reference"
        assert engine is ENGINES["reference"]

    def test_resolve_auto_takes_advice(self):
        network = random_network(random.Random(5))
        for requested in (None, "auto"):
            name, _ = resolve_backend(requested, network, advised="dfa")
            assert name == "dfa"

    def test_infeasible_explicit_request_raises(self):
        # The silent-substitution regression: an explicitly requested
        # engine that cannot run must fail loudly, never quietly hand the
        # operator a different backend's numbers.
        network = _blowup_network()
        with pytest.raises(BackendInfeasibleError, match="explicitly requested"):
            resolve_backend("dfa", network)
        with pytest.raises(BackendInfeasibleError):
            resolve_backend("dfa", network, allow_fallback=False)

    def test_infeasible_explicit_request_with_fallback_substitutes(self):
        network = _blowup_network()
        name, engine = resolve_backend("dfa", network, allow_fallback=True)
        assert name == FALLBACK_BACKEND
        assert engine is ENGINES[FALLBACK_BACKEND]

    def test_infeasible_advice_still_falls_back_silently(self):
        network = _blowup_network()
        for requested in (None, "auto"):
            name, engine = resolve_backend(requested, network, advised="dfa")
            assert name == FALLBACK_BACKEND
            assert engine is ENGINES[FALLBACK_BACKEND]
        # ... unless the caller explicitly forbids any substitution.
        with pytest.raises(BackendInfeasibleError):
            resolve_backend("auto", network, advised="dfa",
                            allow_fallback=False)

    @settings(max_examples=15, deadline=None)
    @given(seeds, input_lengths)
    def test_every_engine_matches_reference_via_interface(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        expected = reference_run(network, data).reports
        for name, engine in ENGINES.items():
            if not engine.feasible(network):
                continue
            got = engine.run_network(network, data)
            assert reports_equal(got.reports, expected), name


class TestRegistryApps:
    """Acceptance sweep: dfa is bit-identical to the reference engine on
    every DFA-safe registry application at the standard bench scale."""

    @pytest.mark.parametrize("abbr", app_names())
    def test_dfa_safe_apps_bit_identical(self, abbr):
        app_run = get_run(abbr, _CONFIG)
        network = app_run.network
        if not dfa_feasible(network):
            pytest.skip(f"{abbr} is not DFA-safe within the default budgets")
        data = app_run.test_input
        expected = reference_run(network, data).reports
        got = dfa_run(app_run.compiled_dfa, data)
        assert reports_equal(got.reports, expected)

    def test_pipeline_selection_uses_advisory(self):
        app_run = get_run("Bro217", _CONFIG)
        advised = app_run.backend_advisory(0.01).recommended
        name, _ = app_run.select_backend("auto", 0.01)
        feasible = ENGINES[advised].feasible(app_run.network)
        assert name == (advised if feasible else FALLBACK_BACKEND)
        forced, _ = app_run.select_backend("bitpacked", 0.01)
        assert forced == "bitpacked"

    def test_auto_selects_lazydfa_on_dfa_unsafe_app(self):
        # Acceptance pin: on a DFA-unsafe streaming app the calibrated
        # cost model must rank the hybrid ahead of bitpacked, and
        # --backend auto must follow that ranking (DESIGN.md §14).
        app_run = get_run("LV", _CONFIG)
        assert not dfa_feasible(app_run.network)
        advisory = app_run.backend_advisory(0.01)
        assert advisory.recommended == "lazydfa"
        name, engine = app_run.select_backend("auto", 0.01)
        assert name == "lazydfa"
        assert engine is ENGINES["lazydfa"]

    def test_pipeline_explicit_infeasible_raises(self):
        app_run = get_run("LV", _CONFIG)
        with pytest.raises(BackendInfeasibleError):
            app_run.select_backend("dfa", 0.01)
        name, _ = app_run.select_backend("dfa", 0.01, allow_fallback=True)
        assert name == FALLBACK_BACKEND
