"""Tests for repro.reduce: the SPAP-R equivalence-preserving reducer.

The reducer's contract (DESIGN.md §15) is *report and witness
equivalence*: running any engine on the reduced network and lifting the
result through the state-mapping table must be bit-identical to running
the parent network.  The full-registry gate replays that claim across the
26-app corpus (SPAP-R001) and holds the reducer's registry-wide floors,
the cross-engine class replays it on every backend, and the hypothesis
properties pin the partition-refinement algebra itself: refinement is a
fixpoint, merged states are observably indistinguishable under the
reference semantics, and reduce∘reduce == reduce.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro import bitops
from repro.__main__ import main as cli_main
from repro.cost.advisory import advise_network
from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import get_run
from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.build import literal_chain
from repro.nfa.elements import ElementNetwork, Gate, GateKind
from repro.nfa.symbolset import SymbolSet
from repro.reduce import (
    analyze_run_reduce,
    element_pinned_gids,
    reduce_app,
    reduce_element_network,
    reduce_network,
    refine_backward,
    refinement_round,
)
from repro.sim import ENGINES, reference_run, reports_equal
from repro.sim.hybrid import hybrid_run
from repro.workloads.registry import app_names

from helpers import input_lengths, random_input, random_network, seeds

_CONFIG = ExperimentConfig(scale=64, input_len=512)


def _masks_equal(a, b, n_states):
    return np.array_equal(bitops.to_bool(a, n_states), bitops.to_bool(b, n_states))


# ---------------------------------------------------------------------------
# The 26-app soundness gate (SPAP-R001) — an acceptance criterion, not a
# statistic: structural rules plus reference replay of the reduced network
# with lifted reports/witness compared to the truth run, and the reducer's
# two registry-wide floors.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gate_outcome():
    """One checked reduction per app, shared by the per-app gate and the
    registry floors."""
    outcomes = {}

    def outcome(abbr):
        if abbr not in outcomes:
            outcomes[abbr] = analyze_run_reduce(get_run(abbr, _CONFIG), check=True)
        return outcomes[abbr]

    return outcome


class TestSoundnessGate:
    @pytest.mark.parametrize("abbr", app_names())
    def test_every_app_reduces_sound_in_both_modes(self, abbr, gate_outcome):
        # The reducer has one mode; the name is kept so that the gate's 26
        # test ids stay stable.
        outcome = gate_outcome(abbr)
        assert outcome.ok, outcome.report.render_text(verbose=True)
        assert "SPAP-R001" not in outcome.report.codes()
        summary = outcome.summary
        assert 0 <= summary.states_after <= summary.states_before

    def test_registry_floors(self, gate_outcome):
        # The reducer's falsifiable claims over the whole registry: it
        # shrinks real networks on average, and the shrinkage pays off in
        # at least one app's cost verdict.
        summaries = [gate_outcome(abbr).summary for abbr in app_names()]
        assert sum(s.saving for s in summaries) / len(summaries) > 0
        assert any(s.cost_improved for s in summaries)


class TestCrossEngineLifted:
    """Reports and witness masks must lift bit-identically from every
    backend run on the reduced network."""

    @pytest.mark.parametrize("abbr", ["HM", "LV"])  # both reduce at scale 64
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    def test_lifted_results_match_truth(self, abbr, engine_name):
        run = get_run(abbr, _CONFIG)
        reduction = run.reduced
        assert reduction.saved_states > 0  # the arm must actually exercise a lift
        engine = ENGINES[engine_name]
        if not engine.feasible(reduction.network):
            pytest.skip(f"{engine_name} infeasible for reduced {abbr}")
        prepared = engine.prepare(reduction.network)
        result = engine.run(prepared, run.test_input, track_enabled=True)
        lifted = reduction.lift_result(result)
        assert reports_equal(lifted.reports, run.truth.reports)
        n = run.network.n_states
        assert _masks_equal(lifted.ever_enabled, run.truth.ever_enabled, n)


# ---------------------------------------------------------------------------
# Partition-refinement algebra (hypothesis properties).
# ---------------------------------------------------------------------------


class TestPartitionProperties:
    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_refinement_output_is_a_fixpoint(self, seed):
        network = random_network(random.Random(seed))
        for automaton in network.automata:
            partition = refine_backward(automaton)
            again = refinement_round(automaton, partition.class_of)
            assert again.n_classes == partition.n_classes
            assert again.class_of == partition.class_of

    @given(seed=seeds, length=input_lengths)
    @settings(max_examples=60, deadline=None)
    def test_backward_merged_states_are_enabled_identically(self, seed, length):
        """Members of one class are enabled at exactly the same
        input positions — checked against an independent per-position
        tracker transcribing the §II-A semantics (not sim internals)."""
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        reduction = reduce_network(network)
        positions = _enabled_position_sets(network, data)
        for group in reduction.members:
            for gid in group[1:]:
                assert positions[gid] == positions[group[0]]

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_reduce_is_idempotent(self, seed):
        network = random_network(random.Random(seed))
        first = reduce_network(network)
        second = reduce_network(first.network)
        assert second.saved_states == 0

    @given(seed=seeds, length=input_lengths)
    @settings(max_examples=60, deadline=None)
    def test_exact_lift_is_bit_identical(self, seed, length):
        rng = random.Random(seed)
        network = random_network(rng)
        data = random_input(rng, length)
        truth = reference_run(network, data)
        reduction = reduce_network(network)
        lifted = reduction.lift_result(reference_run(reduction.network, data))
        assert reports_equal(lifted.reports, truth.reports)
        assert _masks_equal(lifted.ever_enabled, truth.ever_enabled, network.n_states)

    @given(seed=seeds)
    @settings(max_examples=40, deadline=None)
    def test_mapping_is_a_cover_and_proofs_reconcile(self, seed):
        network = random_network(random.Random(seed))
        reduction = reduce_network(network)
        state_map = reduction.state_map
        assert state_map.shape == (network.n_states,)
        covered = sorted(g for group in reduction.members for g in group)
        assert covered == sorted(np.flatnonzero(state_map >= 0))
        for reduced_gid, group in enumerate(reduction.members):
            assert group, "every reduced state has at least one parent member"
            assert all(int(state_map[g]) == reduced_gid for g in group)
        stripped = int((state_map < 0).sum())
        assert stripped == reduction.n_dead_stripped
        merges = reduction.merges_by_rule()
        assert sum(merges.values()) == reduction.saved_states
        doc = reduction.to_json()
        assert doc["states_before"] - doc["states_after"] == reduction.saved_states
        json.dumps(doc)  # the proof artifact must be serializable


def _enabled_position_sets(network, data):
    """Independent transcription of the reference semantics: for each global
    state, the set of positions at which it was enabled."""
    offsets = network.offsets()
    symbol_sets = {}
    succ = {}
    always = set()
    initial = set()
    for a_index, automaton in enumerate(network.automata):
        base = offsets[a_index]
        for state in automaton.states():
            gid = base + state.sid
            symbol_sets[gid] = state.symbol_set
            succ[gid] = [base + dst for dst in automaton.successors(state.sid)]
            if state.start is StartKind.ALL_INPUT:
                always.add(gid)
                initial.add(gid)
            elif state.start is StartKind.START_OF_DATA:
                initial.add(gid)
    positions = {gid: set() for gid in symbol_sets}
    enabled = set(initial)
    for index, symbol in enumerate(data):
        for gid in enabled:
            positions[gid].add(index)
        activated = [gid for gid in enabled if symbol_sets[gid].matches(symbol)]
        enabled = set(always)
        for gid in activated:
            enabled.update(succ[gid])
    return positions


# ---------------------------------------------------------------------------
# Cost-model interplay: a live gadget the reducer must keep.
# ---------------------------------------------------------------------------


def _cost_flip_network():
    """A tiny reporter chain plus a subset-blowup gadget with no path to any
    reporter.  The 8 always-enabled bit-indexed states make every byte
    produce a distinct activation subset (~2**8 reachable DFA states), so
    subset construction blows a small budget."""
    automaton = Automaton("flip")
    automaton.add_state(SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT)
    automaton.add_state(
        SymbolSet.from_symbols(b"b"), reporting=True, report_code="hit"
    )
    automaton.add_edge(0, 1)
    for bit in range(8):
        gadget = automaton.add_state(
            SymbolSet.from_symbols(bytes(b for b in range(256) if b & (1 << bit))),
            start=StartKind.ALL_INPUT,
        )
        sink = automaton.add_state(SymbolSet.from_symbols(b"z"))
        automaton.add_edge(gadget, sink)
    network = Network("flip-net")
    network.add(automaton)
    return network


class TestCostFlip:
    BUDGET = 200

    def test_exact_mode_keeps_the_gadget_and_stays_unsafe(self):
        # The gadget states are live (enabled every cycle), so a
        # witness-preserving reduction must keep them, and the network
        # stays DFA-unsafe.
        network = _cost_flip_network()
        assert not advise_network(network, budget=self.BUDGET).dfa_safe
        exact = reduce_network(network)
        advisory = advise_network(
            exact.network, partition="reduced", budget=self.BUDGET
        )
        assert not advisory.dfa_safe


# ---------------------------------------------------------------------------
# Element networks: gate-boundary STEs are pinned, signals remap, and the
# hybrid simulator agrees end to end.
# ---------------------------------------------------------------------------


def _element_network():
    network = Network("h")
    network.add(literal_chain(b"ab", name="p0", report_code="r0"))
    network.add(literal_chain(b"cd", name="p1", report_code="r1"))
    extra = Automaton("extra")
    extra.add_state(SymbolSet.from_symbols(b"a"), start=StartKind.ALL_INPUT)
    extra.add_state(SymbolSet.from_symbols(b"b"), reporting=True, report_code="x")
    extra.add_edge(0, 1)
    extra.add_state(SymbolSet.from_symbols(b"c"))  # no inflow, no start: dead
    network.add(extra)
    wrapped = ElementNetwork(network)
    gate = wrapped.add_gate(
        Gate(GateKind.OR, inputs=[("ste", 1)], reporting=True, report_code="g")
    )
    # The gate re-arms p1's second state, so gid 3 is element-enabled and
    # must survive reduction even though no proof covers the extra enables.
    wrapped.connect_enable(gate, 3)
    return wrapped


class TestElementNetworkReduction:
    def test_pinned_stes_survive_and_signals_remap(self):
        wrapped = _element_network()
        pins = element_pinned_gids(wrapped)
        assert pins  # the gate input and the enable target at minimum
        reduced_en, reduction = reduce_element_network(wrapped)
        assert reduction.saved_states > 0  # the dead state went away
        for gid in pins:
            assert int(reduction.state_map[gid]) >= 0, f"pinned STE {gid} stripped"
        mapped = frozenset(int(reduction.state_map[gid]) for gid in pins)
        assert element_pinned_gids(reduced_en) == mapped

    @pytest.mark.parametrize(
        "data", [b"", b"ab", b"abcdabab", b"aabbccdd", b"gababcdcd"]
    )
    def test_hybrid_reports_lift_to_the_original(self, data):
        wrapped = _element_network()
        reduced_en, reduction = reduce_element_network(wrapped)
        original = hybrid_run(wrapped, data)
        got = hybrid_run(reduced_en, data)
        parent_n = wrapped.network.n_states
        reduced_n = reduced_en.network.n_states
        lifted = set()
        for position, gid in map(tuple, got.reports):
            if gid >= reduced_n:  # element report: ids sit above the STE block
                lifted.add((position, parent_n + (gid - reduced_n)))
            else:
                lifted.update((position, g) for g in reduction.members[gid])
        assert lifted == set(map(tuple, original.reports))


# ---------------------------------------------------------------------------
# Analyzer outcomes and the CLI surface.
# ---------------------------------------------------------------------------


class TestReduceOutcome:
    def test_minimal_app_reports_r004(self):
        # ER is minimal at scale 64, so the outcome must advertise the
        # no-op (R004) as an INFO finding.
        outcome = analyze_run_reduce(get_run("ER", _CONFIG))
        assert outcome.ok
        assert "SPAP-R004" in outcome.report.codes()
        assert outcome.summary.saved_states == 0

    def test_outcome_json_shape(self):
        outcome = analyze_run_reduce(get_run("HM", _CONFIG))
        doc = outcome.to_json()
        assert set(doc) == {"summary", "report"}
        summary = doc["summary"]
        assert summary["app"] == "HM"
        assert summary["states_before"] - summary["states_after"] == summary[
            "saved_states"
        ]
        assert sum(summary["merges"].values()) == summary["saved_states"]
        assert set(summary["cost"]) >= {
            "dfa_safe_before",
            "dfa_safe_after",
            "recommended_before",
            "recommended_after",
            "improved",
        }
        json.dumps(doc)

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            reduce_app("NotAnApp", _CONFIG)


class TestReduceCli:
    def _env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "64")
        monkeypatch.setenv("REPRO_INPUT", "512")

    def test_json_payload(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["reduce", "HM", "--json", "--check"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["summary"]["app"] == "HM"
        assert payload[0]["summary"]["saved_states"] > 0
        assert payload[0]["report"]["n_errors"] == 0

    def test_text_mode_mentions_savings(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["reduce", "HM", "LV"]) == 0
        out = capsys.readouterr().out
        assert "states" in out and "saved" in out
        assert "2/2 applications reduced sound" in out

    def test_no_apps_is_usage_error(self, capsys):
        assert cli_main(["reduce"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_app(self, capsys):
        assert cli_main(["reduce", "nope"]) == 2
        assert "unknown application" in capsys.readouterr().err
