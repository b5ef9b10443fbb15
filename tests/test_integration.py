"""Integration tests: the full pipeline end-to-end on real workload apps.

These stitch every subsystem together — workload generation, ANML round
trips, analysis, profiling, partitioning, all three execution scenarios —
at a small scale, asserting the system-level invariants the paper's design
relies on.
"""

import numpy as np
import pytest

from repro.ap import batch_network
from repro.core import (
    prepare_partition,
    run_ap_cpu,
    run_base_spap,
    run_baseline_ap,
    verify_equivalence,
)
from repro.core.scenarios import ap_cpu_outcome, base_spap_outcome
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import AppRun
from repro.nfa.anml import network_from_anml, network_to_anml
from repro.nfa.analysis import analyze_network
from repro.sim import reference_run, run, subset_core
from repro.sim.result import reports_equal
from repro.workloads import get_app
from repro.workloads.registry import app_names

from helpers import reference_cold_reports, reference_hot_phase

CFG = ExperimentConfig(scale=64, input_len=1024)
PIPELINE_APPS = ["Bro217", "DS03", "HM", "LV", "RF2", "CAV"]


@pytest.mark.parametrize("abbr", PIPELINE_APPS)
class TestFullPipeline:
    def _setup(self, abbr):
        spec = get_app(abbr)
        network = spec.build(CFG.scale)
        data = spec.make_input(network, CFG.input_len)
        profile_input = data[: max(8, len(data) // 100)]
        test_input = data[len(data) // 2 :]
        return network, profile_input, test_input

    def test_all_scenarios_equivalent(self, abbr):
        network, profile_input, test_input = self._setup(abbr)
        config = CFG.half_core
        baseline = run_baseline_ap(network, test_input, config)
        partitioned, bins = prepare_partition(network, profile_input, config)
        spap = run_base_spap(partitioned, test_input, config, bins)
        cpu = run_ap_cpu(partitioned, test_input, config, bins)
        assert verify_equivalence(baseline, spap), abbr
        assert verify_equivalence(baseline, cpu), abbr

    def test_cycle_accounting_consistent(self, abbr):
        network, profile_input, test_input = self._setup(abbr)
        config = CFG.half_core
        baseline = run_baseline_ap(network, test_input, config)
        partitioned, bins = prepare_partition(network, profile_input, config)
        spap = run_base_spap(partitioned, test_input, config, bins)
        assert baseline.cycles == baseline.n_batches * len(test_input)
        assert spap.base_cycles == spap.n_hot_batches * len(test_input)
        assert spap.spap_cycles == spap.spap_consumed_cycles + spap.spap_stall_cycles
        assert spap.n_hot_batches <= baseline.n_batches

    def test_partition_sizes_conserve_states(self, abbr):
        network, profile_input, _ = self._setup(abbr)
        partitioned, _bins = prepare_partition(network, profile_input, CFG.half_core)
        assert partitioned.n_hot_original + partitioned.n_cold == network.n_states
        assert partitioned.hot.n_states == (
            partitioned.n_hot_original + partitioned.n_intermediate
        )

    def test_anml_round_trip_preserves_reports(self, abbr):
        network, _profile, test_input = self._setup(abbr)
        loaded = network_from_anml(network_to_anml(network), name=abbr)
        original = run(subset_core(network), test_input)
        reloaded = run(subset_core(loaded), test_input)
        assert original.reports.shape == reloaded.reports.shape
        assert np.array_equal(
            np.unique(original.reports[:, 0]), np.unique(reloaded.reports[:, 0])
        )


#: The counters every scenario outcome carries (``cycles`` is derived).
_OUTCOME_FIELDS = (
    "n_batches", "n_hot_batches", "n_cold_batches", "n_symbols", "cycles",
    "base_cycles", "spap_consumed_cycles", "spap_stall_cycles",
    "n_intermediate_reports", "cpu_seconds",
)


@pytest.mark.parametrize("abbr", app_names())
def test_pipeline_scenarios_match_nfa_reference(abbr):
    """The cached pipeline's scenarios on every registry app.

    ``AppRun`` takes the baseline's reports from its truth run and shares
    one lazy-DFA hot phase between SpAP and AP-CPU; here every outcome is
    recomputed independently with ``run_baseline_ap`` and a hot phase on
    the reference engine, and must match field for field.  The reports
    themselves are checked against the reference engine alone: the whole
    network, and the hot phase's final reports plus the cold side run in
    events mode, since every other engine shares the subset core.
    """
    app_run = AppRun(get_app(abbr), CFG)
    config, fraction = CFG.half_core, CFG.profile_fractions[-1]
    if max(a.n_states for a in app_run.network.automata) > config.capacity:
        # At scale 64 one CAV4k NFA outgrows the half core (SPAP-B001), so
        # no batch plan exists there; the large core holds it.
        config = CFG.large_core
    data = app_run.test_input
    partitioned, bins = app_run.partition(fraction, config)
    reference_hot = reference_hot_phase(partitioned, data, bins)
    pairs = [
        (app_run.baseline(config), run_baseline_ap(app_run.network, data, config)),
        (app_run.base_spap(fraction, config),
         base_spap_outcome(partitioned, reference_hot, config)),
        (app_run.ap_cpu(fraction, config),
         ap_cpu_outcome(partitioned, reference_hot, CFG.cpu_model)),
    ]
    for got, expected in pairs:
        for name in _OUTCOME_FIELDS:
            assert getattr(got, name, None) == getattr(expected, name, None), name
        assert reports_equal(got.reports, expected.reports)
    partitioned_reports = np.concatenate(
        [reference_hot.final_reports, reference_cold_reports(partitioned, reference_hot)]
    )
    truth = reference_run(app_run.network, data)
    assert reports_equal(app_run.truth.reports, truth.reports)
    assert (app_run.truth.ever_enabled == truth.ever_enabled).all()
    assert reports_equal(partitioned_reports, truth.reports)
    # The correctness invariant against the independent whole-network run.
    for got, _expected in pairs:
        assert reports_equal(got.reports, truth.reports)


class TestBatchingInvariants:
    @pytest.mark.parametrize("abbr", PIPELINE_APPS)
    def test_batches_partition_the_network(self, abbr):
        spec = get_app(abbr)
        network = spec.build(CFG.scale)
        batches = batch_network(network, CFG.half_core.capacity)
        covered = np.concatenate([b.global_ids for b in batches])
        assert sorted(covered.tolist()) == list(range(network.n_states))
        for batch in batches:
            assert batch.n_states <= CFG.half_core.capacity

    def test_per_batch_reports_equal_union_run(self):
        """Simulating batches separately == simulating the whole network."""
        spec = get_app("DS03")
        network = spec.build(CFG.scale)
        data = spec.make_input(network, 512)
        whole = run(subset_core(network), data)
        merged = []
        for batch in batch_network(network, 200):
            result = run(subset_core(batch.network), data)
            merged.extend(map(tuple, batch.to_parent_reports(result.reports)))
        assert reports_equal(whole.reports, merged)


class TestProfileQualityOnWorkloads:
    def test_longer_profile_never_lowers_recall(self):
        from repro.core.metrics import prediction_quality

        spec = get_app("Bro217")
        network = spec.build(CFG.scale)
        data = spec.make_input(network, 2048)
        compiled = subset_core(network)
        truth = run(compiled, data[1024:]).hot_mask()
        recalls = []
        for take in (8, 64, 512, 1024):
            predicted = run(compiled, data[:take]).hot_mask()
            recalls.append(prediction_quality(predicted, truth).recall)
        assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_profile_hot_is_superset_over_prefixes(self):
        """Ever-enabled sets grow monotonically with the profiled prefix."""
        spec = get_app("HM")
        network = spec.build(CFG.scale)
        data = spec.make_input(network, 1024)
        compiled = subset_core(network)
        previous = None
        for take in (16, 64, 256, 1024):
            hot = run(compiled, data[:take]).hot_mask()
            if previous is not None:
                assert not np.any(previous & ~hot)
            previous = hot
