"""Tests for the unified runtime-statistics layer (repro.stats)."""

import json
import math
from dataclasses import replace

import pytest

from repro.__main__ import main as cli_main
from repro.experiments.config import default_config
from repro.experiments.pipeline import AppRun
from repro.experiments.sweep import render_sweep, run_sweep, sweep_summary
from repro.stats import (
    SCHEMA_VERSION,
    SchemaError,
    StageTimer,
    collect_run_stats,
    render_stats,
    stats_enabled,
    validate_spans,
    validate_stats,
    validate_stats_json,
)
from repro.workloads.registry import get_app


@pytest.fixture(scope="module")
def small_config():
    return replace(default_config(), scale=4, input_len=512)


@pytest.fixture(scope="module")
def bro_stats(small_config):
    return collect_run_stats("Bro217", small_config)


class TestStageTimer:
    def test_records_calls_and_seconds(self):
        timer = StageTimer(enabled=True)
        for _ in range(3):
            with timer.stage("work"):
                pass
        assert timer.calls("work") == 3
        assert timer.seconds("work") >= 0.0
        (span,) = timer.spans()
        assert span.name == "work" and span.calls == 3

    def test_disabled_records_nothing(self):
        timer = StageTimer(enabled=False)
        with timer.stage("work"):
            pass
        assert timer.spans() == []
        assert timer.calls("work") == 0

    def test_env_escape_hatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STATS", "1")
        assert not stats_enabled()
        assert not StageTimer().enabled
        monkeypatch.delenv("REPRO_NO_STATS")
        assert stats_enabled()
        assert StageTimer().enabled

    def test_records_through_exceptions(self):
        timer = StageTimer(enabled=True)
        with pytest.raises(RuntimeError):
            with timer.stage("boom"):
                raise RuntimeError("kaboom")
        assert timer.calls("boom") == 1

    def test_spans_validate_against_schema(self):
        timer = StageTimer(enabled=True)
        with timer.stage("a"):
            pass
        assert validate_spans(timer.to_json()) == 1


class TestSchema:
    def test_collected_document_is_valid(self, bro_stats):
        validate_stats(bro_stats.to_json())

    def test_round_trips_through_json(self, bro_stats):
        document = json.loads(json.dumps(bro_stats.to_json()))
        validate_stats(document)
        assert document["schema_version"] == SCHEMA_VERSION

    def test_wrong_version_rejected(self, bro_stats):
        document = bro_stats.to_json()
        document["schema_version"] = 999
        with pytest.raises(SchemaError, match="schema_version"):
            validate_stats(document)

    def test_missing_field_rejected(self, bro_stats):
        document = bro_stats.to_json()
        del document["queue"]["refills"]
        with pytest.raises(SchemaError, match="refills"):
            validate_stats(document)

    def test_wrong_type_rejected(self, bro_stats):
        document = bro_stats.to_json()
        document["baseline"]["cycles"] = "lots"
        with pytest.raises(SchemaError, match="cycles"):
            validate_stats(document)

    def test_unexpected_field_rejected(self, bro_stats):
        document = bro_stats.to_json()
        document["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate_stats(document)

    def test_null_only_where_nullable(self, bro_stats):
        document = bro_stats.to_json()
        document["spap"]["jump_ratio"] = None  # nullable: no cold batches
        validate_stats(document)
        document["spap"]["cycles"] = None
        with pytest.raises(SchemaError, match="cycles"):
            validate_stats(document)

    def test_bool_is_not_a_counter(self, bro_stats):
        document = bro_stats.to_json()
        document["queue"]["refills"] = True
        with pytest.raises(SchemaError, match="refills"):
            validate_stats(document)

    def test_v5_document_carries_cost_section(self, bro_stats):
        document = bro_stats.to_json()
        assert document["schema_version"] == 5
        cost = document["cost"]
        assert cost["budget"] > 0 and cost["n_classes"] >= 1
        assert cost["table_bytes_dense"] >= cost["table_bytes_classed"] > 0
        # v4+: the backend-execution record is present (and nullable — this
        # collection ran no backend, so the document does not guess).
        assert cost["requested_backend"] is None
        assert cost["selected_backend"] is None
        names = [p["name"] for p in cost["partitions"]]
        assert "network" in names
        for partition in cost["partitions"]:
            assert partition["recommended"]
            assert (partition["dfa_states"] is None) == (not partition["dfa_safe"])

    def test_v5_document_carries_reduce_section(self, bro_stats):
        document = bro_stats.to_json()
        reduce = document["reduce"]
        assert reduce["mode"] == "exact"
        assert reduce["states_before"] == document["workload"]["n_states"]
        assert 0 <= reduce["states_after"] <= reduce["states_before"]
        assert 0.0 <= reduce["saving"] <= 1.0
        merged = sum(reduce["merges"].values())
        assert merged == reduce["states_before"] - reduce["states_after"]
        assert reduce["baseline_batches_before"] >= reduce["baseline_batches_after"]

    def test_v5_document_missing_cost_rejected(self, bro_stats):
        document = bro_stats.to_json()
        del document["cost"]
        with pytest.raises(SchemaError, match="cost"):
            validate_stats(document)

    def test_array_export(self, bro_stats):
        document = bro_stats.to_json()
        assert validate_stats_json([document, document]) == 2
        assert validate_stats_json(document) == 1

    @pytest.mark.parametrize("version", [
        99, 0, -3, "4", 4.0, 5.0, None, True, False,
        *(pytest.param(old, id=f"retired-v{old}") for old in (2, 3, 4)),
    ])
    def test_unknown_version_is_a_typed_error_naming_the_supported_set(
        self, bro_stats, version
    ):
        """Any version but the current one — the retired 2, 3 and 4, and
        non-integers such as ``True``, an ``int`` subclass — must raise
        :class:`SchemaError` naming the supported version, never
        ``KeyError`` and never a wall of field errors."""
        document = bro_stats.to_json()
        document["schema_version"] = version
        with pytest.raises(SchemaError) as excinfo:
            validate_stats(document)
        message = str(excinfo.value)
        assert "unsupported stats schema_version" in message
        assert "(supported: 5)" in message

    def test_missing_version_is_a_typed_error(self, bro_stats):
        document = bro_stats.to_json()
        del document["schema_version"]
        with pytest.raises(SchemaError, match=r"\(supported: 5\)"):
            validate_stats(document)


class TestCollect:
    def test_counters_are_internally_consistent(self, bro_stats, small_config):
        stats = bro_stats
        ap = small_config.half_core
        assert stats.app == "Bro217"
        assert stats.baseline_cycles == stats.baseline_batches * (
            small_config.input_len // 2
        )
        assert stats.spap_cycles == stats.spap_consumed_cycles + stats.spap_stall_cycles
        assert stats.queue_refills == (
            0 if stats.n_intermediate_reports == 0
            else math.ceil(stats.n_intermediate_reports / ap.report_queue_entries)
        )
        assert stats.device_bytes == stats.n_intermediate_reports * ap.report_entry_bytes
        assert 0.0 <= stats.hot_fraction <= 1.0
        assert 0.0 <= stats.prediction_accuracy <= 1.0
        assert 0.0 <= stats.prediction_recall <= 1.0
        assert stats.spap_speedup > 0
        assert stats.spap_speedup == pytest.approx(
            stats.baseline_cycles / (stats.base_cycles + stats.spap_cycles)
        )

    def test_stage_timings_cover_the_pipeline(self, bro_stats):
        names = {span.name for span in bro_stats.stages}
        assert {"build", "compile", "truth", "profile",
                "partition", "baseline", "base_spap", "ap_cpu"} <= names
        assert all(span.seconds >= 0 and span.calls >= 1 for span in bro_stats.stages)

    def test_render_is_readable(self, bro_stats):
        text = render_stats(bro_stats)
        assert "Bro217" in text
        assert "queue refills" in text
        assert "stages" in text
        assert "cost" in text and "classes" in text

    def test_no_stats_env_empties_stages_only(self, small_config, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STATS", "1")
        run = AppRun(get_app("Bro217"), small_config)
        stats = collect_run_stats("Bro217", small_config, app_run=run)
        assert stats.stages == []
        assert stats.baseline_cycles > 0  # counters unaffected
        validate_stats(stats.to_json())


class TestSweepStats:
    def test_rows_carry_stats_columns(self, small_config):
        (row,) = run_sweep(["Bro217"], small_config, jobs=1)
        assert row.spap_cycles >= row.spap_stall_cycles
        assert row.base_cycles > 0
        assert row.queue_refills >= 0
        assert row.device_bytes == row.n_intermediate_reports * 6
        assert 0.0 <= row.prediction_accuracy <= 1.0

    def test_render_has_stats_columns(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        table = render_sweep(rows)
        for header in ("Stalls", "IRs", "Refills", "PredAcc", "Classes", "Backend"):
            assert header in table

    def test_rows_carry_cost_columns(self, small_config):
        (row,) = run_sweep(["Bro217"], small_config, jobs=1)
        assert row.n_classes >= 1
        assert row.backend in ("reference", "bitpacked", "dfa", "lazydfa")
        assert isinstance(row.dfa_safe, bool)

    def test_summary_cost_aggregates(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        summary = sweep_summary(rows)
        assert summary["mean_class_count"] == pytest.approx(
            (rows[0].n_classes + rows[1].n_classes) / 2
        )
        assert 0.0 <= summary["fraction_dfa_safe"] <= 1.0

    def test_summary_geomeans(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        summary = sweep_summary(rows)
        assert summary["n_apps"] == 2
        expected = math.sqrt(rows[0].spap_speedup * rows[1].spap_speedup)
        assert summary["geomean_spap_speedup"] == pytest.approx(expected)
        assert summary["total_intermediate_reports"] == sum(
            r.n_intermediate_reports for r in rows
        )
        with pytest.raises(ValueError):
            sweep_summary([])

    def test_rows_carry_reduce_columns(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        for row in rows:
            assert 0 <= row.n_states_reduced <= row.n_states
            assert 0.0 <= row.reduce_saving <= 1.0
            assert row.reduced is False  # no backend executed
        table = render_sweep(rows)
        assert "Reduce" in table

    def test_summary_reduce_aggregates(self, small_config):
        rows = run_sweep(["Bro217", "LV"], small_config, jobs=1)
        summary = sweep_summary(rows)
        assert summary["mean_reduce_saving"] == pytest.approx(
            (rows[0].reduce_saving + rows[1].reduce_saving) / 2
        )
        assert 0.0 < summary["geomean_reduce_state_ratio"] <= 1.0

    def test_reduced_backend_execution_matches_unreduced(self, small_config):
        plain = run_sweep(["LV"], small_config, jobs=1,
                          backend="bitpacked")[0]
        reduced = run_sweep(["LV"], small_config, jobs=1,
                            backend="bitpacked", reduce=True)[0]
        assert reduced.reduced is True and plain.reduced is False
        assert reduced.backend == plain.backend == "bitpacked"
        assert reduced.backend_mb_s > 0
        table = render_sweep([reduced])
        assert "%+" in table  # the '+' marker for reduced execution


class TestStatsCli:
    def _env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        monkeypatch.setenv("REPRO_INPUT", "512")

    def test_json_single_app_is_schema_valid(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["stats", "Bro217", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_stats(payload)
        assert payload["app"] == "Bro217"

    def test_json_multi_app_is_an_array(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["stats", "Bro217", "LV", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_stats_json(payload) == 2
        assert [doc["app"] for doc in payload] == ["Bro217", "LV"]

    def test_alias_resolves(self, capsys, monkeypatch):
        self._env(monkeypatch)
        monkeypatch.setenv("REPRO_SCALE", "64")
        monkeypatch.setenv("REPRO_INPUT", "1024")
        assert cli_main(["stats", "SNT", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_stats(payload)
        assert payload["app"] == "Snort"

    def test_text_mode(self, capsys, monkeypatch):
        self._env(monkeypatch)
        assert cli_main(["stats", "Bro217"]) == 0
        out = capsys.readouterr().out
        assert "baseline AP" in out and "prediction" in out

    def test_no_apps_is_usage_error(self, capsys):
        assert cli_main(["stats"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_unknown_app(self, capsys):
        assert cli_main(["stats", "nope"]) == 2
        assert "unknown application" in capsys.readouterr().err
