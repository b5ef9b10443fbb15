"""Tests for the report-queue model and the command-line interface."""

import subprocess
import sys

import pytest

from repro.ap import HALF_CORE
from repro.ap.queue import queue_usage


class TestReportQueue:
    def test_no_reports(self):
        usage = queue_usage(0, HALF_CORE)
        assert usage.refills == 0
        assert usage.device_bytes == 0

    def test_single_window(self):
        usage = queue_usage(100, HALF_CORE)
        assert usage.refills == 1
        assert usage.device_bytes == 600

    def test_exact_boundary(self):
        assert queue_usage(128, HALF_CORE).refills == 1
        assert queue_usage(129, HALF_CORE).refills == 2

    @pytest.mark.parametrize(
        "n_reports,refills",
        [
            (0, 0),          # empty list: the queue is never loaded
            (1, 1),          # a single report still costs one refill
            (127, 1), (128, 1),  # up to one full window
            (129, 2),        # +1 past the window forces a second refill
            (256, 2),        # exact multiple of the 128-entry queue
            (257, 3),        # +1 past an exact multiple
            (3 * 128, 3), (3 * 128 + 1, 4),
        ],
    )
    def test_refill_boundaries(self, n_reports, refills):
        usage = queue_usage(n_reports, HALF_CORE)
        assert usage.refills == refills
        # Device traffic is per report (6 B each), not per refill window.
        assert usage.device_bytes == 6 * n_reports

    def test_boundaries_follow_configured_queue_size(self):
        from repro.ap import APConfig

        tiny = APConfig(report_queue_entries=4)
        assert queue_usage(0, tiny).refills == 0
        assert queue_usage(1, tiny).refills == 1
        assert queue_usage(4, tiny).refills == 1
        assert queue_usage(5, tiny).refills == 2
        assert queue_usage(8, tiny).refills == 2
        assert queue_usage(9, tiny).refills == 3
        assert queue_usage(9, tiny).on_chip_bytes == 4 * 6

    def test_on_chip_budget_matches_paper(self):
        usage = queue_usage(1, HALF_CORE)
        assert usage.on_chip_bytes == 128 * 6  # §V-B storage estimate

    def test_to_json_counters(self):
        payload = queue_usage(129, HALF_CORE).to_json()
        assert payload == {
            "n_reports": 129,
            "refills": 2,
            "device_bytes": 129 * 6,
            "on_chip_bytes": 128 * 6,
        }

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            queue_usage(-1, HALF_CORE)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env={"PYTHONPATH": "src", "REPRO_SCALE": "64", "REPRO_INPUT": "1024",
             "PATH": "/usr/bin:/bin"},
        cwd=str(__import__("pathlib").Path(__file__).parent.parent),
    )


class TestCLI:
    def test_list_apps(self):
        result = _cli("list-apps")
        assert result.returncode == 0
        assert "CAV4k" in result.stdout
        assert "Bro217" in result.stdout

    def test_run_app(self):
        result = _cli("run-app", "Bro217")
        assert result.returncode == 0
        assert "baseline AP" in result.stdout
        assert "BaseAP/SpAP" in result.stdout

    def test_run_app_unknown(self):
        result = _cli("run-app", "nope")
        assert result.returncode == 2

    def test_figure_unknown(self):
        result = _cli("figure", "fig99")
        assert result.returncode == 2

    def test_figure_small(self):
        result = _cli("figure", "table2")
        assert result.returncode == 0
        assert "Table II" in result.stdout

    def test_no_command_errors(self):
        result = _cli()
        assert result.returncode != 0

    def test_semant_app(self):
        result = _cli("semant", "Bro217")
        assert result.returncode == 0
        assert "proven dead" in result.stdout

    def test_semant_unknown(self):
        result = _cli("semant", "nope")
        assert result.returncode == 2


class TestVerifyExitCodes:
    """The documented contract, asserted in-process with a stubbed verifier:
    warnings exit 0, any ERROR-severity finding exits 1, and unknown or
    missing apps exit 2 (for every per-app command)."""

    @staticmethod
    def _stub_report(code=None):
        from repro.verify.diagnostics import VerificationReport

        report = VerificationReport(subject="stub")
        if code is not None:
            report.emit(code, "synthetic finding", location="stub")
        return report

    def _run_verify(self, monkeypatch, code):
        import repro.verify.app as verify_app_module
        from repro.__main__ import main

        report = self._stub_report(code)
        monkeypatch.setattr(
            verify_app_module, "verify_app", lambda *a, **k: report
        )
        return main(["verify", "Bro217"])

    def test_clean_exits_zero(self, monkeypatch, capsys):
        assert self._run_verify(monkeypatch, None) == 0

    def test_warnings_exit_zero(self, monkeypatch, capsys):
        # SPAP-N004 is WARNING severity: findings, but not failures.
        assert self._run_verify(monkeypatch, "SPAP-N004") == 0

    def test_errors_exit_one(self, monkeypatch, capsys):
        assert self._run_verify(monkeypatch, "SPAP-S001") == 1

    PER_APP_COMMANDS = ("stats", "verify", "semant", "cost", "reduce")

    def test_unknown_app_exits_two(self, capsys):
        from repro.__main__ import main

        for command in self.PER_APP_COMMANDS:
            assert main([command, "nope"]) == 2, command
            assert "unknown application 'nope'" in capsys.readouterr().err

    def test_no_apps_exits_two(self, capsys):
        from repro.__main__ import main

        for command in self.PER_APP_COMMANDS:
            assert main([command]) == 2, command
            assert capsys.readouterr().err == (
                f"{command}: name at least one application or pass --all\n"
            )
