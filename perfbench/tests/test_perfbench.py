"""The benchmark's own tests: ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import run
import serving
from harness import InsufficientTail, Outcome, Tracer, residual_ms, tail_percentile
from repro.serve.client import ConnectionLostError, MatchOutcome, ServeRequestError

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- the percentile rule -----------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1000)]
    assert tail_percentile(samples, 0.99) == 989.0  # 10 samples above it
    with pytest.raises(InsufficientTail):
        tail_percentile(samples[:999], 0.99)


def test_no_tail_from_few_samples():
    for n in (1, 10, 40, 100, 999):
        with pytest.raises(InsufficientTail):
            tail_percentile([1.0] * n, 0.99)
    assert tail_percentile([1.0] * 100, 0.90) == 1.0
    with pytest.raises(InsufficientTail):
        tail_percentile([1.0] * 99, 0.90)


# -- the residual arithmetic ------------------------------------------------------------


def test_residual_is_latency_minus_queue_and_exec():
    assert residual_ms(0.010, 2.0, 3.0) == pytest.approx(5.0)
    assert residual_ms(0.0025, 0.5, 0.5) == pytest.approx(1.5)


def _record(phase, due, sent, received, status="ok", queue_ms=1.0, exec_ms=2.0):
    return serving.Record(phase, "X", due, sent, received, status,
                          batch_size=3, queue_ms=queue_ms, exec_ms=exec_ms)


def test_reply_medians_take_the_residual_per_reply():
    records = [
        _record("closed", 0.0, 0.0, 0.005),  # 5 ms - 1 - 2 = 2 ms
        _record("closed", 0.0, 0.0, 0.007),  # 4 ms
        _record("open", 0.0, 0.0, 0.009),  # 6 ms
        _record("warmup", 0.0, 0.0, 1.0),  # untimed: ignored
        _record("open", 0.0, 0.0, 1.0, status="error:OVERLOADED"),  # failed: ignored
    ]
    medians = serving.reply_medians(records)
    assert medians["residual_ms"] == pytest.approx(4.0)
    assert medians["serve.queue_ms"] == 1.0
    assert medians["serve.exec_ms"] == 2.0
    assert medians["serve.batch_size"] == 3.0


def test_closed_throughput_counts_whole_runs_of_replies():
    records = [_record("closed-0", 0.0, 0.0, 0.01 * i) for i in range(1, 14)]
    records += [_record("closed-1", 0.0, 0.0, 5.0 + 0.02 * i) for i in range(1, 10)]
    # Runs of 4 replies after each slice's first run, each timed from the
    # last reply of the run before: 0.04..0.08 and 0.08..0.12 in the first
    # slice, 5.08..5.16 in the second; the first slice's last reply is in
    # no whole run.
    assert serving.closed_throughput(records, 4) == pytest.approx([100.0, 100.0, 50.0])


# -- latency from the scheduled send ----------------------------------------------------


class FakeClient:
    """Answers at once, with whatever ``reply`` (or exception) it is given."""

    def __init__(self, reply=None):
        self.reply = reply

    async def match(self, app, payload, *, max_reports=None):
        if isinstance(self.reply, BaseException):
            raise self.reply
        return self.reply or MatchOutcome(
            app=app, n_symbols=len(payload), reports=[], reports_truncated=False,
            batch_size=1, queue_ms=0.0, exec_ms=0.0, latency_s=0.0)


def _load_gen(client, rate=500.0, expected=()):
    plan = dataclasses.replace(serving.SERVE, apps=("X",), pool=1, rate=rate,
                               inflight=2)
    gen = serving.LoadGen.__new__(serving.LoadGen)
    gen.plan = plan
    gen.tracer = Tracer(enabled=False)
    gen.outcome = Outcome()
    gen.records = []
    gen.lateness = []
    gen.round = [serving.Request("X", b"abcd", list(expected))]
    gen.clients = [client]
    gen.max_reports = 8
    return gen


def test_generator_stall_shows_as_latency():
    gen = _load_gen(FakeClient(), rate=500.0)

    async def stalled():
        # Block the event loop for 60 ms shortly after the loop starts: the
        # requests due meanwhile are sent late, and their latency says so.
        asyncio.get_running_loop().call_later(0.02, time.sleep, 0.06)
        await gen.open_loop("open", 0.2)

    asyncio.run(stalled())
    latencies = serving.scheduled_latencies_ms(gen.records)
    assert len(latencies) == 100  # 500 req/s for 0.2 s, whole rounds of one
    assert max(latencies) >= 50.0
    assert max(gen.lateness) >= 0.05
    # Timed from the actual send, the same replies would look instant.
    assert max(1e3 * (r.received - r.sent) for r in gen.records) < 50.0


def test_closed_loop_latency_leaves_out_each_slices_first_round():
    records = [_record("closed-0", 0.0, 0.01 * i, 0.01 * i + 0.002) for i in range(4)]
    records += [_record("closed-0", 0.0, 0.04, 0.05, status="error:OVERLOADED")]
    records += [_record("closed-1", 0.0, 1.0 + 0.01 * i, 1.0 + 0.01 * i + 0.003)
                for i in range(3)]
    records += [_record("open-0", 0.0, 0.0, 1.0)]  # open loop: not closed latency
    # Rounds of 2: the first two sends of each slice are left out.
    assert serving.closed_latencies_ms(records, 2) == pytest.approx(
        [2.0, 2.0, math.inf, 3.0])


def test_failed_open_loop_request_misses_every_latency_limit():
    records = [_record("open", 0.0, 0.0, 0.001),
               _record("open", 0.0, 0.0, 0.001, status="connection_lost")]
    assert serving.scheduled_latencies_ms(records)[1] == math.inf


# -- failure counting --------------------------------------------------------------------


@pytest.mark.parametrize("reply, kind", [
    (ServeRequestError("OVERLOADED", "busy"), "error:OVERLOADED"),
    (ConnectionLostError("gone"), "connection_lost"),
    (MatchOutcome(app="X", n_symbols=4, reports=[(1, 2)], reports_truncated=False,
                  batch_size=1, queue_ms=0.0, exec_ms=0.0, latency_s=0.0),
     "mismatch"),
    (MatchOutcome(app="Y", n_symbols=4, reports=[], reports_truncated=False,
                  batch_size=1, queue_ms=0.0, exec_ms=0.0, latency_s=0.0),
     "mismatch"),
    (MatchOutcome(app="X", n_symbols=4, reports=[], reports_truncated=True,
                  batch_size=1, queue_ms=0.0, exec_ms=0.0, latency_s=0.0),
     "mismatch"),
])
def test_failures_are_split_by_kind(reply, kind):
    gen = _load_gen(FakeClient(reply))
    record = asyncio.run(gen.issue("closed", 0, None, None))
    assert record.status == kind
    assert gen.outcome.attempted == 1
    assert gen.outcome.failures == {kind: 1}
    assert gen.outcome.correct == (kind != "mismatch")


def test_matching_reply_counts_as_success():
    gen = _load_gen(FakeClient(), expected=())
    asyncio.run(gen.issue("closed", 0, None, None))
    assert (gen.outcome.attempted, gen.outcome.failed) == (1, 0)


def test_result_line_stays_json_when_a_value_is_not_finite():
    document = json.loads(harness.result_line(Outcome(), {"p50_ms": (math.inf, "ms")}))
    assert document["metrics"]["p50_ms"] == {"value": None, "unit": "ms"}


def test_outcome_result_line_has_exactly_the_four_keys():
    outcome = Outcome()
    outcome.ok()
    outcome.fail("error:OVERLOADED")
    document = json.loads(harness.result_line(outcome, {"p50_ms": (1.5, "ms")}))
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert (document["correct"], document["attempted"], document["failed"]) == (True, 2, 1)
    assert document["metrics"] == {"p50_ms": {"value": 1.5, "unit": "ms"}}


# -- stopping what the benchmark starts ---------------------------------------------------

_ORPHAN_MAKER = """
import subprocess, sys
grandchild = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.5)"])
print(grandchild.pid, flush=True)
"""


def test_stop_ends_and_reaps_an_orphaned_grandchild():
    # The child exits at once, leaving its grandchild to the subreaper; a
    # stopped group must leave neither a running process nor a zombie.
    assert harness.become_subreaper()
    process = harness.CHILDREN.start([sys.executable, "-c", _ORPHAN_MAKER],
                                     stdout=subprocess.PIPE)
    grandchild = int(process.stdout.readline())
    process.stdout.close()
    harness.CHILDREN.stop(process, grace_s=5.0)
    assert not os.path.exists(f"/proc/{grandchild}")
    assert not any(harness._pgid_of(pid) == process.pid for pid in harness._pids())
    assert process.pid not in harness.CHILDREN.live


# -- the fixed form of BENCHMARK.json ----------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_its_fixed_form():
    document = json.loads(BENCHMARK.read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert isinstance(document["run_seconds"], int)
    assert 1 <= document["run_seconds"] <= 60
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOADS)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(name) for name in names)
    assert [m["name"] for m in document["end_to_end"]] == list(run.END_TO_END)
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == run.PER_LAYER
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert _UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert len(BENCHMARK.read_bytes()) <= 64 * 1024
