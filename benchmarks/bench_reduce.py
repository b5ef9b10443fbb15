"""Reduction yield: state savings and execution cost across the registry.

The SPAP-R reducer (``repro.reduce``) claims two measurable things: it
shrinks real networks (nonzero mean state saving across the 26-app
registry) and the shrinkage is *useful* — at least one app's backend
cost verdict improves, and executing the reduced network is no slower
than the parent on the apps that reduce most::

    PYTHONPATH=src python benchmarks/bench_reduce.py          # write BENCH_reduce.json
    PYTHONPATH=src python benchmarks/bench_reduce.py --check  # CI floor assertion

``--check`` re-measures and asserts the floors: mean exact-mode saving
strictly positive, >= ``MIN_COST_IMPROVED`` cost-improved apps (either
mode counts), and >= ``MIN_THROUGHPUT_ROWS`` parent-vs-reduced
throughput measurements recorded.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.reduce import analyze_run_reduce, reduce_network
from repro.sim import run, subset_core
from repro.workloads.registry import app_names, get_app

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_reduce.json"
SCALE, INPUT_LEN = 64, 2048
#: Floors enforced by --check (acceptance criteria, not statistics).
MIN_COST_IMPROVED = 1
MIN_THROUGHPUT_ROWS = 2
#: How many of the most-reduced apps get the parent-vs-reduced timing arm.
N_THROUGHPUT_APPS = 2

_CONFIG = ExperimentConfig(scale=SCALE, input_len=INPUT_LEN, verify=False)


@pytest.fixture(scope="module")
def hm_network():
    return get_app("HM").build(SCALE)


def test_reduce_network_cost(benchmark, hm_network):
    reduction = benchmark(lambda: reduce_network(hm_network))
    assert reduction.saved_states >= 0


def _reduce_row(abbr):
    """Both-mode savings and the cost-model interplay for one app."""
    from repro.experiments.pipeline import AppRun

    app_run = AppRun(get_app(abbr), _CONFIG)
    exact = analyze_run_reduce(app_run, mode="exact")
    aggressive = analyze_run_reduce(app_run, mode="aggressive")
    assert exact.ok and aggressive.ok, f"{abbr}: structural rules fired"
    return {
        "app": abbr,
        "n_states": exact.summary.states_before,
        "exact_saved": exact.summary.saved_states,
        "exact_saving": round(exact.summary.saving, 4),
        "aggressive_saved": aggressive.summary.saved_states,
        "aggressive_saving": round(aggressive.summary.saving, 4),
        "merges": exact.summary.to_json()["merges"],
        "cost_improved": exact.summary.cost_improved
        or aggressive.summary.cost_improved,
        "recommended": [
            exact.summary.recommended_before,
            exact.summary.recommended_after,
        ],
    }


def _us_per_byte(fn, n_bytes, repeats=3):
    """Best-of-``repeats`` microseconds per input byte for ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best * 1e6 / n_bytes


def _throughput_row(abbr, repeats=3):
    """Bitpacked us/B on the parent vs the exact-reduced network."""
    spec = get_app(abbr)
    network = spec.build(SCALE)
    data = spec.make_input(network, INPUT_LEN)
    reduction = reduce_network(network)
    parent = subset_core(network)
    reduced = subset_core(reduction.network)
    n = len(data)
    parent_us = _us_per_byte(lambda: run(parent, data, track_enabled=False), n, repeats)
    reduced_us = _us_per_byte(
        lambda: run(reduced, data, track_enabled=False), n, repeats
    )
    return {
        "app": abbr,
        "saved_states": reduction.saved_states,
        "parent_us_per_b": round(parent_us, 3),
        "reduced_us_per_b": round(reduced_us, 3),
        "speedup": round(parent_us / reduced_us, 3),
    }


def collect_metrics(repeats=3, apps=None):
    apps = list(apps or app_names())
    rows = [_reduce_row(abbr) for abbr in apps]
    mean_exact = sum(row["exact_saving"] for row in rows) / len(rows)
    mean_aggressive = sum(row["aggressive_saving"] for row in rows) / len(rows)
    most_reduced = sorted(rows, key=lambda row: row["exact_saved"], reverse=True)
    throughput = [
        _throughput_row(row["app"], repeats)
        for row in most_reduced[:N_THROUGHPUT_APPS]
        if row["exact_saved"] > 0
    ]
    return {
        "workload": {"scale": SCALE, "input_len": INPUT_LEN, "apps": apps},
        "mean_exact_saving": round(mean_exact, 4),
        "mean_aggressive_saving": round(mean_aggressive, 4),
        "max_exact_saving": max(row["exact_saving"] for row in rows),
        "n_apps_reduced": sum(1 for row in rows if row["exact_saved"] > 0),
        "n_cost_improved": sum(1 for row in rows if row["cost_improved"]),
        "apps": rows,
        "throughput": throughput,
    }


def _check(live):
    failures = []
    if not live["mean_exact_saving"] > 0:
        failures.append(
            "mean exact-mode state saving is zero across the registry "
            "(the reducer found nothing to remove)"
        )
    if live["n_cost_improved"] < MIN_COST_IMPROVED:
        failures.append(
            f"only {live['n_cost_improved']} apps improved their cost "
            f"verdict (floor {MIN_COST_IMPROVED})"
        )
    if len(live["throughput"]) < MIN_THROUGHPUT_ROWS:
        failures.append(
            f"only {len(live['throughput'])} parent-vs-reduced throughput "
            f"rows measured (floor {MIN_THROUGHPUT_ROWS})"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="reduction yield benchmark")
    parser.add_argument("--check", action="store_true",
                        help="re-measure and assert the saving floors "
                             "(exit 1 on failure)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per network (best-of)")
    args = parser.parse_args(argv)

    live = collect_metrics(repeats=args.repeats)
    print(json.dumps(live, indent=2))
    if not args.check:
        BENCH_PATH.write_text(json.dumps(live, indent=2) + "\n")
        print(f"wrote {BENCH_PATH}", file=sys.stderr)
        return 0

    failures = _check(live)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"reduce check passed: mean saving "
            f"{live['mean_exact_saving']:.2%} exact / "
            f"{live['mean_aggressive_saving']:.2%} aggressive, "
            f"{live['n_cost_improved']} cost-improved apps, "
            f"{len(live['throughput'])} throughput rows",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
