"""Each offline fact is computed once per pipeline run.

A cold ``sweep_app(abbr, backend="auto")``, after the ``AppRun`` stages in
the order ``perfbench/offline.py`` calls them, builds each network's subset
core once (every advised network, and the SpAP cold batches it simulates),
explores subsets only inside the cost analysis, runs one hot phase and one
whole-network NFA simulation over the test input (the truth run).  The
shortcuts this relies on are checked against the work they skip: the
``auto`` selection that trusts the advisory against the explicit
feasibility check, and the hot advisory reused from the parent's against a
fresh one.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Callable, Dict, List

import pytest

from repro.core.scenarios import run_hot_phase
from repro.cost.advisory import advise_network
from repro.cost.app import analyze_run_cost
from repro.cost.explore import explore_subset_construction
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import AppRun, clear_cache, get_run
from repro.experiments.sweep import sweep_app
from repro.nfa.determinize import subset_core
from repro.sim import ENGINES, FALLBACK_BACKEND, resolve_backend
from repro.sim.dfa import dfa_feasible
from repro.sim.engine import run as engine_run
from repro.workloads.registry import app_names, get_app

CFG = ExperimentConfig(scale=64, input_len=1024)
FRACTION = 0.01


def _replace(monkeypatch, original: Callable, wrapper: Callable) -> None:
    """Point every reference to ``original`` in the loaded ``repro``
    modules and the engine registry at ``wrapper``."""
    holders = [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro")
    ]
    for holder in holders + list(ENGINES.values()):
        for name, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, name, wrapper)


def _count(monkeypatch, original: Callable, record: Callable[..., None]) -> None:
    """Call ``record`` with the arguments of every call to ``original``."""

    def counted(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    _replace(monkeypatch, original, counted)


@pytest.fixture
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.mark.parametrize("abbr", ["EM", "Brill"])
def test_cold_sweep_computes_each_fact_once(abbr, monkeypatch, fresh_cache):
    cores: List[int] = []
    explorations: List[bool] = []
    feasibility: List[int] = []
    hot_phases: List[int] = []
    nfa_runs: List[tuple] = []
    inside_cost: Dict[str, bool] = {"now": False}

    def analyze(*args, **kwargs):
        inside_cost["now"] = True
        try:
            return analyze_run_cost(*args, **kwargs)
        finally:
            inside_cost["now"] = False

    _replace(monkeypatch, analyze_run_cost, analyze)
    _count(monkeypatch, subset_core, lambda network: cores.append(id(network)))
    _count(monkeypatch, explore_subset_construction,
           lambda *a, **k: explorations.append(inside_cost["now"]))
    _count(monkeypatch, dfa_feasible, lambda *a, **k: feasibility.append(1))
    _count(monkeypatch, run_hot_phase, lambda *a, **k: hot_phases.append(1))
    _count(monkeypatch, engine_run,
           lambda compiled, data, **k: nfa_runs.append((compiled.n_states, bytes(data))))

    ap = CFG.half_core
    run = get_run(abbr, CFG)
    run.network
    run.entire_input
    run.topology
    run.compiled
    run.truth
    run.profile(FRACTION)
    run.semantics
    run.static_prediction()
    partitioned, _bins = run.partition(FRACTION, ap)
    advisories = run.cost_outcome(FRACTION).cost.advisories
    backend, _engine = run.select_backend("auto", FRACTION)
    run.prepared_for(backend)
    run.baseline(ap)
    run.base_spap(FRACTION, ap)
    run.ap_cpu(FRACTION, ap)
    run.reduced
    row = sweep_app(abbr, CFG, FRACTION, backend="auto")

    # The premise each app stands for: EM is DFA-safe with nothing cold,
    # Brill has both sides.
    if abbr == "EM":
        assert backend == "dfa" and partitioned.cold.n_states == 0
        advised = [run.network]
    else:
        assert partitioned.cold.n_states > 0
        advised = [run.network, partitioned.hot, partitioned.cold]
    assert row.backend == backend
    assert [a.partition for a in advisories] == (
        ["network", "hot"] if abbr == "EM" else ["network", "hot", "cold"]
    )

    built = Counter(cores)
    assert max(built.values()) == 1
    assert all(built[id(network)] == 1 for network in advised)
    assert explorations == [True] * len(advised)
    assert feasibility == []
    assert hot_phases == [1]
    whole = [key for key in nfa_runs
             if key == (run.network.n_states, run.test_input)]
    assert len(whole) == 1  # the truth run


@pytest.mark.parametrize("abbr", app_names())
def test_shortcuts_match_the_work_they_skip(abbr):
    """``auto`` selection trusting the advisory picks what the
    feasibility-checked path picks, and a partition with nothing cold gets
    the same hot advisory from the parent's as from a fresh analysis of its
    hot network."""
    run = AppRun(get_app(abbr), CFG)
    advisory = run.backend_advisory(FRACTION)
    checked, _ = resolve_backend("auto", run.network, advised=advisory.recommended)
    assert run.select_backend("auto", FRACTION)[0] == checked
    partitioned, _bins = run.partition(FRACTION, CFG.half_core)
    if partitioned.cold.n_states == 0:
        fresh = advise_network(partitioned.hot, partition="hot", horizon=CFG.input_len)
        assert run.cost_outcome(FRACTION).cost.advisory("hot") == fresh


def test_compiled_is_the_run_networks_core():
    """The bitpacked engine's artifact is the core every other consumer of
    the run's network shares, built once under the ``compile`` stage."""
    run = AppRun(get_app("Bro217"), CFG)
    assert run.compiled is run.subset_core(run.network)
    assert run.compiled is run.prepared_for("bitpacked")
    assert run.stats.calls("compile") == 1


def test_auto_at_another_budget_still_checks_feasibility():
    """An advisory explored above ``compile_dfa``'s default budget can
    advise a DFA that ``compile_dfa`` refuses, so ``auto`` checks it."""
    run = AppRun(get_app("LV"), CFG)  # 21,705 subsets: safe only above 4096
    assert run.backend_advisory(FRACTION, budget=40000).recommended == "dfa"
    name, _ = run.select_backend("auto", FRACTION, budget=40000)
    assert name == FALLBACK_BACKEND
