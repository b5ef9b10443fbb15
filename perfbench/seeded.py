"""Seeded inputs and the modelled statistics of the offline workload.

Every input the benchmark feeds the program comes from ``--seed``.  The
offline workload's test inputs come from a fixed set of
:data:`INPUT_VARIANTS` per app, picked by ``seed % INPUT_VARIANTS``, so a
committed copy of the modelled statistics (``model_stats.json``) covers
every seed.  ``regen_model.py`` rewrites that copy.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import INPUT_LEN, PROFILE_FRACTION, SCALE
from repro.experiments.config import ExperimentConfig
from repro.workloads.registry import AppSpec, get_app

#: Distinct offline input sets; the copy holds modelled statistics for each.
INPUT_VARIANTS = 16
MODEL_COPY = Path(__file__).resolve().parent / "model_stats.json"
#: The apps of the offline workload: DFA-safe ones where compile_dfa runs
#: (Bro217, EM), DFA-unsafe ones on the lazy DFA (LV, HM, Brill), and heavy
#: scenario simulation (LV's dense reports; Brill, the one app here larger
#: than the scaled AP capacity, so its SpAP phase has cold batches to run).
OFFLINE_APPS = ("Bro217", "EM", "LV", "HM", "Brill")
#: The modelled (simulated-hardware) columns compared with the copy.
MODEL_FIELDS = ("baseline_cycles", "spap_cycles", "spap_stall_cycles",
                "n_intermediate_reports", "spap_speedup")


def pinned_config() -> ExperimentConfig:
    return ExperimentConfig(scale=SCALE, input_len=INPUT_LEN, verify=True)


def variant_of(seed: int) -> int:
    return seed % INPUT_VARIANTS


def _seeded_test_half(builder, input_seed: int, spec: AppSpec, network,
                      length: int, registry_seed: int) -> bytes:
    half = length // 2
    registry = builder(spec, network, length, registry_seed)
    return registry[:half] + builder(spec, network, length, input_seed)[half:]


def seeded_spec(spec: AppSpec, variant: int) -> AppSpec:
    """``spec`` whose test half of the input comes from the benchmark's
    input variant.  The first half, from which the pipeline takes its
    profiling prefix, stays the registry's own, so partitions and the cost
    analysis over them are the same for every seed; the network is unchanged."""
    input_seed = spec.seed(f"perfbench-input:{variant}")
    return dataclasses.replace(
        spec,
        input_builder=functools.partial(_seeded_test_half, spec.input_builder,
                                        input_seed),
    )


def payload_pool(abbr: str, network, seed: int, count: int,
                 size: int) -> List[bytes]:
    """``count`` distinct payloads of ``size`` bytes from the app's own input
    generator, seeded by the benchmark seed."""
    spec = get_app(abbr)
    rng = np.random.default_rng([seed, spec.seed("perfbench-payload")])
    return [spec.make_input(network, size, seed=int(s))
            for s in rng.integers(0, 2**31 - 1, size=count)]


def modelled_row(app_run) -> Dict[str, object]:
    """The modelled statistics of one app at the standard operating point."""
    ap = app_run.config.half_core
    baseline = app_run.baseline(ap)
    spap = app_run.base_spap(PROFILE_FRACTION, ap)
    return {
        "baseline_cycles": int(baseline.cycles),
        "spap_cycles": int(spap.cycles),
        "spap_stall_cycles": int(spap.spap_stall_cycles),
        "n_intermediate_reports": int(spap.n_intermediate_reports),
        "spap_speedup": float(baseline.cycles / spap.cycles),
    }


def load_model_copy() -> Dict[str, Dict[str, Dict[str, object]]]:
    with open(MODEL_COPY) as handle:
        document = json.load(handle)
    expected = {"scale": SCALE, "input_len": INPUT_LEN,
                "profile_fraction": PROFILE_FRACTION,
                "apps": list(OFFLINE_APPS), "variants": INPUT_VARIANTS}
    if document.get("operating_point") != expected:
        raise ValueError(f"{MODEL_COPY.name} was written for "
                         f"{document.get('operating_point')}, not {expected}; "
                         "rewrite it with regen_model.py")
    return document["variants"]
