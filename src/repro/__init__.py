"""SparseAP reproduction: large-scale automata processing on an AP model.

Reproduces "Architectural Support for Efficient Large-Scale Automata
Processing" (MICRO 2018): profiling-based hot/cold NFA state prediction,
topological-order partitioning with intermediate reporting states, and the
SparseAP execution mode, evaluated on a faithful Automata Processor model.

Quickstart::

    from repro import compile_regex, Network, HALF_CORE
    from repro import run_baseline_ap, prepare_partition, run_base_spap

    network = Network("demo")
    network.add(compile_regex("a((bc)|(cd)+)f", name="demo-pattern"))
    baseline = run_baseline_ap(network, b"xxabcf", HALF_CORE)
"""

from .ap import FULL_CHIP, HALF_CORE, QUARTER_CORE, APConfig
from .core import (
    CPUCostModel,
    geometric_mean,
    partition_network,
    prepare_partition,
    profile_network,
    run_ap_cpu,
    run_base_spap,
    run_baseline_ap,
    verify_equivalence,
)
from .nfa import Automaton, Network, StartKind, SymbolSet, compile_regex
from .sim import reference_run, run, subset_core

__version__ = "1.0.0"

__all__ = [
    "APConfig",
    "HALF_CORE",
    "FULL_CHIP",
    "QUARTER_CORE",
    "CPUCostModel",
    "geometric_mean",
    "partition_network",
    "prepare_partition",
    "profile_network",
    "run_ap_cpu",
    "run_base_spap",
    "run_baseline_ap",
    "verify_equivalence",
    "Automaton",
    "Network",
    "StartKind",
    "SymbolSet",
    "compile_regex",
    "reference_run",
    "run",
    "subset_core",
    "__version__",
]
