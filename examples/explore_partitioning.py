#!/usr/bin/env python
"""Explore why partitioning works: depth vs hotness, SCCs, and the oracle.

A compact tour of the paper's §III analysis on three contrasting
applications: ClamAV (deep chains, almost everything cold), Hamming
(mismatch grids, mid-depth hot front), and EntityResolution (a large SCC
that defeats topological cuts).
"""

from repro.core.oracle import constrained_states, ideal_speedup
from repro.experiments import ExperimentConfig
from repro.nfa.analysis import analyze_network, depth_buckets
from repro.sim import run, subset_core
from repro.workloads import get_app


def analyze(abbr: str, config: ExperimentConfig) -> None:
    spec = get_app(abbr)
    network = spec.build(config.scale)
    topology = analyze_network(network)
    data = spec.make_input(network, config.input_len)
    result = run(subset_core(network), data[len(data) // 2 :])
    hot = result.hot_mask()

    print(f"\n=== {abbr}: {network.n_states} states, "
          f"{100 * hot.mean():.1f}% hot ===")

    depth = topology.normalized_depth
    hot_b = depth_buckets(depth[hot])
    cold_b = depth_buckets(depth[~hot])
    print(f"  hot  states by depth: {100 * hot_b['shallow']:.0f}% shallow / "
          f"{100 * hot_b['medium']:.0f}% medium / {100 * hot_b['deep']:.0f}% deep")
    print(f"  cold states by depth: {100 * cold_b['shallow']:.0f}% shallow / "
          f"{100 * cold_b['medium']:.0f}% medium / {100 * cold_b['deep']:.0f}% deep")

    biggest_scc = max(t.scc_size.max() for t in topology.per_automaton)
    print(f"  largest SCC: {biggest_scc} states")

    oracle = constrained_states(network, topology, hot)
    print(f"  topological cut must keep {oracle.topo_hot} states hot "
          f"({oracle.constrained} more than a perfect arbitrary-edge cut, "
          f"+{100 * oracle.constrained_fraction:.1f}%)")

    capacity = config.half_core.capacity
    print(f"  oracle speedup at capacity {capacity}: "
          f"{ideal_speedup(network.n_states, capacity, 1 - hot.mean()):.2f}x")


def main() -> None:
    config = ExperimentConfig(scale=16, input_len=8192)
    for abbr in ("CAV", "HM500", "ER"):
        analyze(abbr, config)
    print("\nTakeaway: depth predicts hotness except where SCCs span the "
          "machine (ER) — exactly the paper's Fig 5 / Fig 8 story.")


if __name__ == "__main__":
    main()
