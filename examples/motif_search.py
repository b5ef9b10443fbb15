#!/usr/bin/env python
"""Approximate DNA motif search with Hamming (BMIA) automata.

Builds bounded-mismatch automata for a set of motifs, scans a genome-like
random sequence with a few mutated motif occurrences planted in it, and
reports each hit with its mismatch budget — then shows the hot/cold
pipeline preserving those hits while cutting AP configurations.
"""

import numpy as np

from repro.ap import APConfig
from repro.core import (
    prepare_partition,
    run_base_spap,
    run_baseline_ap,
    verify_equivalence,
)
from repro.nfa.automaton import Network
from repro.sim import run, subset_core
from repro.workloads import bmia_automaton
from repro.workloads.inputs import dna_bytes


def mutate(motif: bytes, positions, base: int) -> bytes:
    out = bytearray(motif)
    for p in positions:
        out[p] = base
    return bytes(out)


def main() -> None:
    rng = np.random.default_rng(7)
    motifs = [
        bytes(b"ACGT"[rng.integers(0, 4)] for _ in range(24)) for _ in range(40)
    ]
    network = Network("motifs")
    for index, motif in enumerate(motifs):
        network.add(
            bmia_automaton(motif, distance=3, name=f"motif{index}", alphabet=b"ACGT")
        )
    print(f"{len(motifs)} motifs -> {network.n_states} BMIA states")

    genome = bytearray(dna_bytes(6000, seed=11))
    # Plant: one exact occurrence, one 2-mismatch occurrence, one 5-mismatch
    # occurrence (beyond budget, must NOT report).
    genome[100:124] = motifs[0]
    genome[2000:2024] = mutate(motifs[1], [3, 17], ord("A") if motifs[1][3] != ord("A") else ord("C"))
    genome[4000:4024] = mutate(motifs[2], [1, 5, 9, 13, 21], ord("G") if motifs[2][1] != ord("G") else ord("T"))
    genome = bytes(genome)

    result = run(subset_core(network), genome)
    print(f"\nhits ({result.reports.shape[0]}):")
    for position, gid in result.report_tuples():
        a_index, sid = network.locate(gid)
        state = network.automata[a_index].state(sid)
        print(f"  motif {network.automata[a_index].name} ends at {position} "
              f"({state.report_code.split('/')[-1]} mismatches used)")

    # Hot/cold pipeline on an AP sized at a third of the motif set.
    config = APConfig(capacity=network.n_states // 3 + 50, blocks=96)
    baseline = run_baseline_ap(network, genome, config)
    partitioned, hot_bins = prepare_partition(network, genome[:300], config)
    outcome = run_base_spap(partitioned, genome, config, hot_bins)
    assert verify_equivalence(baseline, outcome)
    print(f"\nbaseline {baseline.n_batches} configurations -> "
          f"{outcome.n_hot_batches} hot + SpAP replay; "
          f"speedup {baseline.cycles / outcome.cycles:.2f}x, all hits preserved")


if __name__ == "__main__":
    main()
