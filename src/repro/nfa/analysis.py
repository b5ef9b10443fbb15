"""Graph analysis for NFAs: SCC condensation and topological ordering.

Implements the paper's §III-A preprocessing: identify strongly connected
components (iterative Tarjan, safe for the very deep chain automata in
ClamAV/Snort workloads), condense them to a DAG, and assign every state a
1-based *topological order* — the longest-path layer from the starting
states — with all members of an SCC sharing one order.  Normalized depth is
the order divided by the maximum order in that automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from .automaton import Automaton, Network

__all__ = [
    "Topology",
    "strongly_connected_components",
    "analyze_automaton",
    "analyze_network",
    "NetworkTopology",
    "depth_buckets",
    "DEPTH_BUCKET_NAMES",
]

DEPTH_BUCKET_NAMES = ("shallow", "medium", "deep")


def strongly_connected_components(
    n_states: int, successors: Callable[[int], Sequence[int]]
) -> List[int]:
    """Tarjan's algorithm, iteratively.

    ``successors`` maps a state id to a sequence of successor ids.  Returns a
    per-state SCC id; SCC ids are assigned in pop order, so a higher id never
    reaches a lower id except within the same SCC (i.e. descending id order is
    a topological order of the condensation from sinks to sources).
    """
    index = [-1] * n_states
    lowlink = [0] * n_states
    on_stack = [False] * n_states
    scc_id = [-1] * n_states
    stack: List[int] = []
    next_index = 0
    next_scc = 0

    for root in range(n_states):
        if index[root] != -1:
            continue
        # Each work item is (state, iterator position into its successors).
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            v, child_pos = work.pop()
            if child_pos == 0:
                index[v] = lowlink[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            recursed = False
            succ = successors(v)
            for position in range(child_pos, len(succ)):
                w = succ[position]
                if index[w] == -1:
                    work.append((v, position + 1))
                    work.append((w, 0))
                    recursed = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if recursed:
                continue
            if lowlink[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    scc_id[w] = next_scc
                    if w == v:
                        break
                next_scc += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return scc_id


@dataclass
class Topology:
    """Topological analysis of one automaton."""

    scc_id: np.ndarray  # per-state component id
    n_sccs: int
    scc_size: np.ndarray  # per-SCC member count
    topo_order: np.ndarray  # per-state, 1-based longest-path layer
    max_order: int

    @property
    def normalized_depth(self) -> np.ndarray:
        """Per-state depth in (0, 1]; 1 is the deepest layer (paper §III-A).

        An empty automaton has ``max_order == 0``; rather than leaning on
        numpy's 0/0 semantics, the depth array is returned explicitly empty
        (every state of a non-empty automaton has order >= 1, so a zero
        ``max_order`` implies zero states).
        """
        if self.max_order == 0:
            return np.zeros(self.topo_order.shape, dtype=float)
        return self.topo_order / float(self.max_order)


def analyze_automaton(automaton: Automaton) -> Topology:
    """Compute SCCs and topological order for one automaton."""
    n = automaton.n_states
    scc = strongly_connected_components(n, automaton.successors)
    scc_arr = np.asarray(scc, dtype=np.int64)
    n_sccs = int(scc_arr.max()) + 1 if n else 0
    scc_size = np.bincount(scc_arr, minlength=n_sccs)

    # Condensation predecessor lists.  Tarjan assigns SCC ids in pop order,
    # so iterating ids from high to low visits the condensation in topological
    # order (sources first).
    preds: List[Set[int]] = [set() for _ in range(n_sccs)]
    for src, dst in automaton.edges():
        cs, cd = scc[src], scc[dst]
        if cs != cd:
            preds[cd].add(cs)

    order = np.zeros(n_sccs, dtype=np.int64)
    for component in range(n_sccs - 1, -1, -1):
        if preds[component]:
            order[component] = 1 + max(order[p] for p in preds[component])
        else:
            order[component] = 1

    topo = order[scc_arr]
    return Topology(
        scc_id=scc_arr,
        n_sccs=n_sccs,
        scc_size=scc_size,
        topo_order=topo,
        max_order=int(topo.max()) if n else 0,
    )


@dataclass
class NetworkTopology:
    """Per-state topology arrays flattened over a whole network."""

    per_automaton: List[Topology]
    topo_order: np.ndarray  # global-state topological order
    normalized_depth: np.ndarray  # global-state normalized depth
    max_topo: int  # max order across automata (Table II "MaxTopo")


def analyze_network(network: Network) -> NetworkTopology:
    """Analyze every automaton; concatenate per-state arrays in global order."""
    per = [analyze_automaton(a) for a in network.automata]
    if per:
        topo = np.concatenate([t.topo_order for t in per])
        depth = np.concatenate([t.normalized_depth for t in per])
        max_topo = max(t.max_order for t in per)
    else:
        topo = np.empty(0, dtype=np.int64)
        depth = np.empty(0, dtype=float)
        max_topo = 0
    return NetworkTopology(
        per_automaton=per, topo_order=topo, normalized_depth=depth, max_topo=max_topo
    )


def depth_buckets(normalized_depth: Sequence[float]) -> Dict[str, float]:
    """Fraction of states per Fig 5 bucket: [0, .3), [.3, .6), [.6, 1]."""
    depths = np.asarray(normalized_depth, dtype=float)
    if depths.size == 0:
        return {name: 0.0 for name in DEPTH_BUCKET_NAMES}
    shallow = float(np.mean(depths < 0.3))
    medium = float(np.mean((depths >= 0.3) & (depths < 0.6)))
    deep = float(np.mean(depths >= 0.6))
    return {"shallow": shallow, "medium": medium, "deep": deep}
