"""Profiling-based hot/cold state prediction (paper §IV-A, §IV-B).

At compile time the application is functionally simulated over a small
profiling input; every state enabled during that run is *predicted hot*.
The per-NFA partition layer ``k_U`` is the maximum topological order among
the NFA's predicted-hot states, so the predicted hot set is exactly
``{s : topoorder(s) <= k_U}`` — a prefix of layers, which guarantees the
hot-to-cold crossing edges are unidirectional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..nfa.analysis import NetworkTopology, analyze_network
from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core
from ..sim.engine import run

__all__ = ["ProfileResult", "profile_network", "choose_partition_layers", "split_input"]


@dataclass
class ProfileResult:
    """Outcome of a profiling run.

    ``hot_mask`` flags states enabled under the profiling input;
    ``layers[u]`` is the partition layer ``k_U`` for automaton ``u``;
    ``predicted_hot_mask`` is the layer-closed prediction actually used for
    partitioning (every state at or above its NFA's partition layer).
    """

    hot_mask: np.ndarray  # bool per parent global state: enabled while profiling
    layers: np.ndarray  # int per automaton: k_U
    predicted_hot_mask: np.ndarray  # bool: topo_order <= k_U (layer closure)

    @property
    def n_predicted_hot(self) -> int:
        return int(self.predicted_hot_mask.sum())


def choose_partition_layers(
    network: Network, topology: NetworkTopology, hot_mask: np.ndarray
) -> np.ndarray:
    """Per-NFA ``k_U`` = max topological order among hot states (min 1).

    Start states are enabled at position 0 at the latest, so a profiled NFA
    always has a hot state; a defensive floor of 1 keeps starts in the hot
    partition even for degenerate (empty) profiling inputs.
    """
    hot = np.asarray(hot_mask, dtype=bool)
    if hot.shape != (network.n_states,):
        raise ValueError(f"hot mask has shape {hot.shape}, expected ({network.n_states},)")
    layers = np.ones(network.n_automata, dtype=np.int64)
    offsets = network.offsets()
    for index, automaton in enumerate(network.automata):
        base = offsets[index]
        local_hot = hot[base : base + automaton.n_states]
        if local_hot.any():
            orders = topology.per_automaton[index].topo_order
            layers[index] = int(orders[local_hot].max())
    return layers


def layer_closure_mask(
    network: Network, topology: NetworkTopology, layers: np.ndarray
) -> np.ndarray:
    """Boolean mask of states with ``topo_order <= k_U`` for their NFA."""
    mask = np.zeros(network.n_states, dtype=bool)
    offsets = network.offsets()
    for index, automaton in enumerate(network.automata):
        base = offsets[index]
        orders = topology.per_automaton[index].topo_order
        mask[base : base + automaton.n_states] = orders <= layers[index]
    return mask


def profile_network(
    network: Network,
    profiling_input,
    *,
    topology: Optional[NetworkTopology] = None,
    core: Optional[SubsetCore] = None,
) -> ProfileResult:
    """Run the profiling input and derive partition layers.

    ``core`` is ``network``'s subset core when the caller already holds it.
    """
    if topology is None:
        topology = analyze_network(network)
    if core is None:
        core = subset_core(network)
    result = run(core, profiling_input, track_enabled=True)
    hot_mask = result.hot_mask()
    layers = choose_partition_layers(network, topology, hot_mask)
    predicted = layer_closure_mask(network, topology, layers)
    return ProfileResult(hot_mask=hot_mask, layers=layers, predicted_hot_mask=predicted)


def split_input(data, profile_fraction: float):
    """Split an input stream per the paper's methodology (§IV-A).

    The first half of the stream is the profiling pool and the second half is
    the test input; ``profile_fraction`` (e.g. 0.01 for "1% of the entire
    input") selects a prefix of the pool of ``fraction * len(data)`` symbols,
    floored at 1 symbol.  Returns ``(profiling_input, test_input)``.
    """
    if not 0.0 < profile_fraction <= 0.5:
        raise ValueError(f"profile fraction must be in (0, 0.5], got {profile_fraction}")
    n = len(data)
    half = n // 2
    if half < 1:
        # The 1-symbol floor below would otherwise be clamped back to
        # ``half == 0``, silently profiling an empty input.
        raise ValueError(
            f"input of {n} symbols is too short to split; need at least 2 "
            "(1 profiling symbol + 1 test symbol)"
        )
    take = max(1, int(round(n * profile_fraction)))
    if take > half:
        take = half
    return data[:take], data[half:]
