"""Equivalence-preserving network reduction (the SPAP-R transform).

``reduce_network`` applies two rules in one pass over a
:class:`~repro.nfa.automaton.Network`, emitting a smaller network together
with a per-merge :class:`MergeProof` artifact and a state-mapping table so
every downstream consumer (witness masks, Table I truth comparisons,
report streams) can be lifted back to original global state ids:

* **dead-strip** — drop states semant's forward abstract interpretation
  proves unenableable (``SemanticFacts.statically_dead``).  A state that
  is never enabled contributes no report and its witness bit is
  identically zero; its out-edges never fire, so dropping them (via
  ``Automaton.induced``) changes nothing.
* **backward-bisim merge** — quotient each automaton by
  :func:`~repro.reduce.partition.refine_backward`.  All members of a class
  are enabled at identical positions, so the expansion lift reconstructs
  the parent run bit for bit.

Both rules are exact: lifted reports *and* witness masks are
bit-identical to the parent's.

Automata left empty by stripping are removed from the reduced network
(``dropped_automata``); their states map to ``-1`` like any stripped
state.  ``reduce_element_network`` extends the transform to
:class:`~repro.nfa.elements.ElementNetwork`: STEs referenced by counter or
gate signals, and STEs enabled by element outputs, are *pinned* — kept
and never merged — because their individual activations cross the gate
boundary (DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .. import bitops
from ..nfa.automaton import Automaton, Network, StartKind
from ..nfa.elements import Counter, ElementNetwork, Gate, Signal
from ..semant.absint import SemanticFacts, analyze_network_semantics
from ..sim.result import SimResult, reports_to_array
from .partition import Partition, refine_backward

__all__ = [
    "RULE_DEAD",
    "RULE_BACKWARD",
    "MergeProof",
    "ReductionResult",
    "reduce_network",
    "element_pinned_gids",
    "reduce_element_network",
]

RULE_DEAD = "dead-strip"
RULE_BACKWARD = "backward-bisim"


@dataclass(frozen=True)
class MergeProof:
    """Why one group of parent states collapsed (or vanished).

    ``survivor`` is the reduced global id the group maps to, or ``-1`` for
    strip rules.  ``parent_states`` are parent global ids.
    """

    rule: str
    automaton: int
    parent_states: Tuple[int, ...]
    survivor: int
    reason: str

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "automaton": self.automaton,
            "parent_states": list(self.parent_states),
            "survivor": self.survivor,
            "reason": self.reason,
        }


@dataclass
class ReductionResult:
    """A reduced network plus everything needed to lift results back.

    ``state_map`` maps parent global ids to reduced global ids (``-1`` for
    stripped states); ``members`` is the inverse cover (reduced global id
    -> parent global ids, ascending).
    """

    parent: Network
    network: Network
    state_map: np.ndarray
    members: Tuple[Tuple[int, ...], ...]
    proofs: Tuple[MergeProof, ...]
    n_dead_stripped: int
    n_backward_merged: int
    dropped_automata: Tuple[int, ...]

    # -- accounting ----------------------------------------------------------

    @property
    def parent_n_states(self) -> int:
        return int(self.state_map.size)

    @property
    def n_states(self) -> int:
        return self.network.n_states

    @property
    def saved_states(self) -> int:
        return self.parent_n_states - self.n_states

    @property
    def saving_fraction(self) -> float:
        if self.parent_n_states == 0:
            return 0.0
        return self.saved_states / float(self.parent_n_states)

    def merges_by_rule(self) -> Dict[str, int]:
        """States eliminated per rule."""
        return {
            RULE_DEAD: self.n_dead_stripped,
            RULE_BACKWARD: self.n_backward_merged,
        }

    def to_json(self) -> Dict[str, object]:
        return {
            "states_before": self.parent_n_states,
            "states_after": self.n_states,
            "saved_states": self.saved_states,
            "saving": self.saving_fraction,
            "merges": self.merges_by_rule(),
            "dropped_automata": list(self.dropped_automata),
            "proofs": [proof.to_json() for proof in self.proofs],
        }

    # -- lifting -------------------------------------------------------------

    def lift_reports(self, reports: np.ndarray) -> np.ndarray:
        """Expand reduced-id reports to parent-id reports.

        The members of a backward class fire at identical positions with
        identical report attributes, so one reduced report expands to one
        report per member.
        """
        arr = reports_to_array(reports)
        if arr.size == 0:
            return arr
        lifted: List[Tuple[int, int]] = []
        for position, reduced_gid in arr.tolist():
            for parent_gid in self.members[reduced_gid]:
                lifted.append((position, parent_gid))
        return reports_to_array(lifted)

    def lift_witness(self, ever_enabled: np.ndarray) -> np.ndarray:
        """Lift a packed reduced witness bitset to parent global ids.

        Bit-exact: each member shares its class's enabledness, and
        stripped states were provably never enabled.
        """
        parent_n = self.parent_n_states
        reduced_bits = bitops.to_bool(ever_enabled, self.n_states)
        parent_bits = np.zeros(parent_n, dtype=bool)
        kept = self.state_map >= 0
        parent_bits[kept] = reduced_bits[self.state_map[kept]]
        return bitops.from_bool(parent_bits)

    def lift_result(self, result: SimResult) -> SimResult:
        """Lift a reduced-network :class:`SimResult` into parent id space."""
        return SimResult(
            n_states=self.parent_n_states,
            n_symbols=result.n_symbols,
            cycles=result.cycles,
            reports=self.lift_reports(result.reports),
            ever_enabled=self.lift_witness(result.ever_enabled),
        )


def _quotient(automaton: Automaton, partition: Partition) -> Automaton:
    """Collapse each class to its minimum-id representative.

    The representative donates every attribute; this is sound because a
    class's members share the full attribute key by construction (see
    ``partition._attribute_key``).  Class ids are canonical (numbered by
    first member), so state ``c`` of the quotient IS class ``c``.
    """
    representatives = partition.representatives()
    out = Automaton(automaton.name)
    for rep in representatives:
        s = automaton.state(rep)
        out.add_state(
            s.symbol_set,
            start=s.start,
            reporting=s.reporting,
            report_code=s.report_code,
            eod=s.eod,
            label=s.label,
        )
    for src, dst in automaton.edges():
        out.add_edge(partition.class_of[src], partition.class_of[dst])
    return out


def reduce_network(
    network: Network,
    facts: Optional[SemanticFacts] = None,
    *,
    pinned: Optional[Iterable[int]] = None,
) -> ReductionResult:
    """Reduce a network; see the module docstring for the two rules.

    ``facts`` defaults to a fresh :func:`analyze_network_semantics` pass.
    ``pinned`` global ids are kept verbatim and never merged (used for
    gate-boundary STEs; empty on the plain pipeline path).
    """
    if facts is None:
        facts = analyze_network_semantics(network)
    offsets = network.offsets()
    pinned_gids: Set[int] = set(pinned or ())
    for gid in pinned_gids:
        if not 0 <= gid < network.n_states:
            raise IndexError(f"pinned global id {gid} outside network")

    state_map = np.full(network.n_states, -1, dtype=np.int64)
    reduced_automata: List[Automaton] = []
    members: List[Tuple[int, ...]] = []
    proofs: List[MergeProof] = []
    dropped: List[int] = []
    n_dead = n_backward = 0
    reduced_base = 0

    for a_idx, automaton in enumerate(network.automata):
        n = automaton.n_states
        base = offsets[a_idx]
        auto_facts = facts.per_automaton[a_idx]
        pinned_local = sorted(
            gid - base for gid in pinned_gids if base <= gid < base + n
        )

        # -- dead strip -----------------------------------------------------
        keep = auto_facts.enableable.copy()
        for sid in pinned_local:
            keep[sid] = True
        dead = [sid for sid in range(n) if not keep[sid]]
        keep_ids = [sid for sid in range(n) if keep[sid]]
        # Corner: a pinned-but-dead STE can survive alone; re-add the start
        # states so the reduced automaton stays structurally valid (starts
        # are always enableable, so this only fires in that pinned corner).
        if keep_ids and not any(automaton.state(sid).is_start for sid in keep_ids):
            for sid in automaton.start_states():
                keep[sid] = True
                if sid in dead:
                    dead.remove(sid)
            keep_ids = [sid for sid in range(n) if keep[sid]]
        n_dead += len(dead)
        if dead:
            proofs.append(
                MergeProof(
                    rule=RULE_DEAD,
                    automaton=a_idx,
                    parent_states=tuple(base + sid for sid in dead),
                    survivor=-1,
                    reason="inflow = ∅: no input string ever enables these states",
                )
            )
        if not keep_ids:
            dropped.append(a_idx)
            continue

        induced, old_to_new = automaton.induced(keep_ids)

        # -- backward-bisimulation quotient ----------------------------------
        pinned_induced = {old_to_new[sid] for sid in pinned_local if keep[sid]}
        bpart = refine_backward(induced, pinned_induced)
        n_backward += bpart.n_merged
        merged = _quotient(induced, bpart)
        merged.validate()

        # -- mapping + merge proofs -----------------------------------------
        local_members: List[List[int]] = [[] for _ in range(merged.n_states)]
        for sid in keep_ids:
            local = bpart.class_of[old_to_new[sid]]
            state_map[base + sid] = reduced_base + local
            local_members[local].append(base + sid)
        for group in bpart.members():
            if len(group) > 1:
                parent_ids = tuple(base + keep_ids[new_sid] for new_sid in group)
                proofs.append(
                    MergeProof(
                        rule=RULE_BACKWARD,
                        automaton=a_idx,
                        parent_states=parent_ids,
                        survivor=int(state_map[parent_ids[0]]),
                        reason="enabled at identical positions on every input "
                        "(backward bisimulation fixpoint)",
                    )
                )
        members.extend(tuple(group) for group in local_members)
        reduced_automata.append(merged)
        reduced_base += merged.n_states

    reduced = Network(
        name=f"{network.name}:reduced" if network.name else "reduced",
        automata=reduced_automata,
    )
    return ReductionResult(
        parent=network,
        network=reduced,
        state_map=state_map,
        members=tuple(members),
        proofs=tuple(proofs),
        n_dead_stripped=n_dead,
        n_backward_merged=n_backward,
        dropped_automata=tuple(dropped),
    )


def element_pinned_gids(element_network: ElementNetwork) -> FrozenSet[int]:
    """STE global ids that cross a counter/gate boundary.

    Covers both directions: STEs whose *activation* feeds an element input
    signal, and STEs an element output *enables* for the next cycle.  Both
    kinds have externally-visible or externally-driven behavior the pure
    NFA analysis cannot see, so the reducer must keep them verbatim.
    """
    pins: Set[int] = set()
    for element in element_network.elements:
        signals: List[Signal]
        if isinstance(element, Gate):
            signals = list(element.inputs)
        elif isinstance(element, Counter):
            signals = list(element.count_inputs) + list(element.reset_inputs)
        else:  # pragma: no cover - ElementNetwork validates construction
            raise TypeError(f"unknown element type {type(element).__name__}")
        for kind, index in signals:
            if kind == "ste":
                pins.add(index)
    for targets in element_network.enables.values():
        pins.update(targets)
    return frozenset(pins)


def reduce_element_network(
    element_network: ElementNetwork,
) -> Tuple[ElementNetwork, ReductionResult]:
    """Reduce the STE substrate of an :class:`ElementNetwork`.

    Gate-boundary STEs (see :func:`element_pinned_gids`) are pinned.
    Element-*enabled* STEs additionally gain an enable source the NFA-only
    abstract interpretation cannot model, so the semantic facts are
    computed on a shadow network where those targets are promoted to
    ``ALL_INPUT`` starts — a sound over-approximation of "may be enabled
    at any position by an element".  Elements and enable lists are
    rewritten through the state map (pinned STEs are always kept, so every
    referenced id survives).
    """
    network = element_network.network
    pins = element_pinned_gids(element_network)

    enable_targets: Set[int] = set()
    for targets in element_network.enables.values():
        enable_targets.update(targets)
    shadow = Network(name=network.name, automata=[a.copy() for a in network.automata])
    for gid in enable_targets:
        a_idx, sid = shadow.locate(gid)
        state = shadow.automata[a_idx].state(sid)
        if state.start is StartKind.NONE:
            state.start = StartKind.ALL_INPUT
    facts = analyze_network_semantics(shadow)

    reduction = reduce_network(network, facts, pinned=pins)
    mapping = reduction.state_map

    def _remap_signal(signal: Signal) -> Signal:
        kind, index = signal
        if kind != "ste":
            return signal
        new_index = int(mapping[index])
        assert new_index >= 0, f"pinned STE {index} was stripped"
        return (kind, new_index)

    elements: List[object] = []
    for element in element_network.elements:
        if isinstance(element, Gate):
            elements.append(
                Gate(
                    kind=element.kind,
                    inputs=[_remap_signal(s) for s in element.inputs],
                    reporting=element.reporting,
                    report_code=element.report_code,
                )
            )
        else:
            assert isinstance(element, Counter)
            elements.append(
                Counter(
                    target=element.target,
                    mode=element.mode,
                    count_inputs=[_remap_signal(s) for s in element.count_inputs],
                    reset_inputs=[_remap_signal(s) for s in element.reset_inputs],
                    reporting=element.reporting,
                    report_code=element.report_code,
                )
            )
    enables = {
        element_id: [int(mapping[gid]) for gid in targets]
        for element_id, targets in element_network.enables.items()
    }
    reduced = ElementNetwork(
        network=reduction.network, elements=elements, enables=enables
    )
    return reduced, reduction
