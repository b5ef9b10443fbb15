"""Backward-bisimulation partition refinement over homogeneous NFAs.

The reducer's one merge rule is the classical backward bisimulation
quotient, specialized to the AP's homogeneous execution semantics
(symbol-set on the state, edge ``u -> v`` meaning "``u`` activated =>
``v`` enabled next cycle"): two states are equivalent iff they are
*enabled at exactly the same input positions* on every input.
Enabledness at position ``t+1`` is determined by the start kind plus the
set of predecessors activated at ``t``; activation of a predecessor
depends only on its enabledness and its symbol-set — both class
functions once the initial partition keys on the full attribute tuple.
The per-round signature therefore reduces to the *set of predecessor
classes*, with ``ALL_INPUT`` starts held constant (they are enabled at
every position regardless of predecessors).  Merging a class changes
neither reports nor witness (ever-enabled) masks: the quotient state is
enabled exactly when every member would have been.

:func:`refine_backward` iterates :func:`refinement_round` to a fixpoint.
Classes only ever split, so the loop terminates in at most ``n_states``
rounds; the output partition is the *coarsest* stable refinement of the
initial attribute partition, which makes the quotient idempotent
(reducing a reduced automaton finds only singleton classes).

``pinned`` states (e.g. STEs referenced by :class:`~repro.nfa.elements`
counter/gate signals, whose individual activations are externally
observable) are forced into singleton classes and thus never merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..nfa.automaton import Automaton, StartKind, State

__all__ = [
    "Partition",
    "initial_partition",
    "refinement_round",
    "refine_backward",
]

#: One refinement signature: (current class, frozen set of predecessor
#: classes).  ``None`` marks states whose enabledness ignores their
#: predecessors (``ALL_INPUT`` starts).
_Signature = Tuple[int, Optional[FrozenSet[int]]]


@dataclass(frozen=True)
class Partition:
    """A partition of one automaton's states into equivalence classes.

    Class ids are dense and canonical: classes are numbered by their first
    member in state-id order, so the representative of class ``c`` is its
    minimum state id and ``class_of`` is identical for equal partitions.
    """

    class_of: Tuple[int, ...]
    n_classes: int

    @property
    def n_states(self) -> int:
        return len(self.class_of)

    @property
    def n_merged(self) -> int:
        """States eliminated if every class collapses to one survivor."""
        return self.n_states - self.n_classes

    def members(self) -> List[List[int]]:
        """Class id -> sorted member state ids."""
        out: List[List[int]] = [[] for _ in range(self.n_classes)]
        for sid, cid in enumerate(self.class_of):
            out[cid].append(sid)
        return out

    def representatives(self) -> List[int]:
        """Class id -> minimum member state id (the canonical survivor)."""
        reps: List[int] = [-1] * self.n_classes
        for sid, cid in enumerate(self.class_of):
            if reps[cid] < 0:
                reps[cid] = sid
        return reps


def _canonical(class_of: Sequence[int]) -> Partition:
    """Renumber class ids by first occurrence in state-id order."""
    remap: Dict[int, int] = {}
    out: List[int] = []
    for cid in class_of:
        out.append(remap.setdefault(cid, len(remap)))
    return Partition(class_of=tuple(out), n_classes=len(remap))


def _attribute_key(state: State) -> Tuple[object, ...]:
    """The full behavioral attribute tuple of one STE.

    Everything the execution semantics reads off a state is here: symbol
    mask (activation condition), start kind (base enabledness), reporting /
    report code / eod (observable output).  Two states may only ever share a
    class if they agree on all of it.
    """
    return (
        state.symbol_set.mask,
        state.start.value,
        state.reporting,
        state.report_code,
        state.eod,
    )


def initial_partition(
    automaton: Automaton, pinned: Optional[Iterable[int]] = None
) -> Partition:
    """Partition states by their attribute tuple; pinned states are singletons."""
    pinned_set: Set[int] = set(pinned or ())
    keys: Dict[Tuple[object, ...], int] = {}
    class_of: List[int] = []
    for state in automaton.states():
        key = _attribute_key(state)
        if state.sid in pinned_set:
            key = key + ("pinned", state.sid)
        class_of.append(keys.setdefault(key, len(keys)))
    return _canonical(class_of)


def refinement_round(automaton: Automaton, class_of: Sequence[int]) -> Partition:
    """One signature-splitting round from an arbitrary starting partition.

    Exposed separately so property tests can check the fixpoint law: a
    round applied to :func:`refine_backward`'s output must leave the
    number of classes unchanged.
    """
    if len(class_of) != automaton.n_states:
        raise ValueError(
            f"partition covers {len(class_of)} states, "
            f"automaton has {automaton.n_states}"
        )
    signatures: Dict[_Signature, int] = {}
    refined: List[int] = []
    for state, preds in zip(automaton.states(), automaton.predecessors_map()):
        # An ALL_INPUT start is enabled at every position no matter what its
        # predecessors do, so its signature must not split on them.
        if state.start is StartKind.ALL_INPUT:
            signature: _Signature = (class_of[state.sid], None)
        else:
            signature = (
                class_of[state.sid],
                frozenset(class_of[u] for u in preds),
            )
        refined.append(signatures.setdefault(signature, len(signatures)))
    return _canonical(refined)


def refine_backward(
    automaton: Automaton, pinned: Optional[Iterable[int]] = None
) -> Partition:
    """Coarsest backward-bisimulation partition (enabled-at-same-positions).

    Merging each class is exact for reports *and* witness masks: by
    induction on the input position, every member of a class is enabled at
    exactly the same positions (base case: identical start kinds; step:
    enabledness at ``t+1`` is a function of the predecessor *class* set,
    because activation of a predecessor at ``t`` depends only on its class's
    shared enabledness and shared symbol mask).
    """
    partition = initial_partition(automaton, pinned)
    while True:
        refined = refinement_round(automaton, partition.class_of)
        if refined.n_classes == partition.n_classes:
            return partition
        partition = refined
