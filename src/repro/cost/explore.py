"""Budgeted subset-construction exploration: DFA-safety proofs.

"Deterministic vs. Non-Deterministic Finite Automata in Automata
Processing" (PAPERS.md) shows a DFA backend only pays off when subset
construction stays bounded; this module decides that *statically*, per
partition, without ever materializing a transition table.

The explorer is :func:`repro.nfa.determinize.determinize`'s own walk
through the same :class:`~repro.nfa.determinize.SubsetCore` (one AND and
one ``step`` per subset and class), breadth-first and keeping no rows — so
its verdict is a proof about that function, not about a reimplementation
that could drift:

* ``dfa_safe=True`` means the set of reachable subset states was exhausted
  and its size is ``n_subset_states <= budget``.  Reachability of subsets
  is independent of worklist order, so ``determinize(network,
  max_states=budget)`` is guaranteed to succeed with exactly
  ``n_subset_states`` DFA states (the soundness gate in
  ``tests/test_cost.py`` replays this claim across the corpus).
* ``dfa_safe=False`` reports the growth frontier instead: how many subsets
  had been discovered when the budget burst, at which BFS depth, and the
  largest subset seen (the blowup witness).

Without report or transition rows, exploration costs one set insertion
per discovered subset beyond the walk itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Set, Tuple

from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core

__all__ = ["DEFAULT_DFA_BUDGET", "SubsetExploration", "explore_subset_construction"]

#: Default subset-state budget: small enough that a safe partition's table
#: (budget x classes x 8 B) stays cache-resident, large enough to admit the
#: trie-shaped hot partitions whose subset space is near-linear.
DEFAULT_DFA_BUDGET = 4096


@dataclass(frozen=True)
class SubsetExploration:
    """Outcome of one budgeted subset-construction walk.

    When ``dfa_safe``, ``n_subset_states`` is exactly the DFA state count
    ``determinize`` would produce.  Otherwise it is the number of distinct
    subsets discovered when the budget burst (``budget + 1``), and
    ``frontier_depth`` is the BFS depth (symbols consumed from the initial
    subset) at which that happened.
    """

    dfa_safe: bool
    budget: int
    n_subset_states: int
    n_classes: int
    n_nfa_states: int
    max_subset_size: int  # largest |subset| seen: the blowup witness
    frontier_depth: Optional[int]  # None when the walk completed

    def describe(self) -> str:
        if self.dfa_safe:
            return (
                f"DFA-safe: {self.n_subset_states} subset states "
                f"<= budget {self.budget} ({self.n_classes} classes)"
            )
        return (
            f"budget {self.budget} exceeded: >{self.budget} subsets at "
            f"BFS depth {self.frontier_depth} "
            f"(largest subset {self.max_subset_size}/{self.n_nfa_states} states)"
        )


def explore_subset_construction(
    network: Network,
    *,
    budget: int = DEFAULT_DFA_BUDGET,
    core: Optional[SubsetCore] = None,
) -> SubsetExploration:
    """Walk the reachable subset states, counting, up to ``budget``.

    Breadth-first from the initial subset, so a burst budget reports the
    shallowest growth frontier.  Returns a :class:`SubsetExploration`;
    never raises on blowup (that is the result, not an error).  ``core``
    is ``network``'s subset core when the caller already holds it.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if core is None:
        core = subset_core(network)
    step = core.step
    moving = ~core.always_mask
    classes = [
        (accept & moving, start)
        for accept, start in zip(core.accept_masks, core.start_steps)
    ]
    seen: Set[int] = {core.initial_mask}
    frontier: Deque[Tuple[int, int]] = deque([(core.initial_mask, 0)])
    max_subset_size = bin(core.initial_mask).count("1")

    while frontier:
        current, depth = frontier.popleft()
        for accept, start in classes:
            stepping = current & accept
            nxt = step(stepping) | start if stepping else start
            if nxt not in seen:
                if len(seen) >= budget:
                    return SubsetExploration(
                        dfa_safe=False,
                        budget=budget,
                        n_subset_states=len(seen) + 1,
                        n_classes=core.n_classes,
                        n_nfa_states=core.n_states,
                        max_subset_size=max_subset_size,
                        frontier_depth=depth + 1,
                    )
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
                size = bin(nxt).count("1")
                if size > max_subset_size:
                    max_subset_size = size
    return SubsetExploration(
        dfa_safe=True,
        budget=budget,
        n_subset_states=len(seen),
        n_classes=core.n_classes,
        n_nfa_states=core.n_states,
        max_subset_size=max_subset_size,
        frontier_depth=None,
    )
