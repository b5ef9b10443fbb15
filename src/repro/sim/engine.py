"""The NFA engine: one bit-parallel step loop over a network's subset core.

The engine mirrors the AP datapath cycle by cycle (paper §II-B): the input
byte selects a row of the accept matrix, an AND with the enabled state
vector yields the activated states, and the routing matrix ORs their
successors into the next enabled vector.  Here the vectors are Python
big-ints (bit ``g`` = global state ``g``) on the network's
:class:`~repro.nfa.determinize.SubsetCore`: the accept row is the byte's
class accept mask (CAMA-style class compression) and the routing OR is
one shifted successor mask per activated state, so a cycle costs work
proportional to the *activated* states, which is small for the sparse
activity this paper exploits.  The same core is the lazy DFA's miss path
and the subset walk of ``determinize`` and the cost explorer
(DESIGN.md §8).

Every reachable enabled set holds the all-input start states, so a cycle
steps only the other activated states and ORs in the class's cached start
step.

Two entry points share the one loop, :func:`_walk`:

* :func:`run` — plain streaming execution (BaseAP mode / baseline AP);
* :func:`run_events` — Algorithm 1: execution driven by the input stream
  *and* a list of (position, state) enable events, with jump-over-idle-input
  and enable-stall accounting (SpAP mode, also reused by the AP–CPU
  handler).

The lazy DFA finishes a run on the same loop, from the subset it had
reached (:mod:`repro.sim.lazydfa`).

A stream is an event run with no events: when a start-of-data network
goes quiet, :func:`run` jumps over the idle tail as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import bitops
from ..nfa.determinize import SubsetCore
from .result import Report, SimResult, reports_to_array

__all__ = ["run", "run_events", "EventRunResult", "as_input_array"]


def as_input_array(data) -> np.ndarray:
    """Normalize an input stream (bytes/str/array) to a uint8 array.

    Arrays must be one-dimensional with integer values in ``[0, 255]``;
    anything else raises ``ValueError`` instead of being silently wrapped
    mod 256 or truncated (``np.array([300, 65])`` used to become
    ``[44, 65]``, corrupting every downstream result).
    """
    if isinstance(data, np.ndarray):
        if data.ndim != 1:
            raise ValueError(f"input array must be 1-D, got shape {data.shape}")
        if data.dtype == np.uint8:
            return data
        if not np.issubdtype(data.dtype, np.integer):
            raise ValueError(
                f"input array must have an integer dtype, got {data.dtype} "
                "(floats would be silently truncated)"
            )
        if data.size and (int(data.min()) < 0 or int(data.max()) > 255):
            raise ValueError(
                f"input symbols must be in [0, 255]; got values in "
                f"[{int(data.min())}, {int(data.max())}] "
                "(uint8 conversion would wrap mod 256)"
            )
        return data.astype(np.uint8)
    if isinstance(data, str):
        data = data.encode("latin-1")
    return np.frombuffer(bytes(data), dtype=np.uint8)


def _packed(mask: int, n_states: int) -> np.ndarray:
    """A big-int state set as the packed uint64 bitset results carry."""
    n_words = bitops.num_words(max(n_states, 1))
    return np.frombuffer(mask.to_bytes(n_words * 8, "little"), dtype=np.uint64).copy()


def _walk(
    core: SubsetCore,
    classes: List[int],
    positions: Sequence[int],
    targets: Sequence[int],
    *,
    track: bool,
    count_stalls: bool,
    enabled: Optional[int] = None,
    first: int = 0,
) -> Tuple[List[Report], int, int, int, int]:
    """Step ``core`` over the symbol ``classes`` with enable events
    (Algorithm 1).

    ``positions``/``targets`` are the events, sorted by position.  The walk
    starts at position ``first`` from the ``enabled`` set (default: the
    start states).  Returns ``(reports, ever, consumed, stalls, jumps)``:
    ``ever`` ORs the enabled set of every consumed cycle when ``track`` is
    set.
    """
    n = len(classes)
    steps_of, mid_of, full_of = core.walk_masks
    start_steps = core.start_steps
    succ_masks = core.succ_masks
    succ_bases = core.succ_bases
    last = n - 1
    n_events = len(positions)

    if enabled is None:
        enabled = core.initial_mask
    ever = 0
    reports: List[Report] = []
    append = reports.append
    i = first
    j = consumed = stalls = jumps = 0
    while i < n:
        if not enabled:
            # Jump operation: skip to where the next event enables a state.
            while j < n_events and positions[j] < i:
                j += 1  # events in already-passed positions cannot fire
            if j >= n_events or positions[j] >= n:
                jumps += 1  # final jump over the idle tail [i, n)
                break
            if positions[j] > i:
                i = positions[j]
                jumps += 1
        # Enable operation: inject all events at this position.
        simultaneous = 0
        while j < n_events and positions[j] == i:
            enabled |= 1 << targets[j]
            j += 1
            simultaneous += 1
        if count_stalls and simultaneous > 1:
            stalls += simultaneous - 1
        # Consume symbols up to the next event, or until the machine goes quiet.
        stop = positions[j] if j < n_events and positions[j] < n else n
        for position in range(i, stop):
            if track:
                ever |= enabled
            cls = classes[position]
            hits = enabled & (mid_of[cls] if position != last else full_of[cls])
            while hits:
                low = hits & -hits
                append((position, low.bit_length() - 1))
                hits ^= low
            activated = enabled & steps_of[cls]
            enabled = start_steps[cls]
            while activated:
                low = activated & -activated
                gid = low.bit_length() - 1
                enabled |= succ_masks[gid] << succ_bases[gid]
                activated ^= low
            if not enabled:
                stop = position + 1
                break
        consumed += stop - i
        i = stop
    return reports, ever, consumed, stalls, jumps


def run(
    core: SubsetCore,
    input_data,
    *,
    track_enabled: bool = True,
) -> SimResult:
    """Stream the whole input through the network (BaseAP semantics).

    ``ever_enabled`` accumulates the enabled vector at each cycle in which a
    symbol is consumed — the paper's hot set.
    """
    symbols = as_input_array(input_data)
    reports, ever, _consumed, _stalls, _jumps = _walk(
        core, core.class_of[symbols].tolist(), (), (),
        track=track_enabled, count_stalls=False,
    )
    return SimResult(
        n_states=core.n_states,
        n_symbols=int(symbols.size),
        cycles=int(symbols.size),
        reports=reports_to_array(reports),
        ever_enabled=_packed(ever, core.n_states),
    )


@dataclass
class EventRunResult:
    """Outcome of an event-driven (SpAP-style) run.

    ``consumed_cycles`` counts cycles that processed an input symbol;
    ``stall_cycles`` counts enable stalls from simultaneous events (k
    simultaneous enables cost k-1 extra cycles, §V-B); ``total_cycles`` is
    their sum — the SpAP-mode execution time in cycles.  ``jumps`` counts
    jump operations, including the final jump over an idle tail when the
    machine goes quiet before the end of the input.
    """

    n_states: int
    n_symbols: int
    consumed_cycles: int
    stall_cycles: int
    jumps: int
    reports: np.ndarray
    ever_enabled: np.ndarray

    @property
    def total_cycles(self) -> int:
        return self.consumed_cycles + self.stall_cycles

    def jump_ratio(self) -> float:
        """Proportion of input cycles skipped, in ``[0, 1]``.

        Defined as ``1 - total_cycles / n_symbols`` clamped below at zero:
        in stall-dominated runs (enable stalls exceeding skipped cycles,
        e.g. many simultaneous enables on a short input) ``total_cycles``
        can exceed the input length, and the unclamped value would be a
        meaningless negative "proportion".  A clamped 0.0 reads as "nothing
        was saved by jumping", which is the honest summary of such runs;
        use ``total_cycles`` directly when the overshoot itself matters.
        """
        if self.n_symbols == 0:
            return 0.0
        return max(0.0, 1.0 - self.total_cycles / float(self.n_symbols))


def run_events(
    core: SubsetCore,
    input_data,
    events: Optional[Sequence] = None,
    *,
    count_stalls: bool = True,
    track_enabled: bool = False,
) -> EventRunResult:
    """Algorithm 1: event-driven execution with jump and enable operations.

    ``events`` is a sequence of ``(position, global_state)`` pairs sorted by
    position; each enables ``global_state`` just before ``input[position]``
    is matched.  Events at ``position == len(input)`` have nothing left to
    match and are ignored.  Start states of the network participate
    normally (a cold partition usually has none).
    """
    symbols = as_input_array(input_data)
    event_array = reports_to_array(events if events is not None else [])
    positions = event_array[:, 0]
    targets = event_array[:, 1]
    if positions.size:
        if positions.min() < 0:
            raise ValueError(f"negative event position: {int(positions.min())}")
        if targets.min() < 0 or targets.max() >= core.n_states:
            raise ValueError(
                f"event targets must be in [0, {core.n_states}); "
                f"got {int(targets.min())}..{int(targets.max())}"
            )
    reports, ever, consumed, stalls, jumps = _walk(
        core, core.class_of[symbols].tolist(), positions.tolist(), targets.tolist(),
        track=track_enabled, count_stalls=count_stalls,
    )
    return EventRunResult(
        n_states=core.n_states,
        n_symbols=int(symbols.size),
        consumed_cycles=consumed,
        stall_cycles=stalls,
        jumps=jumps,
        reports=reports_to_array(reports),
        ever_enabled=_packed(ever, core.n_states),
    )
