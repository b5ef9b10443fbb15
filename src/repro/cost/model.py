"""Analytic per-backend cost model over static features.

Predicts, per partition and per engine backend, the expected wall time per
input symbol — from quantities available *without running any input*:
state count, packed bit-matrix width, effective alphabet-class count, the
profile-free hot fraction from :mod:`repro.semant.predict`, and the
DFA-safety verdict of :mod:`repro.cost.explore`.

Backends modeled (the pluggable-engine set the ROADMAP's hybrid-DFA item
will make selectable per partition):

* ``reference`` — the set-based engine: cost tracks the number of *active*
  states per cycle on top of a fixed per-cycle overhead.
* ``bitpacked`` — the NFA engine on the subset core: a fixed per-symbol
  loop cost plus work per *active* state (one shifted successor OR each),
  so its cost follows activity, not the vector width; its fixed cost is a
  fraction of the reference engine's, so it wins on sparse event-driven
  (cold) partitions too.
* ``dfa`` — table-driven DFA dispatch: one lookup per symbol, independent
  of both width and activity, feasible only when subset construction was
  proven bounded and the table fits the memory budget.
* ``lazydfa`` — the bounded-subset lazy-DFA hybrid: cached-subset lookups
  at close-to-``dfa`` speed, an LRU cap instead of a safety proof, so it
  is feasible for every streaming partition.  Cost is ``lz_base`` when the
  partition is DFA-safe (the cache converges to the full table) and
  ``lz_base + lz_miss_share * bitpacked`` otherwise: a share of the
  symbols misses the cache and pays one NFA step, the share measured on
  the proven-unsafe bench apps.

Calibration (DESIGN.md §12): the default coefficients are solved from the
committed ``BENCH_engine.json`` operating point — Snort at scale 64,
1081 states (17 words) — whose measured throughputs are
0.065 / 2.354 / 12.31 / 8.53 MB/s for reference / bitpacked / dfa /
lazydfa (15.4 / 0.425 / 0.081 / 0.117 us per symbol).
:meth:`CostModel.from_engine_bench` re-derives them from any such
document, so re-benching recalibrates the model without touching code —
including ``dfa_base``, measured from the table-driven backend itself
since it landed.  Units are microseconds per input symbol; only *ratios*
matter for the advisory, which is what the cost-smoke CI check validates
(predicted-fastest vs measured-fastest agreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..nfa.symbolset import ALPHABET_SIZE

__all__ = [
    "BACKENDS",
    "STREAMING_BACKENDS",
    "DFA_TABLE_BUDGET",
    "CostFeatures",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "dfa_entry_bytes",
    "rank_backends",
]

#: Every backend the model prices, in canonical order.
BACKENDS: Tuple[str, ...] = (
    "reference",
    "bitpacked",
    "dfa",
    "lazydfa",
)

#: Backends that consume one contiguous symbol stream (no enable events).
STREAMING_BACKENDS: Tuple[str, ...] = ("dfa", "lazydfa")

#: Memory budget for a materialized DFA transition table (bytes).  A safe
#: subset count whose table would still exceed this is advised against
#: (SPAP-C004): the dtype-priced table (:func:`dfa_entry_bytes`) must fit
#: cache-adjacent memory.
DFA_TABLE_BUDGET = 32 << 20


def dfa_entry_bytes(n_dfa_states: int) -> int:
    """Bytes per transition-table entry for a DFA of ``n_dfa_states``.

    The executor (:func:`repro.sim.dfa.dfa_table_dtype`) packs successor
    ids as uint16 when they fit, uint32 otherwise; this is the same ladder
    expressed as a byte count so feasibility can be priced *before* any
    table is built.  The two must stay in lock-step — pinned by a
    cross-check in ``tests/test_dfa_backend.py``.
    """
    return 2 if n_dfa_states <= 0xFFFF else 4

# Active fraction assumed for the engines' calibration point, and the share
# of each engine's cost there that does not depend on activity — see
# DESIGN.md §12.  The reference share is an assumption; the bitpacked one
# was measured once on the 2-vCPU host: the walk costs 0.17 us per symbol
# on a 1024-state network with nothing active, about 40% of its cost at the
# calibration point.
_CAL_ACTIVE_FRACTION = 0.10
_REF_BASE_SHARE = 0.10
_BP_BASE_SHARE = 0.40


@dataclass(frozen=True)
class CostFeatures:
    """Static features of one partition, as the cost model consumes them."""

    n_states: int
    n_words: int  # ceil(n_states / 64), the packed vector width
    n_classes: int  # effective alphabet size (repro.cost.classes)
    mean_fanout: float  # edges per state
    hot_fraction: float  # profile-free predicted-active fraction (semant)
    event_driven: bool  # cold partition: enabled by SpAP events, not a stream
    dfa_safe: bool  # subset construction proven bounded (repro.cost.explore)
    dfa_states: Optional[int]  # subset-state count when safe

    @property
    def dfa_table_bytes(self) -> Optional[int]:
        """Conservative pre-build estimate: 8-byte entries.

        Deliberately pessimistic (the widest plausible entry) so it can be
        quoted before any dtype decision exists; the feasibility gate uses
        :attr:`dfa_table_bytes_actual` instead, so a DFA is never rejected
        on the basis of this over-estimate.
        """
        if self.dfa_states is None:
            return None
        return self.dfa_states * self.n_classes * 8

    @property
    def dfa_table_bytes_actual(self) -> Optional[int]:
        """Footprint with the dtype the executor would really pick.

        ``states * classes * dfa_entry_bytes(states)`` plus the symbol→
        class translation vector — the exact bytes
        ``repro.sim.dfa.CompiledDFA.table_bytes`` reports after the build.
        """
        if self.dfa_states is None:
            return None
        return (
            self.dfa_states * self.n_classes * dfa_entry_bytes(self.dfa_states)
            + ALPHABET_SIZE
        )


@dataclass(frozen=True)
class CostModel:
    """Per-backend cost coefficients (microseconds per input symbol)."""

    ref_base: float  # reference: fixed per-cycle dispatch
    ref_per_active: float  # reference: per active state per cycle
    bp_base: float  # bitpacked: fixed per-symbol loop cost
    bp_per_active: float  # bitpacked: per active state per cycle
    dfa_base: float  # dfa: one table lookup + report probe per symbol
    lz_base: float = 0.3  # lazydfa: one cached-cell chase per symbol
    lz_miss_share: float = 0.1  # lazydfa: symbols that miss when unsafe

    def predict(self, features: CostFeatures) -> Dict[str, Optional[float]]:
        """Predicted us/symbol per backend; ``None`` marks infeasible."""
        active = features.hot_fraction * features.n_states
        bitpacked = self.bp_base + self.bp_per_active * active
        costs: Dict[str, Optional[float]] = {
            "reference": self.ref_base + self.ref_per_active * active,
            "bitpacked": bitpacked,
            "dfa": None,
            "lazydfa": None,
        }
        if not features.event_driven:
            table_bytes = features.dfa_table_bytes_actual
            if (
                features.dfa_safe
                and table_bytes is not None
                and table_bytes <= DFA_TABLE_BUDGET
            ):
                costs["dfa"] = self.dfa_base
            # The hybrid needs no proof: feasible for every streaming
            # partition.  Where the explorer could not prove a bounded
            # subset space (or a proven table would burst the memory budget,
            # which the LRU absorbs), a measured share of the symbols misses
            # the cache and pays one NFA step.
            costs["lazydfa"] = (
                self.lz_base
                if costs["dfa"] is not None
                else self.lz_base + self.lz_miss_share * bitpacked
            )
        return costs

    @classmethod
    def from_engine_bench(
        cls,
        document: Mapping[str, object],
        *,
        active_fraction: float = _CAL_ACTIVE_FRACTION,
        dfa_base: Optional[float] = None,
    ) -> "CostModel":
        """Solve coefficients from a ``BENCH_engine.json``-shaped document.

        Uses the document's workload shape (states) and measured MB/s,
        under the documented active-fraction and base-share assumptions.
        ``dfa_base``
        is taken from the document's measured ``throughput_mb_s["dfa"]``
        when present (the harness times the real table-driven backend on
        the same workload); an explicit argument overrides, and documents
        predating the backend fall back to the historical 0.7 us/symbol
        placeholder.
        """
        workload = document["workload"]
        throughput = document["throughput_mb_s"]
        if not isinstance(workload, Mapping) or not isinstance(throughput, Mapping):
            raise ValueError("engine bench document missing workload/throughput_mb_s")
        n_states = int(workload["n_states"])  # type: ignore[call-overload]

        def us_per_symbol(mb_s: object) -> float:
            return 1.0 / float(mb_s)  # type: ignore[arg-type]  # 1/(MB/s) = us/B

        ref_us = us_per_symbol(throughput["reference"])
        bp_us = us_per_symbol(throughput["bitpacked"])
        if dfa_base is None:
            measured_dfa = throughput.get("dfa")
            dfa_base = us_per_symbol(measured_dfa) if measured_dfa else 0.7

        # Lazy hybrid: hit-path cost from the calibration workload (the
        # cache converges there, so this measures the cached-cell chase);
        # miss share from the harness's proven-unsafe app section, where
        # each app's time beyond the hit path is NFA steps at that app's
        # measured bitpacked cost.  Documents predating the backend fall
        # back to "4x the dfa lookup" and a 10% miss share.
        measured_lz = throughput.get("lazydfa")
        lz_base = us_per_symbol(measured_lz) if measured_lz else dfa_base * 4.0
        lz_miss_share = 0.1
        unsafe_section = document.get("lazydfa_unsafe")
        if isinstance(unsafe_section, Mapping):
            apps = unsafe_section.get("apps")
            if isinstance(apps, Sequence) and apps:
                shares = [
                    max(0.0, us_per_symbol(entry["lazydfa_mb_s"]) - lz_base)
                    / us_per_symbol(entry["bitpacked_mb_s"])
                    for entry in apps
                    if isinstance(entry, Mapping)
                    and entry.get("lazydfa_mb_s") and entry.get("bitpacked_mb_s")
                ]
                if shares:
                    lz_miss_share = sum(shares) / len(shares)

        active = max(1.0, active_fraction * n_states)
        ref_base = ref_us * _REF_BASE_SHARE
        ref_per_active = (ref_us - ref_base) / active
        bp_base = bp_us * _BP_BASE_SHARE
        bp_per_active = (bp_us - bp_base) / active
        return cls(
            ref_base=ref_base,
            ref_per_active=ref_per_active,
            bp_base=bp_base,
            bp_per_active=bp_per_active,
            dfa_base=dfa_base,
            lz_base=lz_base,
            lz_miss_share=lz_miss_share,
        )


#: Coefficients solved by :meth:`CostModel.from_engine_bench` from the
#: committed BENCH_engine.json (Snort, scale 64, 1081 states); baked as
#: literals so importing the model never reads the filesystem.
DEFAULT_COST_MODEL = CostModel(
    ref_base=1.5385,
    ref_per_active=0.12809,
    bp_base=0.16992,
    bp_per_active=0.0023579,
    dfa_base=0.081261,
    lz_base=0.11718,
    lz_miss_share=0.065433,
)


def rank_backends(
    costs: Mapping[str, Optional[float]]
) -> Tuple[Tuple[str, float], ...]:
    """Feasible backends cheapest-first, ties broken by canonical order."""
    feasible = [
        (name, cost)
        for name, cost in ((name, costs.get(name)) for name in BACKENDS)
        if cost is not None
    ]
    return tuple(sorted(feasible, key=lambda pair: (pair[1], BACKENDS.index(pair[0]))))
