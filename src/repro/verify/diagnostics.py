"""Diagnostics core for the static verifier.

Every analysis pass reports through this module: a :class:`Diagnostic` is one
finding (a stable rule code, a severity, a message, and a fix hint), and a
:class:`VerificationReport` collects the findings of one or more passes over
one subject (a network, a partition, a batch plan, or a whole application).

Rule codes are stable identifiers of the form ``SPAP-<pass><number>``
(``N`` = network lint, ``P`` = partition checker, ``B`` = batch-plan
checker, ``S`` = semantic differential checker, emitted by
``repro.semant``).  The :data:`RULES` registry is the single source of truth for
their titles, default severities, fix hints, and the paper section each one
enforces; DESIGN.md appendix B is generated from the same data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Severity",
    "Rule",
    "RULES",
    "Diagnostic",
    "VerificationReport",
    "VerificationError",
    "merge_reports",
]


class Severity(enum.IntEnum):
    """How bad a finding is; only ``ERROR`` fails verification."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One verification rule: stable code, meaning, and provenance."""

    code: str
    title: str
    severity: Severity
    paper: str  # the paper section whose invariant this rule enforces
    hint: str


def _rules(*rules: Rule) -> Dict[str, Rule]:
    out: Dict[str, Rule] = {}
    for rule in rules:
        if rule.code in out:
            raise ValueError(f"duplicate rule code {rule.code}")
        out[rule.code] = rule
    return out


#: Registry of every rule the verifier can emit, keyed by stable code.
RULES: Dict[str, Rule] = _rules(
    # -- network lint (repro.verify.network) ----------------------------------
    Rule(
        "SPAP-N001",
        "dangling transition target",
        Severity.ERROR,
        "§II-A",
        "every edge must point at an existing state id; rebuild the automaton "
        "through Automaton.add_edge, which validates targets",
    ),
    Rule(
        "SPAP-N002",
        "empty symbol-set",
        Severity.ERROR,
        "§II-A",
        "a state matching no symbol can never activate; drop the state or fix "
        "the symbol-set construction",
    ),
    Rule(
        "SPAP-N003",
        "automaton has no start state",
        Severity.ERROR,
        "§II-A",
        "mark at least one state StartKind.ALL_INPUT or START_OF_DATA",
    ),
    Rule(
        "SPAP-N004",
        "unreachable state",
        Severity.WARNING,
        "§III-A",
        "the state can never be enabled from any start state; it wastes an STE "
        "— remove it or add the missing edge",
    ),
    Rule(
        "SPAP-N005",
        "dead (report-unreachable) state",
        Severity.WARNING,
        "§III-A",
        "no reporting state is reachable from here, so its activity can never "
        "be observed; remove it or mark the intended reporter",
    ),
    Rule(
        "SPAP-N006",
        "mixed start kinds in one automaton",
        Severity.WARNING,
        "§IV-A",
        "mixing all-input and start-of-data starts in one NFA makes the paper's"
        " footnote-2 input split ambiguous; use one kind per automaton",
    ),
    Rule(
        "SPAP-N007",
        "eod flag on a non-reporting state",
        Severity.WARNING,
        "§II-A",
        "end-of-data only restricts *reporting*; the flag has no effect on a "
        "non-reporting state and likely marks a construction bug",
    ),
    Rule(
        "SPAP-N008",
        "state id out of sync with its index",
        Severity.ERROR,
        "§II-A",
        "State.sid must equal the state's position in the automaton; ids are "
        "assigned by Automaton.add_state and must not be reused or edited",
    ),
    Rule(
        "SPAP-N009",
        "automaton has no states",
        Severity.ERROR,
        "§II-A",
        "an empty automaton cannot be placed; drop it from the network",
    ),
    Rule(
        "SPAP-N010",
        "automaton has no reporting state",
        Severity.WARNING,
        "§II-A",
        "a pattern that can never report does no observable work; mark its "
        "accepting states reporting=True",
    ),
    # -- partition checker (repro.verify.partition) ---------------------------
    Rule(
        "SPAP-P001",
        "SCC split across the hot/cold cut",
        Severity.ERROR,
        "§IV-C",
        "partition layers must be chosen on the SCC condensation so a cycle "
        "is entirely hot or entirely cold; recompute the topological orders",
    ),
    Rule(
        "SPAP-P002",
        "crossing edge points cold→hot",
        Severity.ERROR,
        "§IV-C",
        "every cut edge must point hot→cold; a cold→hot back-edge "
        "means the cut is not a topological cut of the condensation",
    ),
    Rule(
        "SPAP-P003",
        "cut-edge target lacks an intermediate reporting state",
        Severity.ERROR,
        "§IV-C",
        "every cold target of a cut edge needs an intermediate reporting state "
        "in the hot partition with a translation-table entry, or SpAP mode "
        "will never enable the cold side",
    ),
    Rule(
        "SPAP-P004",
        "intermediate symbol-set differs from its cold target",
        Severity.ERROR,
        "§IV-C",
        "an intermediate state must accept exactly what its cold target "
        "accepts; otherwise the recorded report positions are wrong",
    ),
    Rule(
        "SPAP-P005",
        "translation table inconsistent with intermediate flags",
        Severity.ERROR,
        "§V-A",
        "translation keys must be exactly the hot states flagged intermediate, "
        "and every value must be a valid cold global id",
    ),
    Rule(
        "SPAP-P006",
        "intermediate report code outside a hot partition",
        Severity.ERROR,
        "§IV-C",
        "INTERMEDIATE_CODE marks hot-partition intermediates only; it must "
        "never appear in a parent or cold network, and every flagged "
        "intermediate must carry it and report",
    ),
    Rule(
        "SPAP-P007",
        "hot∪cold does not reconstruct the parent state set",
        Severity.ERROR,
        "§IV-C",
        "each parent state must appear in exactly one partition; check "
        "hot_to_parent/cold_to_parent for gaps or double counting",
    ),
    Rule(
        "SPAP-P008",
        "start state leaked into the cold partition",
        Severity.ERROR,
        "§IV-C",
        "starts have topological order 1 and must stay hot (layers >= 1); a "
        "cold start would self-enable outside SpAP's event protocol",
    ),
    Rule(
        "SPAP-P009",
        "partition edge set diverges from the parent",
        Severity.ERROR,
        "§IV-C",
        "hot–hot and cold–cold parent edges must be preserved "
        "exactly (and nothing else added); re-derive the partitions with "
        "Automaton.induced",
    ),
    Rule(
        "SPAP-P010",
        "intermediate not wired from the cut edge's hot sources",
        Severity.ERROR,
        "§IV-C",
        "each hot source of a cut edge must feed an intermediate for the "
        "target, or that path's activations are silently dropped",
    ),
    # -- batch-plan checker (repro.verify.batching) ---------------------------
    Rule(
        "SPAP-B001",
        "batch exceeds AP capacity",
        Severity.ERROR,
        "§III-C",
        "a configuration batch must fit the placement unit; re-pack with "
        "pack_batches against the correct capacity",
    ),
    Rule(
        "SPAP-B002",
        "NFA split across batches or missing from the plan",
        Severity.ERROR,
        "§III-C",
        "batches contain whole NFAs: every parent automaton must appear in "
        "exactly one batch (transitions cannot cross placement units)",
    ),
    Rule(
        "SPAP-B003",
        "global-id map is not a bijection into the parent",
        Severity.ERROR,
        "§V-A",
        "NetworkSlice.global_ids must map each local state to its unique "
        "parent global id, in parent order, with no duplicates",
    ),
    Rule(
        "SPAP-B004",
        "report rewrite does not round-trip to the parent state",
        Severity.ERROR,
        "§V-A",
        "rewriting a batch-local report id through global_ids must land on "
        "the same state in the parent network; check slice construction",
    ),
    # -- semantic differential checker (repro.semant.differential) ------------
    Rule(
        "SPAP-S001",
        "truth-enabled state proven statically dead",
        Severity.ERROR,
        "§III-A",
        "the abstract interpreter's dead verdict is supposed to be a proof; "
        "a simulation enabling the state means the analysis (or the engine) "
        "is unsound — file a bug against repro.semant.absint",
    ),
    Rule(
        "SPAP-S002",
        "observed report from a state proven never-reporting",
        Severity.ERROR,
        "§II-A",
        "the backward observability pass claimed no report could ever be "
        "attributed to this state, yet the truth simulation produced one; "
        "the analysis (or the engine) is unsound",
    ),
    Rule(
        "SPAP-S003",
        "statically-dead state predicted hot by the profiler",
        Severity.WARNING,
        "§IV-A",
        "the layer-closed profiled prediction keeps a provably-dead state in "
        "the hot partition; it wastes an STE every batch — consider pruning "
        "dead states before partitioning",
    ),
    Rule(
        "SPAP-S004",
        "semantically dead though graph-reachable",
        Severity.WARNING,
        "§III-A",
        "every enabling path crosses an empty-symbol-set hand-off, so the "
        "state is dead even though plain reachability (SPAP-N004) calls it "
        "live; fix the symbol-set construction or drop the state",
    ),
    Rule(
        "SPAP-S005",
        "never-reporting state predicted hot",
        Severity.WARNING,
        "§III-A",
        "the state occupies a hot STE but no activation path from it reaches "
        "a reporting state, so its work is unobservable; remove it or mark "
        "the intended reporter",
    ),
    Rule(
        "SPAP-S006",
        "static and profiled hot/cold predictions disagree",
        Severity.INFO,
        "§IV-A",
        "informational: the profile-free predictor and the profiling run "
        "classify these states differently; large disagreement means the "
        "profiling prefix is unrepresentative or the depth model is off",
    ),
    # -- compilability & cost advisories (repro.cost) --------------------------
    Rule(
        "SPAP-C001",
        "DFA-safety proof contradicted by determinization",
        Severity.ERROR,
        "§VIII",
        "the budgeted explorer claims to walk exactly the transition "
        "function determinize materializes; a count mismatch, an "
        "unexpected DeterminizeError, or a replay divergence against the "
        "reference simulator means the analysis is unsound — file a bug "
        "against repro.cost.explore",
    ),
    Rule(
        "SPAP-C002",
        "subset-construction budget exceeded",
        Severity.INFO,
        "§VIII",
        "informational: the partition is not provably DFA-safe at this "
        "budget; the message records the growth frontier (subsets "
        "discovered, BFS depth, largest subset) — keep the NFA backend or "
        "raise --budget",
    ),
    Rule(
        "SPAP-C003",
        "symbol-class compression ineffective",
        Severity.INFO,
        "§VIII",
        "informational: the partition distinguishes most of the 8-bit "
        "alphabet, so class-compressed tables barely shrink; a "
        "class-indexed backend buys little here",
    ),
    Rule(
        "SPAP-C004",
        "DFA table exceeds the memory budget despite a safety proof",
        Severity.WARNING,
        "§VIII",
        "subset construction is bounded but states x classes x 8 bytes "
        "does not fit the table budget; advise an NFA backend or raise "
        "DFA_TABLE_BUDGET deliberately",
    ),
    Rule(
        "SPAP-C005",
        "backend advisory margin is thin",
        Severity.INFO,
        "§VI",
        "informational: the two cheapest backends are predicted within "
        "the noise margin of each other; treat the recommendation as a "
        "tie and let measurement decide",
    ),
    Rule(
        "SPAP-C006",
        "cost model produced a non-finite or negative cost",
        Severity.ERROR,
        "§VI",
        "every feasible backend must get a finite non-negative predicted "
        "cost; a NaN/inf/negative value means the features or the "
        "calibration are corrupt — file a bug against repro.cost.model",
    ),
    # -- equivalence-preserving reduction (repro.reduce) -----------------------
    Rule(
        "SPAP-R001",
        "reduction changed reports or lifted witness masks vs reference replay",
        Severity.ERROR,
        "§III-A",
        "reduce_network claims report and witness equivalence; a "
        "divergence against sim/reference.py on the reduced network means "
        "a merge or strip rule is unsound — file a bug against "
        "repro.reduce.transform",
    ),
    Rule(
        "SPAP-R002",
        "state mapping is not a sound cover of the parent network",
        Severity.ERROR,
        "§V-A",
        "state_map and members must be mutually inverse, every kept parent "
        "state must map to a valid reduced state, and stripped counts must "
        "reconcile with the proof artifacts; check mapping composition in "
        "reduce_network",
    ),
    Rule(
        "SPAP-R003",
        "merge class mixes behaviorally incompatible states",
        Severity.ERROR,
        "§II-A",
        "every member of a reduced state's class must share symbol mask, "
        "start kind, reporting flag, report code, and eod; an attribute "
        "mismatch means the partition's initial key was violated",
    ),
    Rule(
        "SPAP-R004",
        "no reduction opportunities found",
        Severity.INFO,
        "§III-A",
        "informational: the network is already minimal — every state is "
        "live and no two states are backward-bisimilar",
    ),
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one location."""

    code: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    @property
    def rule(self) -> Rule:
        return RULES[self.code]

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.code} {self.severity}: {self.message}{where}"

    def to_json(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "location": self.location,
            "hint": self.hint or self.rule.hint,
        }


@dataclass
class VerificationReport:
    """All findings of the verifier over one subject."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def emit(
        self,
        code: str,
        message: str,
        *,
        location: str = "",
        hint: Optional[str] = None,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Record one finding; severity and hint default from the rule."""
        rule = RULES[code]
        diagnostic = Diagnostic(
            code=code,
            severity=rule.severity if severity is None else severity,
            message=message,
            location=location,
            hint=rule.hint if hint is None else hint,
        )
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        """Merge another report's findings into this one (returns self)."""
        self.diagnostics.extend(other.diagnostics)
        return self

    # -- queries --------------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding was recorded."""
        return not self.errors

    def codes(self) -> List[str]:
        return [d.code for d in self.diagnostics]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    # -- rendering ------------------------------------------------------------

    def summary(self) -> str:
        state = "OK" if self.ok else "FAIL"
        return (
            f"{self.subject or 'verification'}: {state} "
            f"({len(self.errors)} errors, {len(self.warnings)} warnings)"
        )

    def render_text(self, *, verbose: bool = False) -> str:
        """Human-readable report: summary line plus one line per finding."""
        lines = [self.summary()]
        for diagnostic in self.diagnostics:
            if diagnostic.severity is Severity.INFO and not verbose:
                continue
            lines.append(f"  {diagnostic.render()}")
            if verbose and diagnostic.hint:
                lines.append(f"    hint: {diagnostic.hint}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "n_errors": len(self.errors),
            "n_warnings": len(self.warnings),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    # -- enforcement ----------------------------------------------------------

    def raise_for_errors(self) -> None:
        """Raise :class:`VerificationError` if any ERROR finding exists."""
        if not self.ok:
            raise VerificationError(self)


class VerificationError(AssertionError):
    """A structural invariant of the paper's pipeline is violated.

    Subclasses ``AssertionError`` so existing callers treating invariant
    violations as assertion failures keep working.  Carries the full
    :class:`VerificationReport` on ``.report``.
    """

    def __init__(self, report: VerificationReport) -> None:
        self.report = report
        super().__init__(report.render_text())


def merge_reports(
    subject: str, reports: Iterable[VerificationReport]
) -> VerificationReport:
    """Concatenate several pass reports under one subject."""
    merged = VerificationReport(subject=subject)
    for report in reports:
        merged.diagnostics.extend(report.diagnostics)
    return merged
