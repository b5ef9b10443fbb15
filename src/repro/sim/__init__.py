"""Functional NFA simulation: the subset-core engine, DFAs, reference engine.

Besides the individual engine entry points, this package defines the
pluggable :class:`Engine` interface (DESIGN.md §13): every execution
backend — the set-based reference engine, the bit-parallel NFA engine on
the network's subset core, the table-driven DFA engine, and the
byte-bounded lazy DFA — registered in :data:`ENGINES` under the
same canonical names the cost
model's advisories use (``repro.cost.model.BACKENDS``; the registries are
pinned to each other by a test rather than an import, keeping this package
import-cycle-free).  Callers that hold a per-partition
``BackendAdvisory`` can turn "the model predicts ``dfa`` wins here" into
an actual ``dfa`` execution via :func:`get_engine` /
:func:`resolve_backend`, with automatic fallback to ``bitpacked`` for
``auto`` requests when the choice is infeasible for the concrete network —
explicit requests fail loudly instead (:class:`BackendInfeasibleError`).
"""

from typing import Callable, Dict, Optional, Tuple

from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core
from .dfa import (
    CompiledDFA,
    DfaInfeasibleError,
    compile_dfa,
    dfa_feasible,
    dfa_run,
    dfa_table_dtype,
)
from .engine import EventRunResult, as_input_array, run, run_events
from .hybrid import HybridResult, hybrid_run
from .lazydfa import DEFAULT_LAZY_BUDGET, CompiledLazyDfa, compile_lazydfa, lazydfa_run
from .reference import reference_run
from .reports import DecodedReport, decode_reports, reports_by_code
from .result import Report, SimResult, reports_equal, reports_to_array

__all__ = [
    "SubsetCore",
    "subset_core",
    "EventRunResult",
    "as_input_array",
    "run",
    "run_events",
    "HybridResult",
    "hybrid_run",
    "reference_run",
    "CompiledDFA",
    "DfaInfeasibleError",
    "compile_dfa",
    "dfa_feasible",
    "dfa_run",
    "dfa_table_dtype",
    "CompiledLazyDfa",
    "DEFAULT_LAZY_BUDGET",
    "compile_lazydfa",
    "lazydfa_run",
    "DecodedReport",
    "decode_reports",
    "reports_by_code",
    "Report",
    "SimResult",
    "reports_equal",
    "reports_to_array",
    "BackendInfeasibleError",
    "Engine",
    "ENGINES",
    "FALLBACK_BACKEND",
    "get_engine",
    "resolve_backend",
]


class BackendInfeasibleError(RuntimeError):
    """An explicitly-requested backend cannot run the concrete network.

    Raised by :func:`resolve_backend` instead of silently substituting
    :data:`FALLBACK_BACKEND`: an operator who typed ``--backend dfa``
    deserves an error, not a quiet bitpacked run.  ``auto`` requests
    (and callers that opt in via ``allow_fallback=True``) keep the
    fallback behavior.
    """


class Engine:
    """One selectable execution backend (DESIGN.md §13).

    An engine names itself, answers whether it can run a concrete network
    (``feasible``), turns a network into its executable artifact once
    (``prepare`` — a subset core, a DFA table, or the network itself),
    and executes a prepared artifact over one input stream
    (``run``), returning a :class:`SimResult` whose reports are
    bit-identical to every other engine's.  ``streaming_only`` engines
    consume a contiguous symbol stream and cannot host event-driven
    (cold-partition) execution — mirroring
    ``repro.cost.model.STREAMING_BACKENDS``.
    """

    def __init__(
        self,
        name: str,
        *,
        prepare: Callable[[Network], object],
        execute: Callable[..., SimResult],
        feasible: Optional[Callable[[Network], bool]] = None,
        streaming_only: bool = False,
    ) -> None:
        self.name = name
        self.streaming_only = streaming_only
        self._prepare = prepare
        self._execute = execute
        self._feasible = feasible

    def feasible(self, network: Network) -> bool:
        """Whether :meth:`prepare` would succeed for ``network``."""
        if self._feasible is None:
            return True
        return self._feasible(network)

    def prepare(self, network: Network) -> object:
        """Build the executable artifact (compile once, run many)."""
        return self._prepare(network)

    def run(self, prepared: object, input_data, *,
            track_enabled: bool = False) -> SimResult:
        """Execute one input stream over a :meth:`prepare` artifact."""
        return self._execute(prepared, input_data, track_enabled=track_enabled)

    def run_network(self, network: Network, input_data, *,
                    track_enabled: bool = False) -> SimResult:
        """Convenience: prepare and run in one call (tests, one-shots)."""
        return self.run(self.prepare(network), input_data,
                        track_enabled=track_enabled)


def _reference_execute(prepared, input_data, *, track_enabled: bool = False):
    # The reference engine always tracks the enabled set; the flag is
    # accepted for interface parity.
    return reference_run(prepared, input_data)


def _bitpacked_execute(prepared, input_data, *, track_enabled: bool = False):
    return run(prepared, input_data, track_enabled=track_enabled)


#: Canonical backend registry.  Keys must match
#: ``repro.cost.model.BACKENDS`` exactly (test-pinned).
ENGINES: Dict[str, Engine] = {
    "reference": Engine(
        "reference",
        prepare=lambda network: network,
        execute=_reference_execute,
    ),
    "bitpacked": Engine(
        "bitpacked",
        prepare=subset_core,
        execute=_bitpacked_execute,
    ),
    "dfa": Engine(
        "dfa",
        prepare=compile_dfa,
        execute=dfa_run,
        feasible=dfa_feasible,
        streaming_only=True,
    ),
    # The lazy DFA needs no feasibility proof: its table is bounded in
    # bytes no matter how large the reachable subset space is.
    "lazydfa": Engine(
        "lazydfa",
        prepare=compile_lazydfa,
        execute=lazydfa_run,
        streaming_only=True,
    ),
}

#: Where infeasible selections land: the NFA engine, which runs every
#: network, streaming or event-driven.
FALLBACK_BACKEND = "bitpacked"


def get_engine(name: str) -> Engine:
    """The registered engine for a canonical backend name.

    Raises ``KeyError`` (listing the registry) for unknown names.
    """
    try:
        return ENGINES[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {', '.join(ENGINES)}"
        ) from None


def resolve_backend(
    requested: Optional[str],
    network: Network,
    *,
    advised: str = FALLBACK_BACKEND,
    allow_fallback: Optional[bool] = None,
) -> Tuple[str, Engine]:
    """Resolve a backend request against a concrete network.

    ``requested`` is an explicit backend name, or ``None``/``"auto"`` to
    take ``advised`` (typically ``BackendAdvisory.recommended``).  If the
    chosen engine is infeasible for ``network`` — e.g. ``dfa`` on a
    partition whose subset construction bursts the budget — the outcome
    depends on how the choice was made:

    * ``auto``/``None`` requests fall back to :data:`FALLBACK_BACKEND`
      silently (a stale advisory must never wedge execution);
    * explicit requests raise :class:`BackendInfeasibleError` so the
      operator learns their choice did not run, unless they opted into
      substitution with ``allow_fallback=True`` (the CLI's
      ``--backend-fallback`` flag).

    ``allow_fallback=None`` means "decide by request kind" as above; a
    boolean forces the policy either way.  Returns the ``(name, engine)``
    actually selected.
    """
    explicit = requested not in (None, "auto")
    name = requested if explicit and requested is not None else advised
    engine = get_engine(name)
    if not engine.feasible(network):
        fallback_ok = (not explicit) if allow_fallback is None else allow_fallback
        if not fallback_ok:
            raise BackendInfeasibleError(
                f"backend {name!r} was explicitly requested but is infeasible "
                f"for this network; use --backend auto, pick a feasible "
                f"backend, or pass --backend-fallback to accept "
                f"{FALLBACK_BACKEND!r} substitution"
            )
        name = FALLBACK_BACKEND
        engine = get_engine(name)
    return name, engine
