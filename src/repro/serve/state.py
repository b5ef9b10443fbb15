"""Server-side application state: compiled networks behind an LRU.

The match server resolves request app names against the workload registry
(accepting the same aliases as every CLI command) and materializes each
application's subset core (and DFA tables, when its backend uses them)
through the shared ``AppRun`` pipeline cache — so a server and any
in-process experiment code reuse one substrate.  On top of that cache
this module adds what serving needs:

* an **LRU** over resident applications (``max_apps``), because a server
  configured to accept the whole registry should not keep 26 compiled
  networks live when traffic only ever touches three;
* **async-safe compilation**: a cache miss compiles in the executor under
  a per-application lock, so the event loop never blocks on a build and
  concurrent first requests compile once;
* **warmup**: pre-compiling the served apps and pushing a tiny batch
  through each entry's engine at startup, so the first real request does
  not pay first-use costs.

Entries can also be injected directly (:meth:`ServeState.add_network`) to
serve a hand-built network that is not in the registry — tests use this,
and it doubles as the embedding API.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..experiments.config import ExperimentConfig, default_config
from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore, subset_core
from ..sim import get_engine
from ..sim.dfa import CompiledDFA, compile_dfa, dfa_feasible
from ..sim.lazydfa import CompiledLazyDfa
from ..sim.result import SimResult
from ..stats.recorder import StageTimer
from ..workloads.registry import resolve_abbr
from .protocol import ErrorCode, ProtocolError

__all__ = ["AppEntry", "ServeState"]

#: Engines a server can batch on (forced), or ``auto`` for the advisory's pick.
_SERVE_BACKENDS = ("bitpacked", "dfa", "lazydfa", "auto")


@dataclass
class AppEntry:
    """One resident application: its compiled artifacts and request counter.

    ``backend`` names the engine batches execute on (DESIGN.md §13):
    ``bitpacked`` (the default NFA engine on the subset core), ``dfa``
    (the table-driven executor, when the network was proven DFA-safe and
    the server opted in), or ``lazydfa`` (the bounded-subset hybrid,
    DESIGN.md §14 — no proof required).  The batcher dispatches through
    :meth:`execute_batch` so it never hard-codes an engine.
    """

    name: str
    compiled: SubsetCore
    requests: int = 0
    backend: str = "bitpacked"
    dfa: Optional[CompiledDFA] = None
    lazydfa: Optional[CompiledLazyDfa] = None
    #: SPAP-R reduction artifact when the server runs reduced networks
    #: (``ServeState(reduce=True)``): every result is lifted through its
    #: state-mapping table so replies carry *original* state ids — clients
    #: never observe whether the server reduced.  (Typed loosely to keep
    #: this module import-light; it is a ``repro.reduce.ReductionResult``.)
    reduction: Optional[object] = None

    @property
    def prepared(self) -> object:
        """The artifact :attr:`backend` executes."""
        if self.backend == "dfa":
            return self.dfa
        if self.backend == "lazydfa":
            return self.lazydfa
        return self.compiled

    def execute_batch(self, streams: List[bytes]) -> List[SimResult]:
        """Run one coalesced batch on this entry's backend (executor-side).

        A batch is a series of independent walks, one per stream, through
        the registered engine.  The lazy hybrid serializes itself on the
        artifact's internal lock, so concurrent executor workers are safe.
        """
        run = get_engine(self.backend).run
        prepared = self.prepared
        results = [run(prepared, stream) for stream in streams]
        if self.reduction is not None:
            lift = self.reduction.lift_result  # type: ignore[attr-defined]
            results = [lift(result) for result in results]
        return results


class ServeState:
    """Resolves app names to compiled networks, LRU-bounded, with warmup."""

    def __init__(self, config: Optional[ExperimentConfig] = None, *,
                 apps: Optional[List[str]] = None, max_apps: int = 8,
                 backend: str = "bitpacked", reduce: bool = False,
                 timer: Optional[StageTimer] = None) -> None:
        # "multistream", the name of the former lock-step engine, is still
        # accepted as a synonym for the default.
        if backend == "multistream":
            backend = "bitpacked"
        if backend not in _SERVE_BACKENDS:
            raise ValueError(
                f"serve backend must be one of {', '.join(_SERVE_BACKENDS)}; "
                f"got {backend!r}"
            )
        self.config = config or default_config()
        self.backend = backend
        #: Serve the SPAP-R-reduced (exact-mode, report-equivalent) form of
        #: every network; replies are lifted back to original state ids.
        self.reduce = reduce
        self.timer = timer if timer is not None else StageTimer()
        self.max_apps = max(1, max_apps)
        #: Canonical abbreviations this server agrees to serve (None = any
        #: registry app).  Resolved once so bad --apps fail at startup.
        self.allowed: Optional[List[str]] = None
        if apps is not None:
            resolved = []
            for name in apps:
                canonical = resolve_abbr(name)
                if canonical is None:
                    raise ValueError(f"unknown application {name!r}")
                resolved.append(canonical)
            self.allowed = resolved
        self._entries: "OrderedDict[str, AppEntry]" = OrderedDict()
        self._locks: Dict[str, asyncio.Lock] = {}
        self.evictions = 0

    # -- synchronous core (shared by async path and tests) -------------------------

    def resolve(self, name: str) -> str:
        """Canonical name for ``name``; raises typed UNKNOWN_APP errors."""
        if name in self._entries:  # injected networks bypass the registry
            return name
        canonical = resolve_abbr(name)
        if canonical is None:
            raise ProtocolError(ErrorCode.UNKNOWN_APP,
                                f"unknown application {name!r}", recoverable=True)
        if self.allowed is not None and canonical not in self.allowed:
            raise ProtocolError(
                ErrorCode.UNKNOWN_APP,
                f"application {canonical!r} is not served here "
                f"(serving: {', '.join(self.allowed)})",
                recoverable=True,
            )
        return canonical

    def add_network(self, name: str, network: Network) -> AppEntry:
        """Inject a hand-built network under ``name`` (embedding/test API).

        Injected networks have no registry pipeline (hence no cost
        advisory), so a non-bitpacked server backend selects on
        feasibility alone: ``dfa``/``auto`` take the table engine when the
        network is proven safe, ``lazydfa`` (or ``auto`` on an unsafe
        network) takes the hybrid.  Under ``reduce=True`` the injected
        network is reduced exactly like a registry one.
        """
        reduction = None
        if self.reduce:
            from ..reduce.transform import reduce_network

            with self.timer.stage("reduce"):
                reduction = reduce_network(network)
            network = reduction.network
        with self.timer.stage("compile_app"):
            entry = AppEntry(name=name, compiled=subset_core(network),
                             reduction=reduction)
        if self.backend in ("dfa", "auto") and dfa_feasible(network):
            with self.timer.stage("compile_dfa"):
                entry.dfa = compile_dfa(network, core=entry.compiled)
            entry.backend = "dfa"
        elif self.backend in ("lazydfa", "auto"):
            with self.timer.stage("compile_lazydfa"):
                entry.lazydfa = CompiledLazyDfa(entry.compiled)
            entry.backend = "lazydfa"
        self._remember(name, entry)
        return entry

    def add_stored(self, stored: "object") -> AppEntry:
        """Adopt a pre-compiled grid store entry (``repro.grid.store``).

        The worker-pool path: the grid parent selected the backend and
        compiled every artifact once, so the entry goes resident directly
        — no pipeline run, no advisory, no compile stage.  The store
        entry's name joins the allowed list implicitly (it bypasses the
        registry resolve exactly like an injected network).
        """
        entry = AppEntry(
            name=stored.name,  # type: ignore[attr-defined]
            compiled=stored.compiled,  # type: ignore[attr-defined]
            backend=stored.backend,  # type: ignore[attr-defined]
            dfa=stored.dfa,  # type: ignore[attr-defined]
            lazydfa=stored.lazydfa,  # type: ignore[attr-defined]
        )
        self._remember(entry.name, entry)
        return entry

    def _remember(self, name: str, entry: AppEntry) -> None:
        self._entries[name] = entry
        self._entries.move_to_end(name)
        while len(self._entries) > self.max_apps:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _materialize(self, canonical: str) -> AppEntry:
        """Blocking compile through the pipeline cache (executor-side).

        With a non-bitpacked server backend the entry's engine is
        resolved through the pipeline's advisory-driven selection
        (``AppRun.select_backend``): ``auto`` takes the cost advisory's
        recommendation, an explicit ``dfa``/``lazydfa`` forces that engine
        — both feasibility-checked.  Serving's documented contract is
        availability over strictness, so selection runs with
        ``allow_fallback=True``: an infeasible forced engine lands back on
        bitpacked, serving's default, instead of failing the request.
        """
        from ..experiments.pipeline import get_run
        from ..experiments.sweep import DEFAULT_PROFILE_FRACTION

        run = get_run(canonical, self.config)
        reduction = run.reduced if self.reduce else None
        with self.timer.stage("compile_app"):
            compiled = (run.reduced_prepared_for("bitpacked") if self.reduce
                        else run.compiled)
        entry = AppEntry(name=canonical, compiled=compiled,
                         reduction=reduction)
        if self.backend != "bitpacked":
            name, _engine = run.select_backend(
                self.backend, DEFAULT_PROFILE_FRACTION, allow_fallback=True,
                reduce=self.reduce,
            )
            if name == "dfa":
                with self.timer.stage("compile_dfa"):
                    entry.dfa = (run.reduced_prepared_for("dfa")
                                 if self.reduce else run.compiled_dfa)
                entry.backend = "dfa"
            elif name == "lazydfa":
                with self.timer.stage("compile_lazydfa"):
                    entry.lazydfa = (run.reduced_prepared_for("lazydfa")
                                     if self.reduce else run.compiled_lazydfa)
                entry.backend = "lazydfa"
        return entry

    def get_blocking(self, name: str) -> AppEntry:
        """Resolve + materialize synchronously (warmup, tests, benches)."""
        canonical = self.resolve(name)
        entry = self._entries.get(canonical)
        if entry is None:
            entry = self._materialize(canonical)
        self._remember(canonical, entry)
        return entry

    # -- async path ----------------------------------------------------------------

    async def get(self, name: str,
                  executor: Optional[concurrent.futures.Executor] = None) -> AppEntry:
        """Resolve + materialize without blocking the event loop.

        Concurrent first requests for the same application compile once:
        the compile runs in ``executor`` under a per-app asyncio lock.
        """
        canonical = self.resolve(name)
        entry = self._entries.get(canonical)
        if entry is not None:
            self._entries.move_to_end(canonical)
            return entry
        lock = self._locks.setdefault(canonical, asyncio.Lock())
        async with lock:
            entry = self._entries.get(canonical)
            if entry is None:
                loop = asyncio.get_running_loop()
                entry = await loop.run_in_executor(
                    executor, self._materialize, canonical
                )
            self._remember(canonical, entry)
        return entry

    # -- warmup & introspection ------------------------------------------------------

    def warmup(self, names: Optional[List[str]] = None,
               batch_size: int = 4) -> List[str]:
        """Compile ``names`` (default: the allowed list) and push one tiny
        batch through each entry's engine, so the first real request hits
        warmed paths.  Returns the warmed canonical names."""
        targets = names if names is not None else (self.allowed or [])
        warmed = []
        for name in targets:
            entry = self.get_blocking(name)
            with self.timer.stage("warmup"):
                entry.execute_batch([b"\x00\x01\x02\x03"] * batch_size)
            warmed.append(entry.name)
        return warmed

    def resident(self) -> List[str]:
        """Currently-resident application names, least recent first."""
        return list(self._entries)
