"""The network store: the AppRun artifact cache made explicit and portable.

The pipeline cache (``repro.experiments.pipeline``) computes compiled
artifacts lazily and keeps them in process-local ``AppRun`` objects — fine
for one process, useless for a worker pool where each shard must come up
warm without re-running translation, compilation, subset construction,
and cost analysis.  This module reifies exactly the artifacts serving
needs into a :class:`NetworkStore`: a picklable map of
:class:`StoredApp` entries (network, subset core, optional DFA / lazy-DFA
tables, the advisory-selected backend) plus the operating point they were
built at.

A store is built once in the grid parent (:func:`build_store`), sliced
per worker (:meth:`NetworkStore.partition`), written to disk
(:meth:`NetworkStore.save`), and loaded by each worker process
(:func:`load_store`) — the collocate-state-with-compute move of the
space-based architecture (DESIGN.md §16).  Loading validates a magic +
version envelope and the operating point, so a stale or truncated store
fails loudly (:class:`StoreError`) instead of serving wrong-scale
networks.

The artifacts themselves own their picklability: ``CompiledDFA`` and
``CompiledLazyDfa`` drop process-local locks/caches in ``__getstate__``
and rebuild them on load, so an unpickled store entry behaves exactly
like a freshly compiled one.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from ..experiments.config import ExperimentConfig, default_config
from ..nfa.automaton import Network
from ..nfa.determinize import SubsetCore
from ..sim.dfa import CompiledDFA
from ..sim.lazydfa import CompiledLazyDfa
from ..workloads.registry import resolve_abbr

__all__ = [
    "STORE_FORMAT",
    "STORE_VERSION",
    "StoreError",
    "StoredApp",
    "NetworkStore",
    "build_store",
    "load_store",
]

#: Envelope identifier written at the head of every serialized store.
STORE_FORMAT = "repro-network-store"
#: Bumped on any incompatible change to the envelope or entry layout
#: (2: ``StoredApp.compiled`` holds the network's subset core).
STORE_VERSION = 2


class StoreError(RuntimeError):
    """A store file is missing, corrupt, or built at the wrong operating point."""


@dataclass
class StoredApp:
    """One application's serving artifacts, self-contained and picklable.

    ``backend`` is the engine the grid parent *selected* for this app
    (advisory-driven for ``auto``, feasibility-checked either way) and is
    the one the worker will execute; ``advised`` records what the cost
    model recommended, so stats can show advisory agreement without
    re-running the analyzer in the worker.
    """

    name: str
    backend: str
    network: Network
    compiled: SubsetCore
    dfa: Optional[CompiledDFA] = None
    lazydfa: Optional[CompiledLazyDfa] = None
    advised: str = "bitpacked"


@dataclass
class NetworkStore:
    """A picklable partition of compiled applications at one operating point."""

    scale: int
    input_len: int
    apps: Dict[str, StoredApp] = field(default_factory=dict)

    @property
    def names(self) -> List[str]:
        return list(self.apps)

    def partition(self, names: Iterable[str]) -> "NetworkStore":
        """A sub-store holding only ``names`` (a worker's shard + replicas)."""
        missing = [n for n in names if n not in self.apps]
        if missing:
            raise StoreError(
                f"store has no entry for {', '.join(sorted(missing))} "
                f"(built: {', '.join(self.names) or 'none'})"
            )
        return NetworkStore(
            scale=self.scale,
            input_len=self.input_len,
            apps={n: self.apps[n] for n in names},
        )

    def save(self, path: str) -> None:
        envelope = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "store": self,
        }
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)

    def expect(self, config: ExperimentConfig) -> None:
        """Fail loudly when the store was built at a different operating point."""
        if (self.scale, self.input_len) != (config.scale, config.input_len):
            raise StoreError(
                f"store built at scale={self.scale} input_len={self.input_len}, "
                f"but this worker runs scale={config.scale} "
                f"input_len={config.input_len}"
            )


def load_store(path: str, config: Optional[ExperimentConfig] = None) -> NetworkStore:
    """Load and validate a store written by :meth:`NetworkStore.save`.

    When ``config`` is given the store's operating point must match it —
    a grid worker never silently serves networks built at the wrong
    scale/input length.
    """
    try:
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
    except FileNotFoundError:
        raise StoreError(f"no network store at {path!r}") from None
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        raise StoreError(f"corrupt network store at {path!r}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != STORE_FORMAT:
        raise StoreError(f"{path!r} is not a repro network store")
    version = envelope.get("version")
    if version != STORE_VERSION:
        raise StoreError(
            f"network store version {version!r} is not supported "
            f"(this build reads version {STORE_VERSION})"
        )
    store = envelope.get("store")
    if not isinstance(store, NetworkStore):
        raise StoreError(f"malformed network store envelope in {path!r}")
    if config is not None:
        store.expect(config)
    return store


def build_store(
    apps: Iterable[str],
    config: Optional[ExperimentConfig] = None,
    *,
    backend: str = "auto",
) -> NetworkStore:
    """Compile ``apps`` through the pipeline cache into a fresh store.

    Runs in the grid parent (or any offline builder): each app goes
    through the shared ``AppRun`` pipeline exactly once —
    build/compile/cost-advise — and its artifacts are extracted via
    :meth:`AppRun.stored_app`.  Workers then load partitions of the
    result without ever touching the pipeline.
    """
    from ..experiments.pipeline import get_run

    cfg = config or default_config()
    store = NetworkStore(scale=cfg.scale, input_len=cfg.input_len)
    for name in apps:
        canonical = resolve_abbr(name)
        if canonical is None:
            raise StoreError(f"unknown application {name!r}")
        if canonical in store.apps:
            continue
        store.apps[canonical] = get_run(canonical, cfg).stored_app(backend=backend)
    return store
