"""The grid worker process: one match server over one store partition.

A worker is the existing serve stack — micro-batcher, engine-registry
dispatch, typed protocol errors — pointed at a slice of the network
store instead of the lazy pipeline cache.  :func:`worker_main` is
module-level and :class:`WorkerSpec` is a plain dataclass of primitives,
so both survive the ``spawn`` start method's pickling (the grid uses
``spawn`` deliberately: a forked worker would inherit the parent's
already-warm pipeline cache and quietly stop exercising the store path).

Startup order matters: the store partition is loaded and injected into
the serve state *before* the listening socket is bound, so the existence
of the socket is the readiness signal — the router's connect-with-retry
never observes a bound-but-cold worker.  The LRU is sized to the shard
(`max_apps = len(apps)`) and the allowed list is pinned to the shard, so
a worker can neither evict a stored entry (which would silently fall
back to an in-worker pipeline run) nor serve an app it does not own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["WorkerSpec", "worker_main"]

#: Tiny input pushed through each entry at startup (first-dispatch warmup).
_WARM_BATCH = [b"\x00\x01\x02\x03"] * 4


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, picklable for ``spawn``."""

    worker_id: int
    unix_path: str
    store_path: str
    apps: List[str] = field(default_factory=list)
    scale: int = 16
    input_len: int = 8192
    max_batch: int = 64
    max_queue_depth: int = 1024
    threads: int = 2
    warm: bool = True


def worker_main(spec: WorkerSpec) -> None:
    """Process entry point: load the partition, serve until shutdown."""
    # Imports live here, not at module top: under ``spawn`` the child
    # imports this module before it knows it is a worker, and the serve
    # stack (numpy included) should load once, on purpose, in the child.
    from ..experiments.config import ExperimentConfig
    from ..serve.server import MatchServer, ServerOptions
    from .store import load_store

    config = ExperimentConfig(scale=spec.scale, input_len=spec.input_len)
    store = load_store(spec.store_path, config).partition(spec.apps)
    options = ServerOptions(
        unix_path=spec.unix_path,
        max_batch=spec.max_batch,
        max_queue_depth=spec.max_queue_depth,
        workers=spec.threads,
        max_apps=max(1, len(spec.apps)),
        warmup=False,  # warmed below from the store, never via the pipeline
        allow_shutdown=True,
    )
    server = MatchServer(config, options, apps=spec.apps or None)
    for name in spec.apps:
        entry = server.state.add_stored(store.apps[name])
        if spec.warm:
            with server.timer.stage("startup_warmup"):
                entry.execute_batch(_WARM_BATCH)
    asyncio.run(_serve(server))


async def _serve(server: "object") -> None:
    await server.start()  # type: ignore[attr-defined]
    await server.serve_until_stopped()  # type: ignore[attr-defined]


def spawn_worker(spec: WorkerSpec,
                 context: Optional[object] = None) -> "object":
    """Start one worker process (``spawn`` context); returns the Process."""
    import multiprocessing

    ctx = context if context is not None else multiprocessing.get_context("spawn")
    process = ctx.Process(  # type: ignore[attr-defined]
        target=worker_main, args=(spec,),
        name=f"repro-grid-worker-{spec.worker_id}", daemon=True,
    )
    process.start()
    return process
