"""Grid orchestration: build the store, spawn workers, run the router.

:class:`Grid` is the one-call embedding API (the CLI's ``repro grid``
and the benchmarks both use it):

1. compile every served app once, in the parent, into a
   :class:`~repro.grid.store.NetworkStore`;
2. shard apps across workers by rendezvous hash, replicating each app to
   a secondary when the pool has one (``repro.grid.shard``);
3. write each worker's partition (primaries + replicas) to its own store
   file under a private temp directory and spawn the worker processes
   (``spawn`` start method — workers genuinely load the store, they do
   not inherit a warm fork);
4. start the :class:`~repro.grid.router.GridRouter`, whose
   connect-with-retry doubles as the readiness barrier (a worker's
   socket only exists once its partition is loaded and warm).

Teardown is polite first (shutdown frames through the router), forceful
second (terminate + join), and always removes the temp directory.  The
first ``spawn`` in a process also starts that process's ``multiprocessing``
resource tracker; a grid that started it stops it once its workers are
gone, so a caller that waits for the grid process finds no stray process.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

from ..experiments.config import ExperimentConfig, default_config
from .router import GridRouter, RouterOptions
from .shard import ShardMap, assign_shards
from .store import NetworkStore, build_store
from .worker import WorkerSpec, spawn_worker

__all__ = ["GridOptions", "Grid"]


@dataclass(frozen=True)
class GridOptions:
    """Pool size, listening address, and per-worker serving policy."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: Optional[int] = None
    unix_path: Optional[str] = None
    max_batch: int = 64
    max_queue_depth: int = 1024
    threads: int = 2
    backend: str = "auto"
    spill_threshold: int = 32
    max_inflight: int = 1024
    merge_interval_s: float = 0.25
    warm: bool = True
    allow_shutdown: bool = True

    def router_options(self, unix_path: Optional[str]) -> RouterOptions:
        return RouterOptions(
            host=self.host, port=self.port, unix_path=unix_path,
            spill_threshold=self.spill_threshold,
            max_inflight=self.max_inflight,
            merge_interval_s=self.merge_interval_s,
            allow_shutdown=self.allow_shutdown,
        )


class Grid:
    """A running worker pool plus its router, with full lifecycle."""

    def __init__(self, apps: List[str],
                 config: Optional[ExperimentConfig] = None,
                 options: Optional[GridOptions] = None) -> None:
        if not apps:
            raise ValueError("a grid needs at least one application")
        self.options = options or GridOptions()
        if self.options.workers < 1:
            raise ValueError(f"need at least one worker, got {self.options.workers}")
        self.config = config or default_config()
        self._requested_apps = list(apps)
        self.store: Optional[NetworkStore] = None
        self.shard_map: Optional[ShardMap] = None
        self.router: Optional[GridRouter] = None
        self.processes: Dict[int, object] = {}
        self._workdir: Optional[str] = None
        self._ctx = multiprocessing.get_context("spawn")
        self._owns_tracker = False

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> str:
        """Build, spawn, route; returns the router's bound address."""
        self._workdir = tempfile.mkdtemp(prefix="repro-grid-")
        self.store = build_store(self._requested_apps, self.config,
                                 backend=self.options.backend)
        # The first spawn below starts the resource tracker unless one runs.
        self._owns_tracker = not _tracker_running()
        self.shard_map = assign_shards(self.store.names, self.options.workers)
        worker_paths: Dict[int, str] = {}
        for worker_id in range(self.options.workers):
            socket_path = os.path.join(self._workdir, f"worker-{worker_id}.sock")
            store_path = os.path.join(self._workdir, f"store-{worker_id}.bin")
            shard_apps = sorted(self.shard_map.apps_for(worker_id))
            self.store.partition(shard_apps).save(store_path)
            spec = WorkerSpec(
                worker_id=worker_id,
                unix_path=socket_path,
                store_path=store_path,
                apps=shard_apps,
                scale=self.config.scale,
                input_len=self.config.input_len,
                max_batch=self.options.max_batch,
                max_queue_depth=self.options.max_queue_depth,
                threads=self.options.threads,
                warm=self.options.warm,
            )
            self.processes[worker_id] = spawn_worker(spec, self._ctx)
            worker_paths[worker_id] = socket_path
        self.router = GridRouter(
            self.shard_map, worker_paths,
            self.options.router_options(self.options.unix_path),
        )
        return await self.router.start()

    async def serve_until_stopped(self) -> None:
        assert self.router is not None, "call start() first"
        await self.router.serve_until_stopped()

    def kill_worker(self, worker_id: int) -> None:
        """Hard-kill one worker (failover tests / chaos drills)."""
        process = self.processes.get(worker_id)
        if process is not None:
            process.terminate()  # type: ignore[attr-defined]
            process.join(timeout=5.0)  # type: ignore[attr-defined]

    async def stop(self) -> None:
        """Polite worker shutdown, router teardown, forceful cleanup."""
        if self.router is not None:
            await self.router.shutdown_workers()
            await self.router.stop()
            await self.router._shutdown()
        alive = False
        for process in self.processes.values():
            process.join(timeout=5.0)  # type: ignore[attr-defined]
            if process.is_alive():  # type: ignore[attr-defined]
                process.terminate()  # type: ignore[attr-defined]
                process.join(timeout=5.0)  # type: ignore[attr-defined]
            alive = alive or process.is_alive()  # type: ignore[attr-defined]
        self.processes.clear()
        if self._owns_tracker and not alive:
            # The tracker exits once every holder of its pipe has closed it;
            # with the workers gone that is this process alone.  The stdlib
            # offers no public way to stop it (same call on 3.9 to 3.13).
            resource_tracker._resource_tracker._stop()
            self._owns_tracker = False
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)
            self._workdir = None

    async def __aenter__(self) -> "Grid":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()


def _tracker_running() -> bool:
    """Whether this process's resource tracker is running (holds its pipe)."""
    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None
