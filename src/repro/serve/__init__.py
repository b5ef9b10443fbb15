"""Match-serving subsystem (`repro.serve`).

The deployment face of the reproduction: a long-running asyncio match
service that accepts framed requests over TCP or a unix socket, batches
the requests that arrive while an application's batch executes, and runs
each batch in an executor thread as one walk per stream through the
application's engine — so K queued requests cost one executor hop
instead of K.

Layers (DESIGN.md §11):

* :mod:`repro.serve.protocol` — sans-IO framed wire protocol (JSON header
  + raw payload, versioned, typed error frames, hard size bounds);
* :mod:`repro.serve.state` — compiled-network LRU over the shared
  ``AppRun`` pipeline cache, with startup warmup;
* :mod:`repro.serve.batcher` — the micro-batcher: eager dispatch when
  idle, the next batch on completion (capped at ``max_batch``),
  per-request deadlines, queue-depth admission control;
* :mod:`repro.serve.server` — the asyncio server, per-request/per-batch
  ``repro.stats`` spans, and the validated statistics export;
* :mod:`repro.serve.client` — pipelined asyncio client (typed
  :class:`ConnectionLostError` on server death, so callers never hang);
* :mod:`repro.serve.loadgen` — open/closed-loop load generator with
  latency percentiles, weighted request classes, and a duration-based
  overload mode (``python -m repro loadgen``).

The sharded multi-process tier built on top of this stack lives in
:mod:`repro.grid` (DESIGN.md §16): worker processes each run a
:class:`MatchServer` over a store partition, fronted by a routing
process speaking this same protocol.

Start a server with ``python -m repro serve --unix /tmp/repro.sock
--apps Snort,LV`` and drive it with ``python -m repro loadgen``.
"""

from .batcher import BatchPolicy, BatchedResult, MicroBatcher
from .client import (
    AsyncServeClient,
    ConnectionLostError,
    MatchOutcome,
    ServeRequestError,
    connect,
)
from .loadgen import (
    ClassStats,
    LoadgenConfig,
    LoadgenResult,
    RequestClass,
    render_results,
    run_loadgen,
)
from .protocol import (
    ErrorCode,
    Frame,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    reply_frame,
    request_frame,
)
from .server import MatchServer, ServerOptions, run_server
from .state import AppEntry, ServeState

__all__ = [
    "AppEntry",
    "AsyncServeClient",
    "BatchPolicy",
    "BatchedResult",
    "ClassStats",
    "ConnectionLostError",
    "ErrorCode",
    "Frame",
    "LoadgenConfig",
    "LoadgenResult",
    "MatchOutcome",
    "RequestClass",
    "MatchServer",
    "MicroBatcher",
    "ProtocolError",
    "ServeRequestError",
    "ServeState",
    "ServerOptions",
    "connect",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "render_results",
    "reply_frame",
    "request_frame",
    "run_loadgen",
    "run_server",
]
