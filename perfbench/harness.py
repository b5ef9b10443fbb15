"""Shared machinery of the benchmark: statistics, spans, outcomes, processes.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run-time files (sockets, child logs, traces) stay inside the checkout.
WORK = Path(__file__).resolve().parent / ".work"
#: Temporary directory of the programs under test (the grid's worker sockets).
TMP = WORK / "t"
#: ``sun_path`` holds 107 bytes; a grid worker socket adds this many to TMPDIR.
_GRID_SOCKET_SUFFIX = len("/repro-grid-xxxxxxxx/worker-0.sock")

#: The pinned operating point: the registry's release setting.  Children get
#: it through their environment, so a caller's ``REPRO_*`` never leaks in.
SCALE = 16
INPUT_LEN = 8192
PROFILE_FRACTION = 0.01

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


class InsufficientTail(ValueError):
    """Too few samples lie beyond the requested percentile."""


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    Raises :class:`InsufficientTail` unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie strictly above the returned rank,
    so a "p99" over 200 samples is refused rather than reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))  # 1-based nearest rank
    if n - rank < MIN_TAIL_SAMPLES:
        raise InsufficientTail(
            f"p{100 * q:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return float(ordered[rank - 1])


def geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def residual_ms(latency_s: float, queue_ms: float, exec_ms: float) -> float:
    """Client latency not spent queued or executing in the server: the
    wire, framing and (through a grid) router share of one reply."""
    return 1e3 * latency_s - queue_ms - exec_ms


# -- spans -----------------------------------------------------------------------------


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, **self.attrs}


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Synchronous code nests spans with :meth:`span`; concurrent request
    code records finished intervals with :meth:`record` and names the
    parent explicitly.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, time.perf_counter(), 0.0,
                               parent, attrs))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id].end = time.perf_counter()

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **attrs: object) -> Optional[int]:
        if not self.enabled:
            return None
        span_id = len(self.spans)
        self.spans.append(Span(span_id, name, start, end, parent, attrs))
        return span_id

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([span.to_json() for span in self.spans], handle)


# -- operation accounting --------------------------------------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed, with failures split by kind.

    ``mismatches`` are wrong answers: they fail the run.  Other failures
    (typed error codes, lost connections, crashed stages) are counted but
    say nothing about the operations that completed.
    """

    attempted: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    mismatches: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, kind: str, note: Optional[str] = None) -> None:
        self.attempted += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if kind == "mismatch":
            self.mismatches += 1
        if note is not None and len(self.notes) < 20:
            self.notes.append(note)

    def absorb(self, other: "Outcome") -> None:
        """Count ``other``'s operations as this outcome's own."""
        self.attempted += other.attempted
        for kind, count in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + count
        self.mismatches += other.mismatches
        self.notes.extend(other.notes[:max(0, 20 - len(self.notes))])

    @property
    def correct(self) -> bool:
        return self.mismatches == 0


def result_line(outcome: Outcome, metrics: Dict[str, tuple]) -> str:
    """The last stdout line: ``{"correct", "attempted", "failed", "metrics"}``.
    A value that is not finite (a p50 of mostly failed requests) is null, so
    the line stays JSON."""
    return json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def print_accounting(workload: str, outcome: Outcome) -> None:
    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in sorted(outcome.failures.items()))
    print(f"[{workload}] operations: attempted={outcome.attempted} "
          f"failed={outcome.failed}" + (f" ({kinds})" if kinds else ""),
          flush=True)
    for note in outcome.notes:
        print(f"[{workload}]   {note}", flush=True)


def print_metrics(workload: str, metrics: Dict[str, tuple],
                  label: str = "") -> None:
    for name, (value, unit) in metrics.items():
        print(f"[{workload}] {label}{name} = {value:.6g} {unit}", flush=True)


# -- child processes -------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The environment of a program under test: pinned operating point,
    the checkout's sources, temporary files inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(REPRO_SCALE=str(SCALE), REPRO_INPUT=str(INPUT_LEN),
               PYTHONPATH=str(SRC))
    tmp = temp_dir()
    if tmp is not None:
        env["TMPDIR"] = tmp
    return env


def temp_dir() -> Optional[str]:
    """:data:`TMP`, created, when a grid worker socket under it fits in
    ``sun_path``; ``None`` (the system default) in a checkout too deep."""
    if len(str(TMP)) + _GRID_SOCKET_SUFFIX > 107:
        print(f"note: {TMP} is too long for unix socket paths; the grid "
              "keeps its worker sockets in the system temporary directory",
              flush=True)
        return None
    TMP.mkdir(parents=True, exist_ok=True)
    return str(TMP)


class ChildGroups:
    """The process groups this benchmark started and has not yet stopped.

    Each program under test gets a session of its own, so stopping it also
    stops everything it spawned (a grid's workers and their resource
    tracker).  The benchmark process is the subreaper of what they leave
    behind (:func:`become_subreaper`), so an orphan that outlives its parent
    is reaped here, never left to ``init``.  :meth:`kill_all` is the signal
    handler that takes every group down with the benchmark.
    """

    def __init__(self) -> None:
        self.live: Dict[int, subprocess.Popen] = {}

    def start(self, argv: Sequence[str], **kwargs) -> subprocess.Popen:
        process = subprocess.Popen(argv, start_new_session=True, **kwargs)
        self.live[process.pid] = process
        return process

    def stop(self, process: subprocess.Popen, grace_s: float = 20.0) -> None:
        """Wait up to ``grace_s`` for ``process`` to exit; then signal its
        whole process group and wait until every member has ended and been
        reaped."""
        try:
            process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
        for sig in (signal.SIGTERM, signal.SIGKILL):
            if not self._group_left(process):
                break
            try:
                os.killpg(process.pid, sig)
            except ProcessLookupError:
                break
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and self._group_left(process):
                time.sleep(0.02)
        process.wait()
        self.reap()
        self.live.pop(process.pid, None)

    def stop_all(self, grace_s: float = 0.0) -> None:
        for process in list(self.live.values()):
            self.stop(process, grace_s)
        self.reap()

    def reap(self) -> None:
        """Reap every ended child of this process that no ``Popen`` owns:
        the orphans handed to the subreaper."""
        owned = set(self.live)
        for pid in descendants(os.getpid(), depth=1)[1:]:
            if pid not in owned:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass

    def _group_left(self, process: subprocess.Popen) -> bool:
        """Does any process of ``process``'s group remain, zombies included
        (after reaping the ones that are ours)?"""
        process.poll()
        self.reap()
        return any(_pgid_of(pid) == process.pid for pid in _pids())

    def kill_all(self, signum: int, _frame: object) -> None:
        self.stop_all()
        raise SystemExit(128 + signum)


#: Signal handlers are process-wide, so the registry they read is too.
CHILDREN = ChildGroups()

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt the orphans of every process this one starts (Linux
    ``prctl(PR_SET_CHILD_SUBREAPER)``, which acts on this process only), so
    :meth:`ChildGroups.reap` can wait for them; False where unavailable."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _pgid_of(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    return int(fields[2])


def descendants(pid: int, depth: Optional[int] = None) -> List[int]:
    """``pid`` and every process below it, down to ``depth`` generations."""
    found, frontier = [pid], [(pid, 0)]
    while frontier:
        parent, level = frontier.pop()
        if depth is not None and level >= depth:
            continue
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as handle:
                    children = [int(c) for c in handle.read().split()]
            except FileNotFoundError:
                continue
            found.extend(children)
            frontier.extend((child, level + 1) for child in children)
    return found


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``, in 10^6 bytes."""
    total_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue
    return total_kib * 1024 / 1e6
