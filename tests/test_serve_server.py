"""End-to-end tests for the match service (server, batcher, client, loadgen).

Every test spins a real :class:`MatchServer` on a unix socket inside a
private event loop and talks to it through the framed protocol — injected
toy networks keep this fast (no registry compile).
"""

import asyncio
import concurrent.futures
import contextlib
import random
import struct
import time

import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet
from repro.serve import protocol
from repro.serve.aio import read_frame
from repro.serve.batcher import BatchPolicy, MicroBatcher
from repro.serve.client import (
    AsyncServeClient,
    ConnectionLostError,
    ServeRequestError,
)
from repro.serve.loadgen import (
    LoadgenConfig,
    RequestClass,
    render_results,
    run_loadgen,
)
from repro.serve.protocol import ErrorCode, ProtocolError
from repro.serve.server import MatchServer, ServerOptions
from repro.serve.state import ServeState
from repro.sim import run
from repro.stats import validate_serve_stats
from repro.stats.recorder import StageTimer


def _chain_network(word: bytes = b"ab") -> Network:
    """One automaton matching ``word`` anywhere, reporting on its last state."""
    automaton = Automaton("chain")
    for index, symbol in enumerate(word):
        automaton.add_state(
            SymbolSet.from_symbols([symbol]),
            start=StartKind.ALL_INPUT if index == 0 else StartKind.NONE,
            reporting=index == len(word) - 1,
            report_code=f"chain:{index}" if index == len(word) - 1 else None,
        )
        if index:
            automaton.add_edge(index - 1, index)
    network = Network(f"chain-{word.decode()}")
    network.add(automaton)
    return network


@contextlib.asynccontextmanager
async def _server(tmp_path, **overrides):
    """A running server on a unix socket with two injected toy apps."""
    sock = str(tmp_path / "serve.sock")
    options = ServerOptions(unix_path=sock, warmup=False, **overrides)
    server = MatchServer(None, options)
    server.state.add_network("toy", _chain_network(b"ab"))
    server.state.add_network("toy2", _chain_network(b"abc"))
    await server.start()
    loop_task = asyncio.ensure_future(server.serve_until_stopped())
    try:
        yield server, sock
    finally:
        await server.stop()
        await asyncio.wait_for(loop_task, 10)


async def _read_reply(reader) -> protocol.Frame:
    frame = await read_frame(reader)
    assert frame is not None
    return frame


class TestMatchCorrectness:
    def test_reply_matches_scalar_run(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                data = b"xxabyababz" * 7
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", data)
                compiled = server.state.get_blocking("toy").compiled
                scalar = run(compiled, data)
                assert outcome.n_symbols == len(data)
                assert outcome.reports == [tuple(r) for r in scalar.reports.tolist()]
                assert not outcome.reports_truncated
                assert outcome.batch_size == 1  # eager when idle: dispatched alone

        asyncio.run(scenario())

    def test_empty_payload_is_a_valid_match(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", b"")
                assert outcome.n_symbols == 0
                assert outcome.reports == []

        asyncio.run(scenario())

    def test_max_reports_truncates_reply(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", b"ab" * 50, max_reports=3)
                assert len(outcome.reports) == 3
                assert outcome.reports_truncated

        asyncio.run(scenario())

    def test_two_apps_route_to_their_own_networks(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    out_ab, out_abc = await asyncio.gather(
                        client.match("toy", b"zabz"),
                        client.match("toy2", b"zabcz"),
                    )
                assert out_ab.app == "toy" and len(out_ab.reports) == 1
                assert out_abc.app == "toy2" and len(out_abc.reports) == 1

        asyncio.run(scenario())


class _SleepyEntry:
    """A stand-in app entry whose batches take ``seconds`` to execute; it
    records each batch's streams in the order the batches ran."""

    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds
        self.batches = []

    def execute_batch(self, streams):
        self.batches.append(list(streams))
        time.sleep(self.seconds)
        return [None] * len(streams)


class TestCoalescing:
    def test_concurrent_requests_batch_together(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                data = b"xyab" * 512  # big enough that a batch takes a while
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcomes = await asyncio.gather(
                        *[client.match("toy", data) for _ in range(16)]
                    )
                sizes = sorted(o.batch_size for o in outcomes)
                assert sizes[-1] >= 2, f"no coalescing happened: {sizes}"
                assert server.batcher.batched_requests == 16
                assert server.batcher.batches_dispatched < 16
                # Everyone still got the right answer.
                expected = len(run(server.state.get_blocking("toy").compiled,
                                   data).reports)
                assert all(len(o.reports) == expected for o in outcomes)

        asyncio.run(scenario())

    def test_idle_arrival_dispatches_alone(self):
        async def scenario():
            entry = _SleepyEntry("toy", 0.0)
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(BatchPolicy(), executor=pool)
                first = await batcher.submit(entry, b"a")
                second = await batcher.submit(entry, b"b")
            assert (first.batch_size, second.batch_size) == (1, 1)
            assert entry.batches == [[b"a"], [b"b"]]

        asyncio.run(scenario())

    def test_arrivals_during_a_batch_ride_the_next_batch_together(self):
        """Arrivals 10 ms apart while a 50 ms batch runs wait for its
        completion, which dispatches all three as one batch."""
        async def scenario():
            entry = _SleepyEntry("toy", 0.05)
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(BatchPolicy(), executor=pool)
                submits = [asyncio.ensure_future(batcher.submit(entry, b"a"))]
                for symbols in (b"b", b"c", b"d"):
                    await asyncio.sleep(0.01)
                    submits.append(
                        asyncio.ensure_future(batcher.submit(entry, symbols)))
                results = await asyncio.gather(*submits)
            assert [r.batch_size for r in results] == [1, 3, 3, 3]
            assert entry.batches == [[b"a"], [b"b", b"c", b"d"]]

        asyncio.run(scenario())

    def test_max_batch_splits_the_queue_in_fifo_order(self):
        async def scenario():
            entry = _SleepyEntry("toy", 0.02)
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(BatchPolicy(max_batch=2), executor=pool)
                first = asyncio.ensure_future(batcher.submit(entry, b"a"))
                await asyncio.sleep(0)  # "a" dispatches alone and runs
                results = await asyncio.gather(
                    first, *(batcher.submit(entry, s) for s in (b"b", b"c", b"d"))
                )
            assert [r.batch_size for r in results] == [1, 2, 2, 1]
            assert entry.batches == [[b"a"], [b"b", b"c"], [b"d"]]

        asyncio.run(scenario())

    def test_batcher_schedules_no_timer(self):
        """Batches form on completion only: an idle dispatch, a queue
        built behind a running batch and a max_batch split put nothing on
        the event loop's timer."""
        async def scenario():
            loop = asyncio.get_running_loop()
            timers = []
            call_later = loop.call_later

            def counting_call_later(*args, **kwargs):
                timers.append(args)
                return call_later(*args, **kwargs)

            loop.call_later = counting_call_later
            entry = _SleepyEntry("toy", 0.02)
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(BatchPolicy(max_batch=2), executor=pool)
                await batcher.submit(entry, b"a")
                second = asyncio.ensure_future(batcher.submit(entry, b"b"))
                await asyncio.sleep(0)  # "b" dispatches alone and runs
                await asyncio.gather(
                    second, *(batcher.submit(entry, s) for s in (b"c", b"d", b"e"))
                )
            assert entry.batches == [[b"a"], [b"b"], [b"c", b"d"], [b"e"]]
            assert timers == []

        asyncio.run(scenario())


class TestDeadlines:
    def test_already_expired_deadline_is_typed_and_dropped(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("toy", b"abab", deadline_ms=0.0)
                    assert info.value.code == ErrorCode.DEADLINE_EXCEEDED
                    # The connection survived; a generous deadline succeeds.
                    outcome = await client.match("toy", b"abab",
                                                 deadline_ms=60_000.0)
                    assert len(outcome.reports) == 2
                assert server.batcher.expired == 1

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_batcher_rejects_above_queue_depth(self, tmp_path):
        """Deterministic: eager dispatch takes #1, #2 queues, #3 rejected."""
        async def scenario():
            state = ServeState()
            entry = state.add_network("toy", _chain_network(b"ab"))
            batcher = MicroBatcher(BatchPolicy(max_batch=1, max_queue_depth=1))
            results = await asyncio.gather(
                batcher.submit(entry, b"ab"),
                batcher.submit(entry, b"ab"),
                batcher.submit(entry, b"ab"),
                return_exceptions=True,
            )
            codes = [r.code if isinstance(r, ProtocolError) else "ok"
                     for r in results]
            assert codes == ["ok", "ok", ErrorCode.OVERLOADED]

        asyncio.run(scenario())

    def test_server_counts_rejections(self, tmp_path):
        async def scenario():
            async with _server(tmp_path, max_queue_depth=1) as (server, sock):
                data = b"xyab" * 512
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcomes = await asyncio.gather(
                        *[client.match("toy", data) for _ in range(16)],
                        return_exceptions=True,
                    )
                ok = [o for o in outcomes if not isinstance(o, Exception)]
                rejected = [o for o in outcomes
                            if isinstance(o, ServeRequestError)]
                assert len(ok) + len(rejected) == 16
                assert all(o.code == ErrorCode.OVERLOADED for o in rejected)
                assert server.requests_rejected == len(rejected)

        asyncio.run(scenario())

    def test_drain_fails_queued_requests(self, tmp_path):
        async def scenario():
            state = ServeState()
            entry = state.add_network("toy", _chain_network(b"ab"))
            batcher = MicroBatcher(BatchPolicy(max_batch=4))
            first = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            await first  # dispatched eagerly; queue now idle
            second = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            third = asyncio.ensure_future(batcher.submit(entry, b"ab"))
            await asyncio.sleep(0)  # both submitted; the second runs
            assert batcher.queue_depth == 1  # the third waits for its batch
            await batcher.drain()
            with pytest.raises(ProtocolError) as info:
                await third
            assert info.value.code == ErrorCode.OVERLOADED
            await second  # its batch was already in flight when we drained

        asyncio.run(scenario())


class TestBatchTiming:
    def test_wait_for_executor_thread_is_queueing(self):
        """With one executor thread, app B's batch waits behind app A's:
        that wait is B's queue time, and B's exec time is its own run."""
        async def scenario():
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                batcher = MicroBatcher(BatchPolicy(), executor=pool,
                                       timer=StageTimer(enabled=True))
                first, second = await asyncio.gather(
                    batcher.submit(_SleepyEntry("A", 0.3), b"a"),
                    batcher.submit(_SleepyEntry("B", 0.02), b"b"),
                )
            assert first.exec_seconds >= 0.3
            assert second.queue_seconds >= 0.25
            assert second.exec_seconds < 0.2
            spans = {span.name: span for span in batcher.timer.spans()}
            assert spans["execute"].calls == 2
            assert spans["execute"].seconds == pytest.approx(
                first.exec_seconds + second.exec_seconds)

        asyncio.run(scenario())


class TestErrorPaths:
    def test_unknown_app_is_typed(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("no-such-app", b"ab")
                    assert info.value.code == ErrorCode.UNKNOWN_APP
                    # Typed errors are recoverable: the connection still works.
                    assert (await client.match("toy", b"ab")).n_symbols == 2

        asyncio.run(scenario())

    def test_disallowed_registry_app_is_typed(self, tmp_path):
        async def scenario():
            # Serve only toy networks; a real registry app must be refused
            # without compiling anything.
            async with _server(tmp_path, max_apps=2) as (server, sock):
                server.state.allowed = []
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.match("Snort", b"ab")
                    assert info.value.code == ErrorCode.UNKNOWN_APP

        asyncio.run(scenario())


class TestClientConnectionLoss:
    """Regression: a connection that dies mid-flight must fail every
    pending future with the typed :class:`ConnectionLostError` — and every
    later request too — instead of leaving callers hung on futures whose
    replies can never arrive (the grid router's failover trigger)."""

    def test_mid_flight_kill_fails_pending_and_later_requests(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "stub.sock")

            async def swallow_and_die(reader, writer):
                await reader.read(64)  # accept part of the request, then die
                writer.close()

            stub = await asyncio.start_unix_server(swallow_and_die, path=sock)
            try:
                client = await AsyncServeClient.open(unix_path=sock)
                with pytest.raises(ConnectionLostError):
                    await client.match("toy", b"abcd")
                # Terminal: the client never offers the dead connection again.
                assert not client.connected
                with pytest.raises(ConnectionLostError):
                    await client.ping()
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())

    def test_kill_with_many_requests_parked_fails_all_of_them(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "stub.sock")
            writers = []

            async def park_forever(reader, writer):
                writers.append(writer)
                await reader.read(1 << 16)  # never reply

            stub = await asyncio.start_unix_server(park_forever, path=sock)
            try:
                client = await AsyncServeClient.open(unix_path=sock)
                parked = [asyncio.ensure_future(client.match("toy", b"abcd"))
                          for _ in range(8)]
                await asyncio.sleep(0.05)  # all eight are in flight
                assert not any(f.done() for f in parked)
                for writer in writers:
                    writer.close()  # the "worker" dies mid-flight
                results = await asyncio.gather(*parked, return_exceptions=True)
                assert len(results) == 8
                assert all(isinstance(r, ConnectionLostError) for r in results)
                # ...and it is a ConnectionError subclass, so existing
                # broad handlers keep working.
                assert all(isinstance(r, ConnectionError) for r in results)
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())

    @pytest.mark.parametrize("sent", [
        protocol.reply_frame(1, "toy", n_symbols=4, reports=[], truncated=False,
                             batch_size=1, queue_ms=0.0, exec_ms=0.0)[:5],
        protocol.reply_frame(1, "toy", n_symbols=4, reports=[], truncated=False,
                             batch_size=1, queue_ms=0.0, exec_ms=0.0)[:-5],
    ], ids=["mid_preamble", "mid_header"])
    def test_reply_cut_off_mid_frame_is_connection_lost(self, tmp_path, sent):
        """The client reads replies with the server's frame reader; a
        reply cut off mid-frame still fails the request with the typed
        :class:`ConnectionLostError`."""
        async def scenario():
            sock = str(tmp_path / "stub.sock")

            async def reply_part_and_die(reader, writer):
                await reader.read(64)
                writer.write(sent)
                await writer.drain()
                writer.close()

            stub = await asyncio.start_unix_server(reply_part_and_die, path=sock)
            try:
                client = await AsyncServeClient.open(unix_path=sock)
                with pytest.raises(ConnectionLostError):
                    await client.match("toy", b"abcd")
                assert not client.connected
                await client.close()
            finally:
                stub.close()
                await stub.wait_closed()

        asyncio.run(scenario())

    def test_server_side_errors_do_not_terminal_state_the_client(self, tmp_path):
        """Null-id error frames (connection-level, but recoverable) fail
        the in-flight requests without poisoning the connection."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError):
                        await client.match("no-such-app", b"ab")
                    assert client.connected
                    assert (await client.match("toy", b"ab")).n_symbols == 2

        asyncio.run(scenario())


class TestMalformedFramesOverTheWire:
    def test_bad_magic_gets_error_reply_then_close(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"XX" + protocol.control_frame("ping", 1)[2:])
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["type"] == "error"
                assert reply.header["code"] == ErrorCode.BAD_FRAME
                assert await reader.read() == b""  # server closed the stream
                writer.close()

        asyncio.run(scenario())

    def test_oversized_length_gets_error_reply_then_close(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(struct.pack(
                    ">2sBxII", protocol.MAGIC, protocol.PROTOCOL_VERSION,
                    protocol.MAX_HEADER_BYTES + 1, 0,
                ))
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["code"] == ErrorCode.FRAME_TOO_LARGE
                assert await reader.read() == b""
                writer.close()

        asyncio.run(scenario())

    def test_bad_json_header_keeps_the_connection_framed(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                reader, writer = await asyncio.open_unix_connection(sock)
                raw = b"{broken json"
                writer.write(struct.pack(
                    ">2sBxII", protocol.MAGIC, protocol.PROTOCOL_VERSION,
                    len(raw), 0,
                ) + raw)
                await writer.drain()
                reply = await _read_reply(reader)
                assert reply.header["code"] == ErrorCode.BAD_HEADER
                # Recoverable: a valid frame on the same connection still works.
                writer.write(protocol.control_frame("ping", 5))
                await writer.drain()
                pong = await _read_reply(reader)
                assert pong.header["type"] == "pong"
                assert pong.header["id"] == 5
                writer.close()

        asyncio.run(scenario())

    def test_truncated_preamble_then_disconnect_does_not_kill_server(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                _reader, writer = await asyncio.open_unix_connection(sock)
                writer.write(b"RS\x01")  # 3 of 12 preamble bytes
                await writer.drain()
                writer.close()
                # Server must survive; prove it with a fresh client.
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()

        asyncio.run(scenario())

    def test_server_survives_random_garbage_corpus(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (server, sock):
                rng = random.Random(0xF022)
                for _ in range(25):
                    _reader, writer = await asyncio.open_unix_connection(sock)
                    blob = bytes(rng.randrange(256)
                                 for _ in range(rng.randrange(1, 200)))
                    writer.write(blob)
                    await writer.drain()
                    writer.close()
                    with contextlib.suppress(ConnectionError):
                        await writer.wait_closed()
                # Still serving, and the stats export is still schema-valid.
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()
                    document = await client.stats()
                validate_serve_stats(document)

        asyncio.run(scenario())


class TestStatsAndLifecycle:
    def test_stats_document_validates_and_adds_up(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    await client.ping()
                    await client.match("toy", b"abab")
                    with contextlib.suppress(ServeRequestError):
                        await client.match("nope", b"ab")
                    document = await client.stats()
                validate_serve_stats(document)
                requests = document["requests"]
                assert requests["received"] >= 4
                assert requests["errors"] == 1
                assert document["errors_by_code"] == [
                    {"code": ErrorCode.UNKNOWN_APP, "count": 1}
                ]
                assert document["batches"]["dispatched"] >= 1
                stage_names = {span["name"] for span in document["stages"]}
                assert {"execute", "request", "reply"} <= stage_names

        asyncio.run(scenario())

    def test_remote_shutdown_stops_the_server(self, tmp_path):
        async def scenario():
            sock = str(tmp_path / "serve.sock")
            server = MatchServer(None, ServerOptions(unix_path=sock,
                                                     warmup=False))
            server.state.add_network("toy", _chain_network(b"ab"))
            await server.start()
            loop_task = asyncio.ensure_future(server.serve_until_stopped())
            client = await AsyncServeClient.open(unix_path=sock)
            await client.shutdown()
            await client.close()
            await asyncio.wait_for(loop_task, 10)  # returned on its own

        asyncio.run(scenario())

    def test_shutdown_frames_can_be_disabled(self, tmp_path):
        async def scenario():
            async with _server(tmp_path, allow_shutdown=False) as (_s, sock):
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    with pytest.raises(ServeRequestError) as info:
                        await client.shutdown()
                    assert info.value.code == ErrorCode.SHUTDOWN_DISABLED
                    await client.ping()  # still serving

        asyncio.run(scenario())

    def test_lru_keeps_at_most_max_apps(self):
        state = ServeState(max_apps=1)
        state.add_network("one", _chain_network(b"ab"))
        state.add_network("two", _chain_network(b"abc"))
        assert state.resident() == ["two"]
        assert state.evictions == 1

    def test_warmup_compiles_and_runs_injected_apps(self):
        state = ServeState()
        state.add_network("toy", _chain_network(b"ab"))
        assert state.warmup(["toy"]) == ["toy"]
        assert state.timer.calls("warmup") == 1

    def test_lazydfa_backend_serves_injected_network(self):
        from repro.sim import reference_run

        state = ServeState(backend="lazydfa")
        network = _chain_network(b"ab")
        entry = state.add_network("toy", network)
        assert entry.backend == "lazydfa"
        assert entry.lazydfa is not None
        data = b"xabababx"
        (got,) = entry.execute_batch([data])
        expected = reference_run(network, data)
        assert (got.reports == expected.reports).all()

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="serve backend"):
            ServeState(backend="systolic")

    def test_multistream_is_a_synonym_for_the_default(self):
        state = ServeState(backend="multistream")
        assert state.backend == ServeState().backend == "lazydfa"
        entry = state.add_network("toy", _chain_network(b"ab"))
        assert entry.backend == "lazydfa" and entry.prepared is entry.lazydfa


class TestServeDefaults:
    """``repro serve`` runs the lazy table on one executor thread unless
    told otherwise; the NFA walk stays one flag away."""

    def test_server_options_state_and_executor_defaults(self):
        options = ServerOptions()
        assert options.backend == "lazydfa" and options.workers == 1
        server = MatchServer(None, options)
        assert server.state.backend == "lazydfa"
        assert server._executor._max_workers == 1
        server._executor.shutdown()

    def test_cli_defaults_match_server_options(self, monkeypatch):
        from repro import __main__ as cli

        parsed = []
        monkeypatch.setattr(cli, "_cmd_serve", lambda args: parsed.append(args) or 0)
        assert cli.main(["serve"]) == 0
        assert cli.main(["serve", "--backend", "bitpacked", "--workers", "2"]) == 0
        defaults, chosen = parsed
        assert (defaults.backend, defaults.workers) == (
            ServerOptions().backend, ServerOptions().workers)
        assert (chosen.backend, chosen.workers) == ("bitpacked", 2)

    @pytest.mark.parametrize("backend", ["lazydfa", "bitpacked"])
    def test_each_backend_serves_the_scalar_reports(self, tmp_path, backend):
        async def scenario():
            async with _server(tmp_path, backend=backend) as (server, sock):
                entry = server.state.get_blocking("toy")
                assert entry.backend == backend
                data = b"xxabyababz" * 7
                async with await AsyncServeClient.open(unix_path=sock) as client:
                    outcome = await client.match("toy", data)
                scalar = run(entry.compiled, data)
                assert outcome.reports == [tuple(r) for r in scalar.reports.tolist()]

        asyncio.run(scenario())


class TestLoadgen:
    def test_closed_loop_counts_every_request(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["toy", "toy2"], requests=24,
                                       concurrency=4, input_len=64,
                                       unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 24
                assert result.errors == 0
                assert result.rps > 0
                assert len(result.latencies_ms) == 24
                assert result.percentile(50) <= result.percentile(99)
                table = render_results([result])
                assert "closed" in table and "p99ms" in table
                payload = result.to_json()
                assert payload["ok"] == 24
                assert payload["latency_ms"]["p50"] > 0

        asyncio.run(scenario())

    def test_open_loop_paces_arrivals(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["toy"], requests=10,
                                       concurrency=2, mode="open", rate=500.0,
                                       input_len=32, unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 10
                assert result.errors == 0
                # 10 arrivals at 500/s cannot finish faster than 18ms.
                assert result.elapsed_s >= 9 / 500.0

        asyncio.run(scenario())

    def test_rate_clock_starts_after_the_connections_open(self, tmp_path):
        """A round started before its server binds does not count the wait
        for the server in its elapsed time, and so not in its rps."""
        bind_delay = 1.0

        async def scenario():
            config = LoadgenConfig(apps=["toy"], requests=8, concurrency=2,
                                   input_len=32,
                                   unix_path=str(tmp_path / "serve.sock"))
            round_task = asyncio.ensure_future(run_loadgen(config))
            await asyncio.sleep(bind_delay)
            assert not round_task.done()  # still retrying the connect
            async with _server(tmp_path):
                result = await round_task
            assert result.ok == 8
            assert result.elapsed_s < bind_delay / 2

        asyncio.run(scenario())

    def test_loadgen_counts_typed_errors_instead_of_raising(self, tmp_path):
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(apps=["no-such-app"], requests=5,
                                       concurrency=2, input_len=16,
                                       unix_path=sock)
                result = await run_loadgen(config)
                assert result.ok == 0
                assert result.errors == 5
                assert result.errors_by_code == {ErrorCode.UNKNOWN_APP: 5}

        asyncio.run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadgenConfig(apps=[])
        with pytest.raises(ValueError):
            LoadgenConfig(apps=["toy"], mode="open")  # open loop needs a rate
        with pytest.raises(ValueError):
            LoadgenConfig(apps=["toy"], mode="sideways")
        with pytest.raises(ValueError, match="open-loop"):
            LoadgenConfig(apps=["toy"], duration_s=1.0)  # closed + duration
        with pytest.raises(ValueError, match="positive"):
            LoadgenConfig(apps=["toy"], mode="open", rate=10.0, duration_s=0.0)
        with pytest.raises(ValueError, match="non-empty"):
            LoadgenConfig(apps=["toy"], classes=())
        with pytest.raises(ValueError, match="positive weight"):
            RequestClass("batch", weight=0.0)

    def test_duration_overrides_request_count(self):
        config = LoadgenConfig(apps=["toy"], requests=5, mode="open",
                               rate=40.0, duration_s=0.5)
        assert config.total_requests() == 20  # ceil(40 * 0.5), not 5

    def test_open_loop_duration_with_weighted_classes(self, tmp_path):
        """The overload-sweep shape: a fixed-duration open loop split into
        weighted classes, each with its own deadline and percentiles."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=4, mode="open", rate=400.0,
                    duration_s=0.25, input_len=32, unix_path=sock,
                    classes=(
                        RequestClass("interactive", weight=3.0,
                                     deadline_ms=60_000.0),
                        RequestClass("batch", weight=1.0),
                    ),
                )
                result = await run_loadgen(config)
                total = config.total_requests()
                assert result.ok == total and result.errors == 0
                assert set(result.classes) == {"interactive", "batch"}
                per_class = result.classes
                assert sum(c.ok for c in per_class.values()) == total
                # 3:1 weights: interactive dominates (seed-stable split).
                assert per_class["interactive"].ok > per_class["batch"].ok
                payload = result.to_json()
                assert payload["requests"] == total
                assert payload["overloaded"] == 0
                assert payload["classes"]["interactive"]["latency_ms"]["p50"] > 0
                table = render_results([result])
                assert "class interactive" in table and "class batch" in table

        asyncio.run(scenario())

    def test_expired_deadlines_count_per_class(self, tmp_path):
        """A class whose deadline is already expired collects typed
        DEADLINE_EXCEEDED rejections; the other class is untouched."""
        async def scenario():
            async with _server(tmp_path) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=2, mode="open", rate=500.0,
                    duration_s=0.1, input_len=16, unix_path=sock, seed=3,
                    classes=(
                        RequestClass("doomed", weight=1.0, deadline_ms=0.0),
                        RequestClass("fine", weight=1.0),
                    ),
                )
                result = await run_loadgen(config)
                doomed, fine = result.classes["doomed"], result.classes["fine"]
                assert doomed.ok == 0
                assert doomed.deadline_exceeded == doomed.errors > 0
                assert fine.errors == 0 and fine.ok > 0
                assert result.deadline_exceeded == doomed.deadline_exceeded
                assert result.ok == fine.ok
                json_doc = result.to_json()
                assert json_doc["deadline_exceeded"] == doomed.errors
                assert json_doc["classes"]["doomed"]["deadline_exceeded"] \
                    == doomed.errors

        asyncio.run(scenario())

    def test_overloaded_rejections_are_counted_not_raised(self, tmp_path):
        """Open-loop overload against a tiny admission bound: the round
        completes, with OVERLOADED counted on the result (the bounded-p99
        contract the grid bench asserts)."""
        async def scenario():
            async with _server(tmp_path, max_queue_depth=1) as (_server_obj, sock):
                config = LoadgenConfig(
                    apps=["toy"], concurrency=8, mode="open", rate=2000.0,
                    duration_s=0.2, input_len=2048, unix_path=sock,
                )
                result = await run_loadgen(config)
                assert result.ok + result.errors == config.total_requests()
                assert result.overloaded == result.errors > 0
                assert result.errors_by_code[ErrorCode.OVERLOADED] \
                    == result.overloaded

        asyncio.run(scenario())
