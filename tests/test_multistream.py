"""Multi-stream batches: several streams through one ``AppEntry.execute_batch``.

A serving batch is a series of independent walks, one per stream, through
the entry's registered engine.  Streams may be ragged, empty or absent;
every stream's result must equal its own reference run, on every engine a
server can batch on.
"""

import numpy as np
import pytest

from repro.nfa.automaton import Automaton, Network, StartKind
from repro.nfa.symbolset import SymbolSet
from repro.serve.state import ServeState
from repro.sim import get_engine, reference_run, reports_equal

#: The engines a server batches on: the NFA engine and the two DFA engines.
BACKENDS = ("bitpacked", "dfa", "lazydfa")


def _chain_network(word: bytes = b"ab", eod: bool = False) -> Network:
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
    if eod:
        automaton.state(len(word) - 1).eod = True
    network = Network("chain-net")
    network.add(automaton)
    return network


def _entries(network: Network):
    """One resident entry per serving backend, all over ``network``."""
    for backend in BACKENDS:
        entry = ServeState(backend=backend).add_network("chain", network)
        assert entry.backend == backend
        yield entry


def _assert_matches_reference(network, streams, results, backend):
    assert len(results) == len(streams), backend
    for stream, got in zip(streams, results):
        want = reference_run(network, stream)
        assert reports_equal(got.reports, want.reports), backend
        assert got.cycles == got.n_symbols == len(stream), backend


class TestRunMulti:
    def test_no_streams(self):
        for entry in _entries(_chain_network()):
            assert entry.execute_batch([]) == [], entry.backend

    def test_single_stream_matches_scalar(self):
        network = _chain_network()
        data = b"xxabyabz"
        for entry in _entries(network):
            results = entry.execute_batch([data])
            _assert_matches_reference(network, [data], results, entry.backend)

    def test_empty_stream_among_live_ones(self):
        for entry in _entries(_chain_network()):
            results = entry.execute_batch([b"ab", b"", b"xabab"])
            assert [r.n_symbols for r in results] == [2, 0, 5], entry.backend
            assert results[0].reports.shape[0] == 1
            assert results[1].reports.size == 0
            assert results[2].reports.shape[0] == 2

    def test_all_streams_empty(self):
        for entry in _entries(_chain_network()):
            results = entry.execute_batch([b"", b""])
            assert all(r.reports.size == 0 and r.cycles == 0 for r in results)

    def test_all_streams_empty_with_tracking(self):
        # Empty streams must still produce a correctly-shaped (all-zero) hot
        # set, on every engine a batch can run on.
        for entry in _entries(_chain_network()):
            run = get_engine(entry.backend).run
            for result in entry.execute_batch([b"", b""]) + [
                run(entry.prepared, b"", track_enabled=True)
            ]:
                assert result.hot_count() == 0, entry.backend
                assert result.ever_enabled.shape == (1,), entry.backend

    def test_ragged_eod_fires_at_each_streams_own_end(self):
        # End-of-data reporters must fire at each stream's final position,
        # not the longest stream's.
        network = _chain_network(eod=True)
        short, long = b"ab", b"abxxab"
        for entry in _entries(network):
            results = entry.execute_batch([short, long])
            _assert_matches_reference(network, [short, long], results, entry.backend)
            assert results[0].reports.shape[0] == 1  # "ab" ends at position 1
            assert results[1].reports.shape[0] == 1  # only the final "ab" reports

    def test_identical_streams_identical_results(self):
        for entry in _entries(_chain_network()):
            results = entry.execute_batch([b"abab"] * 5)
            for result in results[1:]:
                assert reports_equal(result.reports, results[0].reports)

    def test_rejects_bad_input(self):
        for entry in _entries(_chain_network()):
            with pytest.raises(ValueError):
                entry.execute_batch([np.array([1.5, 2.5])])
