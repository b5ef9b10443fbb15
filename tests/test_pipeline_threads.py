"""Thread-safety regressions for the AppRun pipeline cache.

The match server (``repro.serve``) shares the pipeline cache between the
asyncio loop and its executor workers, so ``get_run`` must hand every
thread the *same* run object and the lazy construction stages must compute
exactly once however many threads race on first access.
"""

import threading

from repro.experiments.config import ExperimentConfig
from repro.experiments.pipeline import clear_cache, get_run

# A deliberately tiny operating point so a hammering test stays fast.
CONFIG = ExperimentConfig(scale=2048, input_len=64)
N_THREADS = 8
N_ROUNDS = 25


def _hammer(worker, n_threads=N_THREADS):
    barrier = threading.Barrier(n_threads)
    failures = []

    def body(index):
        try:
            barrier.wait()
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            failures.append(exc)

    threads = [threading.Thread(target=body, args=(i,)) for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures


class TestGetRunThreadSafety:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def test_same_key_yields_one_instance(self):
        seen = [None] * N_THREADS

        def worker(index):
            for _ in range(N_ROUNDS):
                seen[index] = get_run("LV", CONFIG)

        _hammer(worker)
        assert all(run is seen[0] for run in seen)

    def test_distinct_keys_do_not_collide(self):
        apps = ["LV", "HM", "Bro217", "Fermi"]
        seen = {}
        mutex = threading.Lock()

        def worker(index):
            for round_no in range(N_ROUNDS):
                abbr = apps[(index + round_no) % len(apps)]
                run = get_run(abbr, CONFIG)
                assert run.spec.abbr == abbr
                with mutex:
                    previous = seen.setdefault(abbr, run)
                assert previous is run

        _hammer(worker)
        assert len(seen) == len(apps)

    def test_clear_cache_concurrent_with_lookups(self):
        def worker(index):
            for _ in range(N_ROUNDS):
                if index % 2:
                    clear_cache()
                else:
                    run = get_run("LV", CONFIG)
                    assert run.spec.abbr == "LV"

        _hammer(worker)

    def test_lazy_compile_races_compute_once(self):
        run = get_run("LV", CONFIG)
        compiled = [None] * N_THREADS
        cores = [None] * N_THREADS

        def worker(index):
            compiled[index] = run.compiled
            cores[index] = run.subset_core(run.network)

        _hammer(worker)
        assert all(c is compiled[0] for c in compiled)
        assert all(core is cores[0] for core in cores)
        # Double-checked locking admitted exactly one compute per stage.
        assert run.stats.calls("build") == 1
        assert run.stats.calls("compile") == 1


class TestCompiledDfaFlatTableThreadSafety:
    """The CompiledDFA hot-loop table build races (repro.sim.dfa).

    ``run_tables`` materializes its flat transition list lazily; the serve
    executor calls ``dfa_run`` from several workers at once, so the first
    batch after compilation races threads on that build.  The regression:
    the build used to be unguarded, so racing threads could each build a
    list and — worse — a reader could observe a partially initialized
    object had the assignment not been a single post-build store.  Pinned
    here: every racing thread gets the *same* list object back and the
    concurrent runs stay bit-identical to a serial run.
    """

    def test_run_tables_race_yields_one_list(self):
        from repro.experiments.pipeline import clear_cache, get_run

        clear_cache()
        run = get_run("Bro217", CONFIG)  # DFA-safe at this operating point
        compiled = run.compiled_dfa
        flats = [None] * N_THREADS

        def worker(index):
            flats[index], _, _ = compiled.run_tables()

        _hammer(worker)
        assert all(flat is flats[0] for flat in flats)

    def test_concurrent_dfa_runs_match_serial(self):
        from repro.experiments.pipeline import clear_cache, get_run
        from repro.sim import compile_dfa, dfa_run, reports_equal

        clear_cache()
        run = get_run("Bro217", CONFIG)
        data = run.test_input
        expected = dfa_run(run.compiled_dfa, data)
        # A fresh artifact per round so every round races the lazy build.
        for _ in range(3):
            target = compile_dfa(run.network)
            results = [None] * N_THREADS

            def worker(index, target=target):
                results[index] = dfa_run(target, data)

            _hammer(worker)
            for result in results:
                assert reports_equal(result.reports, expected.reports)
