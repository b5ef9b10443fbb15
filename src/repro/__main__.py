"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-apps`` — the 26-application registry with Table II statistics.
* ``run-app ABBR`` — run one application through all three scenarios.
* ``figure NAME`` — regenerate one paper figure/table (e.g. ``fig10``).
* ``report [OUT.md]`` — regenerate the full EXPERIMENTS.md.
* ``sweep [ABBR ...]`` — run the whole workload (or a subset) through the
  pipeline, fanned across cores with a process pool.
* ``stats [ABBR ...|--all]`` — unified runtime statistics: every §VI
  counter (cycles, stalls, queue refills, device traffic, hot fractions,
  prediction quality) plus per-stage wall times, as text or versioned
  JSON (``repro.stats``).
* ``verify [ABBR ...|--all]`` — static verification (the automata
  sanitizer): lint networks and prove the partition/batch-plan invariants
  without running any simulation.
* ``semant [ABBR ...|--all]`` — semantic static analysis
  (``repro.semant``): the abstract-interpretation dead-state prover, the
  profile-free hot/cold predictor, and the differential SPAP-S checks
  against the profiler and the simulation ground truth.
* ``cost [ABBR ...|--all]`` — compilability and cost analysis
  (``repro.cost``): budgeted subset-construction DFA-safety proofs,
  symbol-class table compression, and the calibrated per-backend cost
  model, fused into per-partition advisories (SPAP-C diagnostics);
  ``--check`` replays every safety proof through real determinization.
* ``reduce [ABBR ...|--all]`` — equivalence-preserving reduction
  (``repro.reduce``): forward/backward bisimulation partition refinement
  fused with semant's dead/never-reporting proofs, re-priced through the
  cost model (SPAP-R diagnostics); ``--check`` replays the reduced
  network through the reference engine and compares lifted reports and
  witness masks against the unreduced ground truth (SPAP-R001).
* ``serve --apps A,B [--port N|--unix PATH]`` — the long-running match
  service (``repro.serve``): framed requests in, micro-batched
  dispatches out.
* ``loadgen --apps A,B [--port N|--unix PATH]`` — drive a running server
  in open or closed loop, optionally sweeping concurrency, and report
  throughput plus p50/p95/p99 latency; ``--duration`` with ``--rate``
  runs a fixed-arrival-rate overload round, and ``--classes`` splits
  traffic into weighted deadline classes with per-class percentiles.
* ``grid --apps A,B --workers N [--port P|--unix PATH]`` — the sharded
  multi-process serving grid (``repro.grid``): compiles the apps into a
  network store, spawns N worker processes each serving its shard, and
  routes the framed protocol by app with replication, load-spill, and
  write-behind stats merging (DESIGN.md §16).

Application names accept the registry abbreviations plus paper-table
aliases (``SNT`` for ``Snort``), case-insensitively.  Unknown application
or figure names exit with status 2 and a "did you mean" suggestion;
``verify``, ``semant``, and ``cost`` exit 1 when any rule of ERROR
severity fires.
``--no-verify`` on the experiment commands disables the pipeline's
fail-fast invariant checks (see ``repro.verify``).
``--backend NAME|auto`` on ``run-app``, ``sweep``, and ``serve`` selects
the execution engine per DESIGN.md §13-§14.  ``auto`` follows the cost
advisory with silent bitpacked fallback when the choice is infeasible;
an explicit name fails loudly when infeasible unless ``--backend-fallback``
opts into the substitution.
``--reduce`` on ``run-app``, ``sweep``, and ``serve`` routes execution
through the SPAP-R-reduced network (DESIGN.md §15); reports are lifted
back to original state ids, so outputs stay bit-identical.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from dataclasses import replace
from typing import Iterable, List, Optional

from .cost.model import BACKENDS as _BACKEND_CHOICES
from .experiments import default_config
from .experiments import figures as _figures
from .experiments.config import ExperimentConfig
from .experiments.pipeline import get_run
from .experiments.report import generate_report
from .experiments.tables import render_table
from .workloads.registry import APPS, app_names, resolve_abbr

_FIGURES = {
    "fig01": _figures.fig01_hot_states,
    "fig05": _figures.fig05_depth_distribution,
    "fig06": _figures.fig06_ideal_model,
    "fig08": _figures.fig08_constrained_states,
    "fig10": _figures.fig10_speedup_and_savings,
    "fig11": _figures.fig11_performance_per_ste,
    "fig12": _figures.fig12_reporting_states,
    "fig13": _figures.fig13_capacity_sensitivity,
    "table1": _figures.table1_profiling_effectiveness,
    "table2": _figures.table2_applications,
    "table4": _figures.table4_runtime_statistics,
}


def _unknown_name(kind: str, name: str, candidates: Iterable[str]) -> int:
    """Report an unknown app/figure name with a close-match suggestion."""
    pool = list(candidates)
    message = f"unknown {kind} {name!r}"
    close = difflib.get_close_matches(name, pool, n=3, cutoff=0.5)
    if close:
        message += "; did you mean " + " or ".join(repr(c) for c in close) + "?"
    else:
        message += f"; known: {', '.join(pool)}"
    print(message, file=sys.stderr)
    return 2


def _config_for(args) -> ExperimentConfig:
    config = default_config()
    if getattr(args, "no_verify", False):
        config = replace(config, verify=False)
    return config


def _resolve_apps(names: Iterable[str]) -> Optional[List[str]]:
    """Canonical abbreviations for ``names``, or ``None`` after reporting
    the first unknown one (callers exit 2)."""
    resolved: List[str] = []
    for name in names:
        canonical = resolve_abbr(name)
        if canonical is None:
            _unknown_name("application", name, app_names())
            return None
        resolved.append(canonical)
    return resolved


def _resolve_targets(args) -> Optional[List[str]]:
    """The applications ``stats``, ``verify``, ``semant``, ``cost`` and
    ``reduce`` run on: the registry with ``--all``, else the named ones, or
    ``None`` after reporting a usage error (callers exit 2)."""
    if args.all:
        return app_names()
    if not args.apps:
        print(f"{args.command}: name at least one application or pass --all",
              file=sys.stderr)
        return None
    return _resolve_apps(args.apps)


def _cmd_list_apps(_args) -> int:
    rows = []
    for abbr in app_names():
        spec = APPS[abbr]
        rows.append([
            abbr, spec.full_name, spec.group,
            spec.paper.states, spec.paper.nfas, spec.paper.max_topo,
        ])
    print(render_table(
        ["Abbr", "Application", "Group", "States(paper)", "NFAs", "MaxTopo"], rows
    ))
    return 0


def _cmd_run_app(args) -> int:
    resolved = _resolve_apps([args.app])
    if resolved is None:
        return 2
    (args.app,) = resolved
    config = _config_for(args)
    run = get_run(args.app, config)
    ap = config.half_core
    baseline = run.baseline(ap)
    spap = run.base_spap(args.profile, ap)
    cpu = run.ap_cpu(args.profile, ap)
    print(f"{args.app}: {run.network.n_states} states, "
          f"{run.network.n_automata} NFAs, AP capacity {ap.capacity}")
    print(f"  baseline AP : {baseline.n_batches} batches, {baseline.cycles} cycles")
    print(f"  BaseAP/SpAP : {spap.n_hot_batches} hot batches + "
          f"{spap.spap_cycles} SpAP cycles "
          f"({spap.n_intermediate_reports} reports, {spap.spap_stall_cycles} stalls) "
          f"-> {baseline.cycles / spap.cycles:.2f}x")
    print(f"  AP-CPU      : {1e6 * cpu.cpu_seconds:.1f} us handler "
          f"-> {baseline.seconds(ap) / cpu.seconds(ap):.2f}x")
    if args.reduce:
        reduction = run.reduced
        print(f"  reduce      : {reduction.parent_n_states} -> "
              f"{reduction.n_states} states "
              f"({100 * reduction.saving_fraction:.1f}% saved; "
              f"{reduction.n_dead_stripped} dead, "
              f"{reduction.n_backward_merged} backward-merged)")
    if args.backend is not None:
        import time as _time

        from .sim import BackendInfeasibleError

        try:
            name, engine = run.select_backend(
                args.backend, args.profile,
                allow_fallback=True if args.backend_fallback else None,
                reduce=args.reduce,
            )
        except BackendInfeasibleError as err:
            print(f"run-app: {err}", file=sys.stderr)
            return 2
        prepared = (run.reduced_prepared_for(name) if args.reduce
                    else run.prepared_for(name))
        data = run.test_input
        engine.run(prepared, data)  # warm lazy tables/dispatch paths
        began = _time.perf_counter()
        result = engine.run(prepared, data)
        elapsed = _time.perf_counter() - began
        if args.reduce:
            result = run.reduced.lift_result(result)
        mb_s = len(data) / elapsed / 1e6 if elapsed > 0 else 0.0
        note = "" if name == args.backend or args.backend == "auto" \
            else f" (requested {args.backend}, infeasible)"
        print(f"  backend     : {name}{note} -> {mb_s:.2f} MB/s, "
              f"{result.reports.shape[0]} reports")
    return 0


def _cmd_figure(args) -> int:
    fn = _FIGURES.get(args.name)
    if fn is None:
        return _unknown_name("figure", args.name, _FIGURES)
    print(fn(_config_for(args)).render())
    return 0


def _cmd_report(args) -> int:
    text = generate_report(_config_for(args))
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"wrote {args.output}")
    return 0


def _cmd_sweep(args) -> int:
    import json as _json
    import time as _time

    from .experiments.sweep import SweepError, render_sweep, run_sweep, sweep_summary

    targets = None
    if args.apps:
        targets = _resolve_apps(args.apps)
        if targets is None:
            return 2
    began = _time.perf_counter()
    try:
        rows = run_sweep(targets, _config_for(args),
                         fraction=args.profile, jobs=args.jobs,
                         backend=args.backend,
                         backend_fallback=args.backend_fallback,
                         reduce=args.reduce)
    except SweepError as err:
        print(f"sweep failed at {err} (other applications were not run to "
              "completion; --no-verify skips the fail-fast checks)",
              file=sys.stderr)
        return 1
    elapsed = _time.perf_counter() - began
    if args.json:
        print(_json.dumps([row.to_json() for row in rows], indent=2))
    else:
        print(render_sweep(rows))
        summary = sweep_summary(rows)
        busy = sum(row.seconds for row in rows)
        print(f"{len(rows)} applications in {elapsed:.1f}s wall "
              f"({busy:.1f}s of per-app work)")
        print(f"geomean speedups: SpAP {summary['geomean_spap_speedup']:.2f}x, "
              f"AP-CPU {summary['geomean_ap_cpu_speedup']:.2f}x; "
              f"mean prediction accuracy "
              f"{summary['mean_prediction_accuracy']:.3f} profiled / "
              f"{summary['mean_static_accuracy']:.3f} static; "
              f"{summary['total_intermediate_reports']} intermediate reports, "
              f"{summary['total_queue_refills']} queue refills, "
              f"{summary['total_device_bytes']} device bytes")
        print(f"reduce: mean saving "
              f"{100 * summary['mean_reduce_saving']:.1f}%, "
              f"geomean state ratio "
              f"{summary['geomean_reduce_state_ratio']:.3f}")
    return 0


def _cmd_stats(args) -> int:
    import json as _json

    from .stats import collect_run_stats, render_stats, validate_stats

    targets = _resolve_targets(args)
    if targets is None:
        return 2

    config = _config_for(args)
    documents = []
    for abbr in targets:
        stats = collect_run_stats(abbr, config, fraction=args.profile)
        if args.json:
            document = stats.to_json()
            validate_stats(document)  # never emit a schema-invalid export
            documents.append(document)
        else:
            print(render_stats(stats))
    if args.json:
        payload = documents[0] if len(documents) == 1 else documents
        print(_json.dumps(payload, indent=2))
    return 0


def _cmd_verify(args) -> int:
    from .verify.app import verify_app

    targets = _resolve_targets(args)
    if targets is None:
        return 2

    config = default_config()
    failed = 0
    payload = []
    for abbr in targets:
        report = verify_app(abbr, config, fraction=args.profile)
        if args.json:
            payload.append(report.to_json())
        else:
            if report.errors or (report.warnings and args.verbose):
                print(report.render_text(verbose=args.verbose))
            else:
                print(report.summary())
        failed += 0 if report.ok else 1
    if args.json:
        import json as _json

        print(_json.dumps(payload, indent=2))
    elif len(targets) > 1:
        print(f"{len(targets) - failed}/{len(targets)} applications verified clean")
    return 1 if failed else 0


def _cmd_semant(args) -> int:
    from .semant.app import semant_app

    targets = _resolve_targets(args)
    if targets is None:
        return 2

    config = default_config()
    failed = 0
    payload = []
    for abbr in targets:
        outcome = semant_app(abbr, config,
                             fraction=args.profile, horizon=args.horizon)
        if args.json:
            payload.append(outcome.to_json())
        else:
            print(outcome.summary.render())
            report = outcome.report
            if report.errors or (report.warnings and args.verbose):
                print(report.render_text(verbose=args.verbose))
        failed += 0 if outcome.ok else 1
    if args.json:
        import json as _json

        print(_json.dumps(payload, indent=2))
    elif len(targets) > 1:
        print(f"{len(targets) - failed}/{len(targets)} applications "
              "semantically sound")
    return 1 if failed else 0


def _cmd_cost(args) -> int:
    from .cost.app import cost_app
    from .cost.explore import DEFAULT_DFA_BUDGET

    budget = args.budget if args.budget is not None else DEFAULT_DFA_BUDGET

    targets = _resolve_targets(args)
    if targets is None:
        return 2

    config = default_config()
    failed = 0
    payload = []
    for abbr in targets:
        outcome = cost_app(abbr, config, fraction=args.profile,
                           budget=budget, check=args.check)
        if args.json:
            payload.append(outcome.to_json())
        else:
            print(outcome.render())
            report = outcome.report
            if report.errors or (report.warnings and args.verbose):
                print(report.render_text(verbose=args.verbose))
        failed += 0 if outcome.ok else 1
    if args.json:
        import json as _json

        print(_json.dumps(payload, indent=2))
    elif len(targets) > 1:
        print(f"{len(targets) - failed}/{len(targets)} applications "
              "cost-analyzed clean")
    return 1 if failed else 0


def _cmd_reduce(args) -> int:
    from .cost.explore import DEFAULT_DFA_BUDGET
    from .reduce.app import reduce_app

    budget = args.budget if args.budget is not None else DEFAULT_DFA_BUDGET
    mode = "aggressive" if args.aggressive else "exact"

    targets = _resolve_targets(args)
    if targets is None:
        return 2

    config = default_config()
    failed = 0
    payload = []
    for abbr in targets:
        outcome = reduce_app(abbr, config, mode=mode,
                             budget=budget, check=args.check)
        if args.json:
            payload.append(outcome.to_json())
        else:
            print(outcome.render())
            report = outcome.report
            if report.errors or (report.warnings and args.verbose):
                print(report.render_text(verbose=args.verbose))
        failed += 0 if outcome.ok else 1
    if args.json:
        import json as _json

        print(_json.dumps(payload, indent=2))
    elif len(targets) > 1:
        print(f"{len(targets) - failed}/{len(targets)} applications "
              "reduced sound")
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve.server import MatchServer, ServerOptions

    apps: Optional[List[str]] = None
    if args.apps:
        apps = _resolve_apps(args.apps.split(","))
        if apps is None:
            return 2
    options = ServerOptions(
        host=args.host, port=args.port, unix_path=args.unix,
        max_batch=args.max_batch,
        max_queue_depth=args.max_queue_depth, workers=args.workers,
        max_apps=args.max_apps, warmup=not args.no_warmup,
        allow_shutdown=not args.no_remote_shutdown,
        backend=args.backend, reduce=args.reduce,
    )

    async def _serve() -> None:
        server = MatchServer(_config_for(args), options, apps=apps)
        address = await server.start()
        print(f"repro serve: listening on {address}", flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


def _parse_classes(spec: str):
    """Parse ``name[:weight[:deadline_ms]]`` comma specs into
    :class:`repro.serve.loadgen.RequestClass` tuples, e.g.
    ``interactive:8:50,batch:2``.  Raises ``ValueError`` on bad syntax."""
    from .serve.loadgen import RequestClass

    classes = []
    for part in spec.split(","):
        fields = part.split(":")
        if not fields[0] or len(fields) > 3:
            raise ValueError(f"bad class spec {part!r} "
                             "(want name[:weight[:deadline_ms]])")
        weight = float(fields[1]) if len(fields) > 1 and fields[1] else 1.0
        deadline = (float(fields[2])
                    if len(fields) > 2 and fields[2] else None)
        classes.append(RequestClass(name=fields[0], weight=weight,
                                    deadline_ms=deadline))
    return tuple(classes)


def _cmd_loadgen(args) -> int:
    import asyncio
    import json as _json

    from .serve.client import AsyncServeClient
    from .serve.loadgen import LoadgenConfig, render_results, run_loadgen
    from .stats import validate_serve_stats

    apps = _resolve_apps(args.apps.split(","))
    if apps is None:
        return 2
    if args.port is None and args.unix is None:
        print("loadgen: need a target (--port or --unix)", file=sys.stderr)
        return 2
    try:
        concurrencies = [int(part) for part in str(args.concurrency).split(",")]
    except ValueError:
        print(f"loadgen: bad --concurrency {args.concurrency!r} "
              "(want N or N,M,...)", file=sys.stderr)
        return 2
    try:
        classes = _parse_classes(args.classes) if args.classes else None
    except ValueError as exc:
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2

    async def _drive():
        rounds = []
        for concurrency in concurrencies:
            config = LoadgenConfig(
                apps=apps, requests=args.requests, concurrency=concurrency,
                mode=args.mode, rate=args.rate, input_len=args.input_len,
                deadline_ms=args.deadline_ms, max_reports=args.max_reports,
                seed=args.seed, host=args.host, port=args.port,
                unix_path=args.unix, connect_timeout=args.connect_timeout,
                duration_s=args.duration, classes=classes,
            )
            rounds.append(await run_loadgen(config))
        document = None
        if args.stats_out or args.shutdown:
            client = await AsyncServeClient.open(
                host=args.host, port=args.port, unix_path=args.unix,
                retry_for=args.connect_timeout,
            )
            try:
                if args.stats_out:
                    document = await client.stats()
                if args.shutdown:
                    await client.shutdown()
            finally:
                await client.close()
        return rounds, document

    try:
        results, document = asyncio.run(_drive())
    except ValueError as exc:  # LoadgenConfig validation
        print(f"loadgen: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps([result.to_json() for result in results], indent=2))
    else:
        print(render_results(results))
    if args.stats_out:
        validate_serve_stats(document)  # refuse to write an invalid export
        with open(args.stats_out, "w") as handle:
            _json.dump(document, handle, indent=2)
        if not args.json:
            print(f"wrote {args.stats_out}")
    errors = sum(result.errors for result in results)
    if errors and args.fail_on_error:
        print(f"loadgen: {errors} request(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_grid(args) -> int:
    import asyncio

    from .grid import Grid, GridOptions

    apps = _resolve_apps(args.apps.split(","))
    if apps is None:
        return 2
    options = GridOptions(
        workers=args.workers, host=args.host, port=args.port,
        unix_path=args.unix,
        max_batch=args.max_batch, max_queue_depth=args.max_queue_depth,
        threads=args.threads, backend=args.backend,
        spill_threshold=args.spill_threshold,
        max_inflight=args.max_inflight,
        merge_interval_s=args.merge_interval,
        warm=not args.no_warmup,
        allow_shutdown=not args.no_remote_shutdown,
    )

    async def _run() -> None:
        grid = Grid(apps, _config_for(args), options)
        try:
            address = await grid.start()
            shards = grid.shard_map
            assert shards is not None
            for worker_id in range(options.workers):
                primaries = ",".join(shards.primaries_for(worker_id)) or "-"
                print(f"repro grid: worker {worker_id} primaries: {primaries}",
                      flush=True)
            print(f"repro grid: router listening on {address} "
                  f"({options.workers} workers)", flush=True)
            await grid.serve_until_stopped()
        finally:
            await grid.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro grid: interrupted, shutting down", file=sys.stderr)
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-apps", help="list the 26-application registry")

    run_parser = sub.add_parser("run-app", help="run one application end-to-end")
    run_parser.add_argument("app")
    run_parser.add_argument("--profile", type=float, default=0.01,
                            help="profiling fraction (default 0.01)")
    run_parser.add_argument("--no-verify", action="store_true",
                            help="skip fail-fast partition/batch verification")
    run_parser.add_argument("--backend", default=None, metavar="NAME",
                            choices=["auto"] + list(_BACKEND_CHOICES),
                            help="also execute the test input on an engine: "
                                 "'auto' follows the cost advisory; an "
                                 "explicit name forces it and fails if "
                                 "infeasible (see --backend-fallback)")
    run_parser.add_argument("--backend-fallback", action="store_true",
                            help="accept bitpacked substitution when an "
                                 "explicitly requested backend is infeasible "
                                 "instead of failing")
    run_parser.add_argument("--reduce", action="store_true",
                            help="run the backend on the SPAP-R-reduced "
                                 "network (reports lifted to original ids) "
                                 "and print the reduction summary")

    figure_parser = sub.add_parser("figure", help="regenerate one table/figure")
    figure_parser.add_argument("name", help=f"one of: {', '.join(_FIGURES)}")
    figure_parser.add_argument("--no-verify", action="store_true",
                               help="skip fail-fast partition/batch verification")

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    report_parser.add_argument("--no-verify", action="store_true",
                               help="skip fail-fast partition/batch verification")

    sweep_parser = sub.add_parser(
        "sweep", help="run the whole workload in parallel across cores"
    )
    sweep_parser.add_argument("apps", nargs="*",
                              help="application abbreviations (default: all)")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="worker processes (default: all cores; "
                                   "1 = serial in-process)")
    sweep_parser.add_argument("--profile", type=float, default=0.01,
                              help="profiling fraction (default 0.01)")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit JSON rows instead of a table")
    sweep_parser.add_argument("--no-verify", action="store_true",
                              help="skip fail-fast partition/batch verification")
    sweep_parser.add_argument("--backend", default=None, metavar="NAME",
                              choices=["auto"] + list(_BACKEND_CHOICES),
                              help="execute each app's test input on an "
                                   "engine: 'auto' selects per-app from the "
                                   "cost advisory; the Backend/MB/s columns "
                                   "then show the engine actually used; an "
                                   "explicit name fails loudly on apps where "
                                   "it is infeasible (see --backend-fallback)")
    sweep_parser.add_argument("--backend-fallback", action="store_true",
                              help="accept bitpacked substitution on apps "
                                   "where an explicitly requested backend is "
                                   "infeasible instead of failing their rows")
    sweep_parser.add_argument("--reduce", action="store_true",
                              help="route --backend executions through the "
                                   "SPAP-R-reduced network ('+' in the "
                                   "Reduce column marks reduced runs)")

    stats_parser = sub.add_parser(
        "stats",
        help="unified runtime statistics and stage timings (repro.stats)",
    )
    stats_parser.add_argument("apps", nargs="*",
                              help="application abbreviations (see list-apps)")
    stats_parser.add_argument("--all", action="store_true",
                              help="collect stats for every registry application")
    stats_parser.add_argument("--json", action="store_true",
                              help="emit the versioned JSON document(s) "
                                   "instead of text")
    stats_parser.add_argument("--profile", type=float, default=0.01,
                              help="profiling fraction (default 0.01)")
    stats_parser.add_argument("--no-verify", action="store_true",
                              help="skip fail-fast partition/batch verification")

    verify_parser = sub.add_parser(
        "verify",
        help="statically verify applications (networks, partitions, batch plans)",
    )
    verify_parser.add_argument("apps", nargs="*",
                               help="application abbreviations (see list-apps)")
    verify_parser.add_argument("--all", action="store_true",
                               help="verify every registry application")
    verify_parser.add_argument("--json", action="store_true",
                               help="emit a JSON report instead of text")
    verify_parser.add_argument("--verbose", action="store_true",
                               help="print warnings and fix hints, not just errors")
    verify_parser.add_argument("--profile", type=float, default=None,
                               help="profiling fraction for the partition pass")

    semant_parser = sub.add_parser(
        "semant",
        help="semantic static analysis: dead-state proofs, profile-free "
             "prediction, differential SPAP-S checks (repro.semant)",
    )
    semant_parser.add_argument("apps", nargs="*",
                               help="application abbreviations (see list-apps)")
    semant_parser.add_argument("--all", action="store_true",
                               help="analyze every registry application")
    semant_parser.add_argument("--json", action="store_true",
                               help="emit a JSON report instead of text")
    semant_parser.add_argument("--verbose", action="store_true",
                               help="print warnings and fix hints, not just errors")
    semant_parser.add_argument("--profile", type=float, default=None,
                               help="profiling fraction for the differential "
                                    "comparison (default 0.01)")
    semant_parser.add_argument("--horizon", type=int, default=None,
                               help="enabling-opportunity horizon for the "
                                    "static predictor (default: input length)")

    cost_parser = sub.add_parser(
        "cost",
        help="compilability/cost analysis: DFA-safety proofs, symbol-class "
             "compression, backend advisories (repro.cost)",
    )
    cost_parser.add_argument("apps", nargs="*",
                             help="application abbreviations (see list-apps)")
    cost_parser.add_argument("--all", action="store_true",
                             help="analyze every registry application")
    cost_parser.add_argument("--json", action="store_true",
                             help="emit a JSON report instead of text")
    cost_parser.add_argument("--verbose", action="store_true",
                             help="print warnings and fix hints, not just errors")
    cost_parser.add_argument("--profile", type=float, default=None,
                             help="partitioning fraction (default: the "
                                  "standard 1%% operating point)")
    cost_parser.add_argument("--budget", type=int, default=None,
                             help="subset-construction state budget "
                                  "(default 4096)")
    cost_parser.add_argument("--check", action="store_true",
                             help="replay every DFA-safety proof through real "
                                  "determinization + reference simulation "
                                  "(the SPAP-C001 differential)")

    reduce_parser = sub.add_parser(
        "reduce",
        help="equivalence-preserving reduction: bisimulation merges, "
             "dead-state strips, cost re-pricing (repro.reduce)",
    )
    reduce_parser.add_argument("apps", nargs="*",
                               help="application abbreviations (see list-apps)")
    reduce_parser.add_argument("--all", action="store_true",
                               help="reduce every registry application")
    reduce_parser.add_argument("--json", action="store_true",
                               help="emit a JSON report instead of text")
    reduce_parser.add_argument("--verbose", action="store_true",
                               help="print warnings and fix hints, not just errors")
    reduce_parser.add_argument("--aggressive", action="store_true",
                               help="also apply the report-exact (witness-"
                                    "lossy) rules: never-reporting strips "
                                    "and forward bisimulation")
    reduce_parser.add_argument("--budget", type=int, default=None,
                               help="subset-construction budget for the "
                                    "cost re-pricing (default 4096)")
    reduce_parser.add_argument("--check", action="store_true",
                               help="replay the reduced network through the "
                                    "reference engine and compare lifted "
                                    "reports/witness masks against the "
                                    "unreduced ground truth (SPAP-R001)")

    serve_parser = sub.add_parser(
        "serve",
        help="long-running match service with micro-batching (repro.serve)",
    )
    serve_parser.add_argument("--apps", default=None,
                              help="comma-separated applications to serve "
                                   "(default: any registry app, on demand)")
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=None,
                              help="TCP port (0 or omitted: ephemeral)")
    serve_parser.add_argument("--unix", default=None, metavar="PATH",
                              help="listen on a unix socket instead of TCP")
    serve_parser.add_argument("--max-batch", type=int, default=64,
                              help="largest batch per dispatch (default 64)")
    serve_parser.add_argument("--max-queue-depth", type=int, default=1024,
                              help="admission-control queue bound (default 1024)")
    serve_parser.add_argument("--workers", type=int, default=2,
                              help="engine executor threads (default 2)")
    serve_parser.add_argument("--max-apps", type=int, default=8,
                              help="compiled networks kept resident (LRU)")
    serve_parser.add_argument("--backend", default="bitpacked",
                              choices=["bitpacked", "dfa", "lazydfa", "auto"],
                              help="batch engine: bitpacked (default), "
                                   "dfa (where feasible), lazydfa (the "
                                   "bounded-subset hybrid), or auto "
                                   "(per-app cost advisory)")
    serve_parser.add_argument("--reduce", action="store_true",
                              help="serve the SPAP-R-reduced networks "
                                   "(reports lifted to original state ids)")
    serve_parser.add_argument("--no-warmup", action="store_true",
                              help="skip compiling --apps before binding")
    serve_parser.add_argument("--no-remote-shutdown", action="store_true",
                              help="reject shutdown frames from clients")
    serve_parser.add_argument("--no-verify", action="store_true",
                              help="skip fail-fast partition/batch verification")

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive a running match server and report latency percentiles",
    )
    loadgen_parser.add_argument("--apps", required=True,
                                help="comma-separated applications to request")
    loadgen_parser.add_argument("--host", default="127.0.0.1")
    loadgen_parser.add_argument("--port", type=int, default=None)
    loadgen_parser.add_argument("--unix", default=None, metavar="PATH")
    loadgen_parser.add_argument("--requests", type=int, default=64,
                                help="requests per round (default 64)")
    loadgen_parser.add_argument("--concurrency", default="8",
                                help="workers, or a comma list to sweep "
                                     "(e.g. 1,8,32; default 8)")
    loadgen_parser.add_argument("--mode", choices=("closed", "open"),
                                default="closed")
    loadgen_parser.add_argument("--rate", type=float, default=None,
                                help="open-loop arrivals per second")
    loadgen_parser.add_argument("--duration", type=float, default=None,
                                help="open-loop round length in seconds "
                                     "(overrides --requests: the round "
                                     "issues rate*duration arrivals)")
    loadgen_parser.add_argument("--classes", default=None, metavar="SPEC",
                                help="weighted request classes as "
                                     "name[:weight[:deadline_ms]] comma "
                                     "specs, e.g. interactive:8:50,batch:2; "
                                     "results gain per-class percentiles")
    loadgen_parser.add_argument("--input-len", type=int, default=1024,
                                help="payload bytes per request (default 1024)")
    loadgen_parser.add_argument("--deadline-ms", type=float, default=None,
                                help="per-request deadline sent to the server")
    loadgen_parser.add_argument("--max-reports", type=int, default=256,
                                help="report cap per reply (default 256)")
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument("--connect-timeout", type=float, default=30.0,
                                help="seconds to retry the first connect")
    loadgen_parser.add_argument("--json", action="store_true",
                                help="emit JSON rounds instead of the table")
    loadgen_parser.add_argument("--stats-out", default=None, metavar="PATH",
                                help="fetch the server stats document after "
                                     "the run and write it here (validated)")
    loadgen_parser.add_argument("--shutdown", action="store_true",
                                help="send a shutdown frame after the run")
    loadgen_parser.add_argument("--fail-on-error", action="store_true",
                                help="exit 1 if any request failed")

    grid_parser = sub.add_parser(
        "grid",
        help="sharded multi-process serving grid: router + worker pool "
             "(repro.grid)",
    )
    grid_parser.add_argument("--apps", required=True,
                             help="comma-separated applications to serve "
                                  "(sharded across the worker pool)")
    grid_parser.add_argument("--workers", type=int, default=2,
                             help="worker processes in the pool (default 2)")
    grid_parser.add_argument("--host", default="127.0.0.1")
    grid_parser.add_argument("--port", type=int, default=None,
                             help="router TCP port (0 or omitted: ephemeral)")
    grid_parser.add_argument("--unix", default=None, metavar="PATH",
                             help="router listens on a unix socket instead")
    grid_parser.add_argument("--max-batch", type=int, default=64,
                             help="largest batch per worker dispatch")
    grid_parser.add_argument("--max-queue-depth", type=int, default=1024,
                             help="per-worker admission bound (default 1024)")
    grid_parser.add_argument("--threads", type=int, default=2,
                             help="engine executor threads per worker")
    grid_parser.add_argument("--backend", default="auto",
                             choices=["bitpacked", "dfa", "lazydfa", "auto"],
                             help="store compilation engine: auto (default) "
                                  "follows each app's cost advisory")
    grid_parser.add_argument("--spill-threshold", type=int, default=32,
                             help="primary in-flight depth past which "
                                  "requests spill to the replica")
    grid_parser.add_argument("--max-inflight", type=int, default=1024,
                             help="router admission bound; past it requests "
                                  "are rejected with OVERLOADED")
    grid_parser.add_argument("--merge-interval", type=float, default=0.25,
                             help="write-behind stats merge period in "
                                  "seconds (default 0.25)")
    grid_parser.add_argument("--no-warmup", action="store_true",
                             help="skip the per-worker warm batch on start")
    grid_parser.add_argument("--no-remote-shutdown", action="store_true",
                             help="reject shutdown frames from clients")
    grid_parser.add_argument("--no-verify", action="store_true",
                             help="skip fail-fast partition/batch verification")

    args = parser.parse_args(argv)
    handlers = {
        "list-apps": _cmd_list_apps,
        "run-app": _cmd_run_app,
        "figure": _cmd_figure,
        "report": _cmd_report,
        "sweep": _cmd_sweep,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "semant": _cmd_semant,
        "cost": _cmd_cost,
        "reduce": _cmd_reduce,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "grid": _cmd_grid,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
