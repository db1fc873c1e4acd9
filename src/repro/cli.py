"""Command-line interface.

Exposes the paper's experiments and some exploration helpers::

    repro list-experiments
    repro list-traces [--sensitive]
    repro run --machine base-victim --trace mcf.1 [--preset bench]
    repro compare --trace mcf.1
    repro stats --trace mcf.1 --trace lbm.1 [--json] [--trace-events]
    repro area
    repro export --csv fig8.csv
    repro sweep [--resume] [--strict] [--retries 2] [--job-timeout 60]
    repro serve [--preset test] [--socket PATH | --tcp HOST:PORT] [--jobs 4]
    repro submit --trace mcf.1 [--sweep] [--wait] [--json]
    repro serve-status [--json]
    repro dispatch [--workers 3 | --worker tcp:HOST:PORT ...] [--strict]
                   [--resume] [--redispatch N] [--fold-every N]
    repro perf [--repeats 3] [--output BENCH_PERF.json]
    repro cache verify [--strict] [--cache-dir DIR]
    repro cache canonicalize [--cache-dir DIR]

The figure/table benches proper live in ``benchmarks/`` and run through
pytest; the CLI is the quick interactive front end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from pathlib import Path

from repro.power.area import paper_headline_area
from repro.sim.config import (
    ARCH_BASE_VICTIM,
    ARCH_CHOICES,
    BASE_VICTIM_2MB,
    BASELINE_2MB,
    MachineConfig,
    PRESETS,
    TWO_TAG_2MB,
    TWO_TAG_MODIFIED_2MB,
    UNCOMPRESSED_3MB,
)
from repro.sim.experiment import ExperimentRunner, default_cache_dir
from repro.sim.locking import LOCK_TIMEOUT_ENV, LockTimeoutError
from repro.sim.metrics import dram_read_ratio, ipc_ratio
from repro.sim.parallel import JOBS_ENV
from repro.sim.retry import JOB_TIMEOUT_ENV, RETRIES_ENV, SweepFailedError
from repro.workloads.suite import all_specs, sensitive_specs


def _cmd_list_experiments(args: argparse.Namespace) -> int:
    rows = [
        ("E1", "Figure 6", "benchmarks/bench_fig06_twotag.py"),
        ("E2", "Figure 7", "benchmarks/bench_fig07_modified_twotag.py"),
        ("E3", "Figure 8", "benchmarks/bench_fig08_basevictim.py"),
        ("E4", "Figure 9", "benchmarks/bench_fig09_categories.py"),
        ("E5", "Figure 10", "benchmarks/bench_fig10_replacement.py"),
        ("E6", "Figure 11", "benchmarks/bench_fig11_llc_size.py"),
        ("E7", "Figure 12", "benchmarks/bench_fig12_all_traces.py"),
        ("E8", "Figure 13", "benchmarks/bench_fig13_multiprogram.py"),
        ("E9", "Figure 14", "benchmarks/bench_fig14_energy.py"),
        ("E10", "Table I", "benchmarks/bench_table1_workloads.py"),
        ("E11", "Sec VI.B.1", "benchmarks/bench_sec6b1_associativity.py"),
        ("E12", "Sec VI.B.4", "benchmarks/bench_sec6b4_victim_policy.py"),
        ("E13", "Sec IV.C", "benchmarks/bench_sec4c_area.py"),
        ("E14", "Sec V/VI.A", "benchmarks/bench_sec5_capacity.py"),
        ("E15", "Sec VI.D", "benchmarks/bench_sec6d_traffic.py"),
        ("EXT", "beyond paper", "benchmarks/bench_ext_policies.py"),
    ]
    for exp_id, artifact, target in rows:
        print(f"{exp_id:5s} {artifact:12s} {target}")
    print("\nRun one with:  pytest <target> --benchmark-only -s")
    return 0


def _cmd_list_traces(args: argparse.Namespace) -> int:
    specs = sensitive_specs() if args.sensitive else list(all_specs())
    for spec in specs:
        flags = []
        if spec.cache_sensitive:
            flags.append("sensitive")
        flags.append(spec.comp_class)
        print(
            f"{spec.name:16s} {spec.category:13s} {spec.pattern:8s} "
            f"ws={spec.ws_factor:<5g} {','.join(flags)}"
        )
    print(f"\n{len(specs)} traces")
    return 0


def _progress_line(done: int, total: int, key: str) -> None:
    """One-line, in-place sweep progress indicator (stderr)."""
    print(f"\r  simulated {done}/{total}  {key[:66]:<66s}", end="", file=sys.stderr, flush=True)
    if done == total:
        print(file=sys.stderr)


def _runner_from_args(
    args: argparse.Namespace, strict: bool = True
) -> ExperimentRunner:
    """Build a runner honouring --jobs/--retries/--job-timeout and envs."""
    return ExperimentRunner(
        PRESETS[args.preset],
        jobs=args.jobs,
        progress=_progress_line,
        retries=getattr(args, "retries", None),
        job_timeout=getattr(args, "job_timeout", None),
        strict=strict,
        lock_timeout=getattr(args, "lock_timeout", None),
    )


def _check_trace_names(args: argparse.Namespace) -> None:
    """Reject an unknown ``--trace`` before any runner, cache or worker exists."""
    names = getattr(args, "traces", None) or []
    if isinstance(getattr(args, "trace", None), str):
        names = [args.trace]
    known = {spec.name for spec in all_specs()}
    for name in names:
        if name not in known:
            raise ValueError(f"unknown trace {name!r} (see repro list-traces)")


def _machine_from_args(args: argparse.Namespace) -> MachineConfig:
    # validate() fires at CLI time: a bad --policy fails here with a
    # structured error instead of deep inside the first simulation.
    return MachineConfig(
        arch=args.machine,
        llc_ways=args.ways,
        llc_sets_mult=args.sets_mult,
        policy=args.policy,
        victim_policy=args.victim_policy,
    ).validate()


def _cmd_run(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    machine = _machine_from_args(args)
    result = runner.run_single(machine, args.trace)
    print(f"trace:        {result.trace}")
    print(f"machine:      {result.machine}")
    print(f"instructions: {result.instructions}")
    print(f"cycles:       {result.cycles:.0f}")
    print(f"IPC:          {result.ipc:.4f}")
    print(f"LLC hit rate: {result.llc_hit_rate:.4f}")
    print(f"victim hits:  {result.llc_victim_hits}")
    print(f"DRAM reads:   {result.memory_reads}")
    print(f"DRAM writes:  {result.memory_writes}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    machines = [
        BASELINE_2MB,
        BASE_VICTIM_2MB,
        TWO_TAG_2MB,
        TWO_TAG_MODIFIED_2MB,
        UNCOMPRESSED_3MB,
    ]
    runner.prewarm((machine, args.trace) for machine in machines)
    base = runner.run_single(BASELINE_2MB, args.trace)
    print(f"{'machine':40s} {'IPC':>8s} {'ratio':>7s} {'rd-ratio':>8s}")
    for machine in machines:
        run = runner.run_single(machine, args.trace)
        print(
            f"{machine.label:40s} {run.ipc:8.4f} "
            f"{ipc_ratio(run, base):7.3f} {dram_read_ratio(run, base):8.3f}"
        )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Observability counters for one or more traces on one machine."""
    from repro.obs.registry import (
        CounterRegistry,
        load_snapshots,
        merge_observations,
    )
    from repro.obs.tracing import TraceRecorder
    from repro.sim.report import observability_summary
    from repro.sim.single_core import simulate_trace
    from repro.workloads.tracecache import process_cache

    registry = CounterRegistry()
    machine = _machine_from_args(args)
    runner = _runner_from_args(args)
    names: list[str] = args.traces

    if args.trace_events:
        # Tracing needs real simulations, so bypass the result cache and
        # run serially; events flush per trace (stderr or $REPRO_TRACE_FILE).
        tracer = TraceRecorder.from_env()
        results = []
        with registry.timer("phase/simulate"):
            for name in names:
                trace = runner.suite.trace(name)
                data = runner.suite.data_model(name)
                results.append(
                    simulate_trace(trace, data, machine, runner.preset, tracer=tracer)
                )
                tracer.flush()
    else:
        with registry.timer("phase/simulate"):
            results = runner.run_many(machine, names)

    # Per-cell fixed cost: trace generation, timed by the process trace
    # memo (``trace/load_seconds``; size tables are part of each
    # simulation).  Process-local by design — with ``--jobs`` > 1 the
    # traces are generated in worker processes and this process's memo
    # stays cold.
    trace_cache = process_cache().snapshot()
    registry.timer("trace/load_seconds").seconds += trace_cache["load_seconds"]

    # Snapshots of long-lived components (serve-stats.json,
    # dist-stats.json), keyed by component.
    snapshots = load_snapshots(default_cache_dir())

    with registry.timer("phase/report"):
        merged = merge_observations([run.obs for run in results])
        if args.json:
            payload = {
                "preset": args.preset,
                "machine": machine.label,
                "traces": {run.trace: run.obs for run in results},
                "merged": merged,
                # Wall time is process-local and non-deterministic; it is
                # reported here but never enters the result cache.
                "timers": registry.timers,
                # Cache health: corrupt JSONL lines skipped by the
                # tolerant loader — silent data loss made visible — plus
                # the persistence-layer cache/* counters (lock
                # contention, CRC rejections).
                "cache": {
                    "corrupt_lines_skipped": runner.corrupt_lines_skipped,
                    **{
                        name: metric["value"]
                        for name, metric in runner.registry.as_dict().items()
                        if name.startswith("cache/")
                        and metric.get("kind") == "counter"
                    },
                },
                # Trace reuse: hits are cells that skipped generation
                # because an earlier cell of the same batch already
                # generated the trace.  A batch empties the memo when it
                # ends, so ``entries`` reads 0 after one.
                "trace_cache": {
                    f"trace_cache/{key}": value
                    for key, value in trace_cache.items()
                },
            }
            for component, snapshot in snapshots.items():
                payload.setdefault(component, snapshot)
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(f"machine: {machine.label}")
        print(f"preset:  {args.preset}   traces: {', '.join(names)}")
        print()
        print(observability_summary(merged))
        print()
        print(f"corrupt cache lines skipped: {runner.corrupt_lines_skipped}")
        for name, metric in runner.registry.as_dict().items():
            if name.startswith("cache/") and metric.get("kind") == "counter":
                label = name.removeprefix("cache/").replace("_", " ")
                print(f"cache {label}: {metric['value']}")
        for key in ("hits", "misses", "evictions"):
            print(f"trace cache {key}: {trace_cache[key]}")
        for component, snapshot in snapshots.items():
            prefix = f"{component}/"
            for name, metric in sorted(snapshot.get("counters", {}).items()):
                if name.startswith(prefix) and metric.get("kind") == "counter":
                    label = name.removeprefix(prefix).replace("_", " ")
                    print(f"{component} {label}: {metric['value']}")
        print("wall time by phase:")
    for name, seconds in registry.timers.items():
        print(f"  {name:16s} {seconds:8.3f}s")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    """Export the Figure 8/12 series as CSV and an ASCII plot."""
    from repro.sim.figures import ascii_series_plot, write_series_csv
    from repro.sim.metrics import dram_read_ratio, ipc_ratio
    from repro.workloads.suite import all_specs, sensitive_specs

    runner = _runner_from_args(args)
    specs = all_specs() if args.all_traces else sensitive_specs()
    names = [spec.name for spec in specs]
    if runner.jobs > 1:
        print(
            f"sweeping {2 * len(names)} (machine, trace) runs "
            f"across {runner.jobs} workers",
            file=sys.stderr,
        )
    ipc: dict[str, float] = {}
    reads: dict[str, float] = {}
    for name, (base, bv) in zip(
        names, runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, names)
    ):
        ipc[name] = ipc_ratio(bv, base)
        reads[name] = dram_read_ratio(bv, base)
    series = {"ipc_ratio": ipc, "dram_read_ratio": reads}
    if args.csv:
        write_series_csv(args.csv, series)
        print(f"wrote {args.csv}")
    print(ascii_series_plot(series, "Base-Victim vs 2MB uncompressed baseline"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Fault-tolerant Figure-8-style sweep with checkpoint/resume reporting.

    Runs (baseline, base-victim) x traces through the cached runner in
    graceful-degradation mode: transient worker failures retry, crashed
    workers are recovered, and cells that exhaust their retries are
    reported as a failed-cell table instead of aborting the sweep.
    ``--resume`` additionally salvages shard files left by a killed
    sweep and reports exactly which cells were recovered vs recomputed;
    ``--strict`` turns any failed cell into a nonzero exit.
    """
    from repro.sim.report import failed_cells_table, sweep_health_summary

    runner = _runner_from_args(args, strict=False)
    salvaged = runner.resume_orphan_shards() if args.resume else []
    if args.traces:
        names = args.traces
    else:
        specs = all_specs() if args.all_traces else sensitive_specs()
        names = [spec.name for spec in specs]
    machines = [BASELINE_2MB, BASE_VICTIM_2MB]
    cells = [(machine, name) for machine in machines for name in names]
    cached = [
        f"{machine.label}|{name}"
        for machine, name in cells
        if runner.has_cached(machine, name)
    ]
    recomputed = [
        f"{machine.label}|{name}"
        for machine, name in cells
        if not runner.has_cached(machine, name)
    ]
    simulated = runner.prewarm(cells)
    failures = runner.failed_cells

    print(
        f"sweep: {len(cells)} cells ({len(names)} traces x "
        f"{len(machines)} machines), preset={args.preset}, jobs={runner.jobs}"
    )
    print(f"  recovered from cache: {len(cached)} cells")
    if args.resume:
        print(f"    salvaged from orphan shards: {len(salvaged)} cells")
        for key in salvaged:
            print(f"      salvaged   {key}")
    print(f"  recomputed: {simulated} cells")
    if args.resume:
        for cell in recomputed:
            print(f"      recomputed {cell}")
    print(f"  failed: {len(failures)} cells")
    print("  " + sweep_health_summary(runner.registry.as_dict()))
    if failures:
        print()
        print(failed_cells_table(failures))
        if args.strict:
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived experiment service until SIGTERM/SIGINT drain.

    Clients connect over the unix socket (default: ``serve.sock`` next
    to the result cache, or ``$REPRO_SERVE_SOCKET``) or TCP with
    ``--tcp host:port``, submit (machine, trace) jobs or whole sweeps,
    and stream back progress and results; the scheduler dedupes against
    the result cache and in-flight work and batches the remainder onto
    the worker pool.  Startup errors (a live server already on the
    socket, an unbindable address) exit 2 with a one-line message; a
    stale socket left by a killed server is reclaimed automatically.
    """
    import asyncio

    from repro.serve.protocol import ServeError, parse_tcp
    from repro.serve.server import ExperimentServer

    try:
        server = ExperimentServer(
            args.preset,
            socket_path=Path(args.socket) if args.socket else None,
            tcp=parse_tcp(args.tcp) if args.tcp else None,
            jobs=args.jobs,
            retries=args.retries,
            job_timeout=args.job_timeout,
            lock_timeout=args.lock_timeout,
            max_queue=args.max_queue,
            client_quota=args.client_quota,
            worker=args.worker,
        )
        return asyncio.run(server.run())
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. --tcp port already bound
        print(f"error: cannot start server: {exc.strerror or exc}", file=sys.stderr)
        return 2


def _submit_jobs_from_args(args: argparse.Namespace) -> list[dict]:
    """Wire-format job list for ``repro submit``.

    ``--sweep`` mirrors ``repro sweep``'s matrix — the (baseline,
    base-victim) machine pair per trace — so a served sweep dedupes
    against, and converges with, the classic offline one.  Otherwise
    the single machine described by the ``--machine``/``--ways``/...
    flags runs each trace.
    """
    from repro.serve.protocol import machine_to_wire

    if args.sweep:
        machines = [BASELINE_2MB, BASE_VICTIM_2MB]
    else:
        machines = [_machine_from_args(args)]
    return [
        {"trace": trace, "machine": machine_to_wire(machine)}
        for machine in machines
        for trace in args.traces
    ]


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit jobs to a running server; optionally wait for results.

    Exit codes: 0 all jobs resolved (or accepted, without ``--wait``),
    1 the submission was rejected or any job failed, 2 the server was
    unreachable (missing/stale socket) or was lost: it closed the stream
    before ``accepted`` (``done`` under ``--wait``).  Either way one
    clean line, no traceback.
    """
    from repro.serve.client import Address, ServeClient, ServeClientError

    jobs = _submit_jobs_from_args(args)
    request_id = f"submit-{os.getpid()}"
    summary: dict = {"id": request_id, "jobs": len(jobs)}
    results: dict[str, dict] = {}
    failures: list[dict] = []
    try:
        with ServeClient(
            Address.from_args(args.socket, args.tcp), timeout=args.timeout
        ) as client:
            client.request(
                {
                    "op": "submit",
                    "id": request_id,
                    "jobs": jobs,
                    "wait": bool(args.wait),
                }
            )
            for event in client.events():
                kind = event.get("event")
                if kind == "accepted":
                    summary["accepted"] = event
                    if not args.json:
                        print(
                            f"accepted {event['jobs']} job(s): "
                            f"{event['cache_hits']} cache hit(s), "
                            f"{event['deduped']} deduped, "
                            f"{event['enqueued']} enqueued",
                            file=sys.stderr,
                        )
                    if not args.wait:
                        break
                elif kind == "rejected":
                    summary["rejected"] = event
                    print(
                        f"error: submission rejected ({event.get('reason')}): "
                        f"{event.get('detail')}",
                        file=sys.stderr,
                    )
                    if args.json:
                        print(json.dumps(summary, indent=2, sort_keys=True))
                    return 1
                elif kind == "progress":
                    print(
                        f"\r  {event.get('done')}/{event.get('total')} "
                        f"{str(event.get('key'))[:60]:<60s}",
                        end="",
                        file=sys.stderr,
                        flush=True,
                    )
                elif kind == "result":
                    results[event["key"]] = event
                elif kind == "failed":
                    failures.append(event)
                elif kind == "done":
                    summary["done"] = event
                    break
                elif kind == "error":
                    print(f"error: {event.get('message')}", file=sys.stderr)
                    return 1
            else:
                awaited = "done" if args.wait else "accepted"
                raise ServeClientError(
                    f"{client.address.describe()} closed the connection "
                    f"before {awaited!r}"
                )
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.wait and summary.get("done") and not args.json:
        print(file=sys.stderr)  # terminate the progress line
        done = summary["done"]
        print(
            f"done: {done['completed']}/{done['jobs']} job(s) completed, "
            f"{done['failed']} failed"
        )
        for key in sorted(results):
            event = results[key]
            ipc = event["result"].get("ipc")
            ipc_text = f"  IPC={ipc:.4f}" if isinstance(ipc, float) else ""
            print(f"  {event['machine']} x {event['trace']}{ipc_text}")
    if args.json:
        summary["results"] = {
            key: event["result"] for key, event in sorted(results.items())
        }
        summary["failures"] = failures
        print(json.dumps(summary, indent=2, sort_keys=True))
    for failure in failures:
        print(
            f"failed: {failure.get('key')}: {failure.get('error')}: "
            f"{failure.get('message')}",
            file=sys.stderr,
        )
    return 1 if failures else 0


def _cmd_dispatch(args: argparse.Namespace) -> int:
    """Shard a sweep across serve workers; fold results back byte-identically.

    ``--workers N`` spawns N local ``repro serve --worker`` subprocesses
    (the single-box scale-out and test path); repeatable ``--worker``
    flags target running workers by ``tcp:HOST:PORT`` or unix-socket
    path (typically an ``ssh -L`` forward from a remote host).  The
    final cache file is byte-identical to a canonicalized serial
    ``repro sweep`` of the same matrix — worker losses, reassignments
    and duplicate completions included.  ``--resume`` salvages the
    staged results of a coordinator that was killed mid-dispatch (the
    write-ahead journal says which cells those are) and re-leases only
    the remainder; ``--redispatch N`` re-runs resolution up to N extra
    rounds until the matrix saturates.  Exit codes: 0 dispatched (and,
    without ``--strict``, even with failed jobs — they are reported
    structurally, like a sweep), 1 failed jobs under ``--strict``,
    2 configuration or worker-startup errors.
    """
    import time as timelib

    from repro.dist.coordinator import (
        DispatchCoordinator,
        DispatchError,
        sweep_cells,
    )
    from repro.dist.worker import (
        LocalWorkerPool,
        WorkerPoolError,
        parse_worker_spec,
    )
    from repro.sim.report import dispatch_health_summary
    from repro.sim.retry import RetryPolicy

    if args.workers is not None and args.worker_specs:
        print(
            "error: use --workers N (spawn local) or --worker SPEC "
            "(connect to running), not both",
            file=sys.stderr,
        )
        return 2
    if args.traces:
        names = args.traces
    else:
        specs = all_specs() if args.all_traces else sensitive_specs()
        names = [spec.name for spec in specs]

    redispatch = max(0, args.redispatch)
    policy = RetryPolicy.from_env()
    carry: dict[str, int] = {}
    round_index = 0
    while True:
        try:
            coordinator = DispatchCoordinator(
                args.preset,
                sweep_cells(names, [BASELINE_2MB, BASE_VICTIM_2MB]),
                lease_size=args.lease_size,
                worker_retries=args.worker_retries,
                lock_timeout=args.lock_timeout,
                timeout=args.timeout,
                progress=None if args.json else _progress_line,
                fold_every=args.fold_every,
                heartbeat_interval=args.heartbeat,
                heartbeat_deadline=args.heartbeat_deadline,
                # Every redispatch round after the first is a resume of
                # this command's own journal.
                resume=args.resume or round_index > 0,
                carry_counters=carry,
            )
        except DispatchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"dispatch: {coordinator.total_cells} cells, "
            f"{coordinator.cached_cells} cached, "
            f"{coordinator.pending_jobs} to run, preset={args.preset}"
            + (f" (round {round_index + 1})" if round_index else ""),
            file=sys.stderr,
        )
        try:
            if coordinator.pending_jobs == 0:
                # Nothing to lease: never spawn or contact a worker, and
                # leave the cache file byte-untouched.
                report = coordinator.run(())
            elif args.worker_specs:
                endpoints = [
                    parse_worker_spec(spec, index)
                    for index, spec in enumerate(args.worker_specs)
                ]
                report = coordinator.run(endpoints)
            elif args.workers is not None:
                pool = LocalWorkerPool(
                    args.workers,
                    args.preset,
                    coordinator.cache_dir,
                    jobs=args.jobs,
                    retries=args.retries,
                    job_timeout=args.job_timeout,
                    lock_timeout=args.lock_timeout,
                )
                with pool:
                    endpoints = pool.start()
                    report = coordinator.run(endpoints, pool=pool)
            else:
                print(
                    "error: dispatch has jobs to run but no workers; pass "
                    "--workers N or --worker SPEC",
                    file=sys.stderr,
                )
                return 2
        except (DispatchError, WorkerPoolError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not report.failures or round_index >= redispatch:
            break
        round_index += 1
        carry = _carry_dist_counters(coordinator.registry.as_dict())
        carry["dist/redispatch_rounds"] = (
            carry.get("dist/redispatch_rounds", 0) + 1
        )
        delay = policy.delay("dispatch/redispatch", round_index)
        print(
            f"dispatch: {len(report.failures)} unresolved cell(s); "
            f"redispatch round {round_index + 1}/{redispatch + 1} "
            f"in {delay:.2f}s",
            file=sys.stderr,
        )
        timelib.sleep(delay)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            f"dispatched {report.dispatched} job(s) over "
            f"{len(report.workers)} worker(s): {report.completed} completed, "
            f"{len(report.failures)} failed, {report.reassigned} reassigned, "
            f"{report.workers_lost} worker loss(es), "
            f"{report.duplicates} duplicate result(s)"
        )
        print(
            f"  folded in: {report.merged_new} new, "
            f"{report.merged_existing} existing; cache canonical at "
            f"{report.canonical_entries} entries"
        )
        print("  " + dispatch_health_summary(coordinator.registry.as_dict()))
        for failure in report.failures:
            print(
                f"failed: {failure.get('key')}: {failure.get('error')}: "
                f"{failure.get('message')}",
                file=sys.stderr,
            )
    return 1 if (report.failures and args.strict) else 0


def _carry_dist_counters(counters: dict) -> dict[str, int]:
    """History ``dist/*`` counters one redispatch round hands the next.

    Matrix-resolution counters (totals, cached, dispatched) are
    per-round by design and excluded; everything else accumulates so
    the final stats snapshot covers the whole saturation loop.
    """
    skip = {"dist/jobs_total", "dist/jobs_cached", "dist/jobs_dispatched"}
    return {
        name: int(metric["value"])
        for name, metric in counters.items()
        if (
            name.startswith("dist/")
            and name not in skip
            and metric.get("kind") == "counter"
        )
    }


def _cmd_serve_status(args: argparse.Namespace) -> int:
    """Query a running server's live counters and queue state."""
    from repro.serve.client import Address, ServeClient, ServeClientError

    try:
        with ServeClient(
            Address.from_args(args.socket, args.tcp), timeout=args.timeout
        ) as client:
            client.request({"op": "status"})
            status = client.next_event()
    except ServeClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    print(
        f"server pid {status.get('pid')}  preset={status.get('preset')}  "
        f"jobs={status.get('jobs')}  draining={status.get('draining')}"
    )
    print(
        f"queue depth: {status.get('queue_depth')}  "
        f"in-flight jobs: {status.get('inflight_jobs')}"
    )
    for name in sorted(status.get("counters", {})):
        label = name.removeprefix("serve/").replace("_", " ")
        print(f"  {label:24s} {status['counters'][name]}")
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    """Measure single-worker engine throughput (see repro.sim.perfbench)."""
    from repro.sim.perfbench import run

    return run(args)


def _cmd_area(args: argparse.Namespace) -> int:
    report = paper_headline_area()
    print("Section IV.C area accounting (2MB 16-way, 48-bit addresses):")
    print(f"  tag bits per way:            {report.tag_bits}")
    print(f"  added bits per way:          {report.added_bits}")
    print(f"  tag+metadata overhead:       {report.tag_metadata_overhead:.1%}")
    print(f"  compression logic overhead:  {report.compression_logic_overhead:.1%}")
    print(f"  total overhead:              {report.total_overhead:.1%}")
    return 0


def _cache_dir_from_args(args: argparse.Namespace) -> Path:
    """The cache directory a ``repro cache`` subcommand operates on."""
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    return default_cache_dir()


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    """Integrity census of every cache file (CRC, structure, duplicates).

    Prints one row per current-version ``results-v*.jsonl`` file: total
    lines, valid entries, CRC rejections, corrupt lines and duplicate
    keys.  Files of any other version are listed as stale and not read.
    With ``--strict`` any rejected line or stale file makes the exit
    code nonzero — the CI tripwire for silent cache rot; ``repro cache
    canonicalize`` scrubs rejected lines, and stale files are deleted
    by hand.
    """
    from repro.obs.registry import CounterRegistry
    from repro.sim.resultcache import CACHE_VERSION, cache_files, scan_cache_file

    directory = _cache_dir_from_args(args)
    files = cache_files(directory)
    if not files:
        print(f"no cache files under {directory}")
        return 0
    registry = CounterRegistry()
    print(
        f"{'file':34s} {'lines':>7s} {'entries':>7s} "
        f"{'crc':>5s} {'corrupt':>7s} {'dups':>5s}"
    )
    dirty = stale = 0
    for path, version in files:
        if version != CACHE_VERSION:
            stale += 1
            print(f"{path.name:34s} stale v{version} file, not read")
            continue
        report = scan_cache_file(path)
        registry.inc("cache/verified_lines", report.lines)
        registry.inc("cache/crc_failures", report.crc_failures)
        registry.inc("cache/corrupt_lines", report.corrupt_lines)
        if not report.clean:
            dirty += 1
        print(
            f"{path.name:34s} {report.lines:7d} {report.entries:7d} "
            f"{report.crc_failures:5d} {report.corrupt_lines:7d} "
            f"{report.duplicate_keys:5d}"
        )
    counters = registry.as_dict()
    print(
        f"\n{len(files)} file(s), {dirty} with rejected lines, {stale} stale "
        f"(crc failures: {counters['cache/crc_failures']['value']}, "
        f"corrupt: {counters['cache/corrupt_lines']['value']})"
    )
    if (dirty or stale) and args.strict:
        print("error: cache verification failed (--strict)", file=sys.stderr)
        return 1
    return 0


def _cmd_cache_canonicalize(args: argparse.Namespace) -> int:
    """Rewrite cache files into their canonical (key-sorted) form.

    Canonicalization makes cache bytes a pure function of the entry
    set, independent of write order — the normal form every dispatch
    fold ends in.  Run it on a serially-produced cache before comparing
    it byte-for-byte against a distributed one (the differential test
    and the CI sweep-smoke job's chaos dispatch do exactly that), or to
    scrub the lines
    ``repro cache verify`` rejects.  Idempotent; already-canonical files
    are left byte-untouched, and a rewrite copies valid lines verbatim.
    Only current-version files are rewritten; stale ones are listed and
    left byte-untouched.
    """
    from repro.sim.resultcache import (
        CACHE_VERSION,
        cache_files,
        canonicalize_cache_file,
    )

    directory = _cache_dir_from_args(args)
    files = cache_files(directory)
    if not files:
        print(f"no cache files under {directory}")
        return 0
    for path, version in files:
        if version != CACHE_VERSION:
            print(f"{path.name}: stale v{version} file, left untouched")
            continue
        stats = canonicalize_cache_file(path, lock_timeout=args.lock_timeout)
        print(f"{path.name}: canonical ({stats.existing_entries} entries)")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Dispatch ``repro cache <action>``."""
    handlers = {
        "verify": _cmd_cache_verify,
        "canonicalize": _cmd_cache_canonicalize,
    }
    return handlers[args.cache_command](args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Base-Victim compressed cache reproduction (ISCA 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-experiments", help="map figures/tables to bench targets")

    p_traces = sub.add_parser("list-traces", help="show the 100-trace suite")
    p_traces.add_argument("--sensitive", action="store_true")

    for name, helptext in (
        ("run", "run one trace on one machine"),
        ("compare", "compare all architectures on one trace"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--trace", required=True)
        p.add_argument("--preset", default="bench", choices=sorted(PRESETS))
        p.add_argument("--machine", default=ARCH_BASE_VICTIM, choices=ARCH_CHOICES)
        p.add_argument("--ways", type=int, default=16)
        p.add_argument("--sets-mult", type=float, default=1.0)
        p.add_argument("--policy", default="nru")
        p.add_argument("--victim-policy", default="ecm")
        _add_jobs_argument(p)

    p_stats = sub.add_parser(
        "stats", help="observability counters (victim occupancy, hit categories…)"
    )
    p_stats.add_argument(
        "--trace",
        action="append",
        required=True,
        dest="traces",
        metavar="NAME",
        help="trace to report on (repeatable; counters merge across traces)",
    )
    p_stats.add_argument("--preset", default="bench", choices=sorted(PRESETS))
    p_stats.add_argument("--machine", default=ARCH_BASE_VICTIM, choices=ARCH_CHOICES)
    p_stats.add_argument("--ways", type=int, default=16)
    p_stats.add_argument("--sets-mult", type=float, default=1.0)
    p_stats.add_argument("--policy", default="nru")
    p_stats.add_argument("--victim-policy", default="ecm")
    p_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_stats.add_argument(
        "--trace-events",
        action="store_true",
        help="record per-access events (uncached serial runs; "
        "window size via $REPRO_TRACE_LIMIT)",
    )
    _add_jobs_argument(p_stats)

    sub.add_parser("area", help="print the Section IV.C area overheads")

    p_perf = sub.add_parser(
        "perf", help="measure engine throughput (accesses/sec, phase times)"
    )
    from repro.sim.perfbench import add_arguments as _add_perf_arguments

    _add_perf_arguments(p_perf)

    p_export = sub.add_parser(
        "export", help="export the Base-Victim ratio series (CSV + ASCII plot)"
    )
    p_export.add_argument("--preset", default="bench", choices=sorted(PRESETS))
    p_export.add_argument("--all-traces", action="store_true")
    p_export.add_argument("--csv", help="CSV output path")
    _add_jobs_argument(p_export)

    p_sweep = sub.add_parser(
        "sweep",
        help="fault-tolerant (machine x trace) sweep with checkpoint/resume",
    )
    p_sweep.add_argument("--preset", default="bench", choices=sorted(PRESETS))
    p_sweep.add_argument(
        "--trace",
        action="append",
        dest="traces",
        metavar="NAME",
        help="trace subset (repeatable; default: the cache-sensitive suite)",
    )
    p_sweep.add_argument("--all-traces", action="store_true")
    p_sweep.add_argument(
        "--resume",
        action="store_true",
        help="salvage shards left by a killed sweep; report recovered vs "
        "recomputed cells",
    )
    p_sweep.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any cell failed after exhausting retries",
    )
    _add_jobs_argument(p_sweep)

    p_cache = sub.add_parser(
        "cache", help="inspect and maintain the on-disk result cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)
    p_verify = cache_sub.add_parser(
        "verify", help="integrity census: CRC, structure, duplicates"
    )
    p_verify.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any file has rejected lines or is stale",
    )
    p_canonicalize = cache_sub.add_parser(
        "canonicalize",
        help="rewrite cache files key-sorted (byte-comparable normal form)",
    )
    p_canonicalize.add_argument(
        "--lock-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "max seconds to wait for a cache file's lock "
            f"(default ${LOCK_TIMEOUT_ENV} or 120)"
        ),
    )
    for p in (p_verify, p_canonicalize):
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="cache directory (default: $REPRO_CACHE_DIR or ./.repro_cache)",
        )

    from repro.serve.protocol import (
        DEFAULT_CLIENT_QUOTA,
        DEFAULT_MAX_QUEUE,
        SOCKET_ENV,
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the experiment service (deduplicating job scheduler)",
    )
    p_serve.add_argument("--preset", default="bench", choices=sorted(PRESETS))
    p_serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help=(
            "unix socket to listen on "
            f"(default ${SOCKET_ENV} or serve.sock in the cache directory)"
        ),
    )
    p_serve.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help="listen on TCP instead of a unix socket",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        metavar="N",
        help=(
            "admission control: reject submissions once this many jobs "
            f"are queued (default {DEFAULT_MAX_QUEUE})"
        ),
    )
    p_serve.add_argument(
        "--client-quota",
        type=int,
        default=DEFAULT_CLIENT_QUOTA,
        metavar="N",
        help=(
            "max unresolved jobs per client connection "
            f"(default {DEFAULT_CLIENT_QUOTA})"
        ),
    )
    p_serve.add_argument(
        "--worker",
        action="store_true",
        help=(
            "run as a dispatch worker: widen the per-connection quota so "
            "one coordinator connection may lease the whole queue"
        ),
    )
    _add_jobs_argument(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit jobs to a running `repro serve` server"
    )
    p_submit.add_argument(
        "--trace",
        action="append",
        required=True,
        dest="traces",
        metavar="NAME",
        help="trace to run (repeatable)",
    )
    p_submit.add_argument(
        "--sweep",
        action="store_true",
        help="run the sweep machine pair (baseline + base-victim) per trace",
    )
    p_submit.add_argument(
        "--machine", default=ARCH_BASE_VICTIM, choices=ARCH_CHOICES
    )
    p_submit.add_argument("--ways", type=int, default=16)
    p_submit.add_argument("--sets-mult", type=float, default=1.0)
    p_submit.add_argument("--policy", default="nru")
    p_submit.add_argument("--victim-policy", default="ecm")
    p_submit.add_argument(
        "--wait",
        action="store_true",
        help="stream progress and block until every job resolves",
    )
    p_submit.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )

    p_serve_status = sub.add_parser(
        "serve-status", help="query a running server's counters and queue"
    )
    p_serve_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    for p in (p_submit, p_serve_status):
        p.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help=(
                "server unix socket "
                f"(default ${SOCKET_ENV} or serve.sock in the cache directory)"
            ),
        )
        p.add_argument(
            "--tcp",
            default=None,
            metavar="HOST:PORT",
            help="connect over TCP instead of a unix socket",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="socket timeout while talking to the server (default: none)",
        )

    from repro.dist.coordinator import (
        DEFAULT_FOLD_EVERY,
        DEFAULT_HEARTBEAT_INTERVAL,
        DEFAULT_LEASE_SIZE,
        DEFAULT_WORKER_RETRIES,
    )

    p_dispatch = sub.add_parser(
        "dispatch",
        help="shard a sweep across serve workers (multi-host or spawned)",
    )
    p_dispatch.add_argument(
        "--preset", default="bench", choices=sorted(PRESETS)
    )
    p_dispatch.add_argument(
        "--trace",
        action="append",
        dest="traces",
        metavar="NAME",
        help="trace subset (repeatable; default: the cache-sensitive suite)",
    )
    p_dispatch.add_argument("--all-traces", action="store_true")
    p_dispatch.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="spawn N local `repro serve --worker` subprocesses",
    )
    p_dispatch.add_argument(
        "--worker",
        action="append",
        dest="worker_specs",
        default=[],
        metavar="SPEC",
        help=(
            "a running worker endpoint: tcp:HOST:PORT or a unix-socket "
            "path (repeatable; e.g. an ssh -L forward of a remote worker)"
        ),
    )
    p_dispatch.add_argument(
        "--lease-size",
        type=int,
        default=DEFAULT_LEASE_SIZE,
        metavar="N",
        help=(
            "jobs per batch lease; smaller leases lose less work per "
            f"dead worker (default {DEFAULT_LEASE_SIZE})"
        ),
    )
    p_dispatch.add_argument(
        "--worker-retries",
        type=int,
        default=DEFAULT_WORKER_RETRIES,
        metavar="N",
        help=(
            "losses a worker survives before the coordinator retires it "
            f"(default {DEFAULT_WORKER_RETRIES})"
        ),
    )
    p_dispatch.add_argument(
        "--fold-every",
        type=int,
        default=DEFAULT_FOLD_EVERY,
        metavar="N",
        help=(
            "fold staged results into the cache every N completed "
            "leases; 0 folds only at the end "
            f"(default {DEFAULT_FOLD_EVERY})"
        ),
    )
    p_dispatch.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_HEARTBEAT_INTERVAL,
        metavar="SECONDS",
        help=(
            "seconds of mid-lease silence before pinging a worker; "
            f"0 disables heartbeats (default {DEFAULT_HEARTBEAT_INTERVAL})"
        ),
    )
    p_dispatch.add_argument(
        "--heartbeat-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "total silence before a worker is declared lost "
            "(default: 3x the heartbeat interval)"
        ),
    )
    p_dispatch.add_argument(
        "--resume",
        action="store_true",
        help=(
            "salvage the staged results of a crashed coordinator (from "
            "its write-ahead journal) before re-leasing the remainder"
        ),
    )
    p_dispatch.add_argument(
        "--redispatch",
        type=int,
        default=0,
        metavar="N",
        help=(
            "re-run matrix resolution up to N extra rounds while cells "
            "remain unresolved (default 0)"
        ),
    )
    p_dispatch.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero if any job failed on every eligible worker",
    )
    p_dispatch.add_argument(
        "--json", action="store_true", help="machine-readable dispatch report"
    )
    p_dispatch.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="socket timeout per lease conversation (default: none)",
    )
    _add_jobs_argument(p_dispatch)
    return parser


def _add_jobs_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep-execution flags (--jobs/--retries/--job-timeout)."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweeps (0 = one per CPU; "
            f"default ${JOBS_ENV} or 1)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "extra attempts per sweep job after a failure or timeout "
            f"(default ${RETRIES_ENV} or 0)"
        ),
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-attempt watchdog; a hung job fails and retries "
            f"(default ${JOB_TIMEOUT_ENV} or no timeout)"
        ),
    )
    parser.add_argument(
        "--lock-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "max seconds any cache write waits for the cache lock "
            f"(default ${LOCK_TIMEOUT_ENV} or 120; 0 = fail fast)"
        ),
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "list-experiments": _cmd_list_experiments,
        "list-traces": _cmd_list_traces,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "stats": _cmd_stats,
        "area": _cmd_area,
        "perf": _cmd_perf,
        "export": _cmd_export,
        "sweep": _cmd_sweep,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "serve-status": _cmd_serve_status,
        "dispatch": _cmd_dispatch,
    }
    try:
        _check_trace_names(args)
        return handlers[args.command](args)
    except LockTimeoutError as exc:  # another process wedged the cache lock
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # e.g. a malformed $REPRO_JOBS, trace or machine
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepFailedError as exc:  # strict-mode sweep with failed cells
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
