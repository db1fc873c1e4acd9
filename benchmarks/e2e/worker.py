"""One run of one workload, in a fresh process started by ``run.py``.

The worker imports the program, prepares the workload's fixture (and,
for the served workloads, starts ``repro serve``), prints ``READY`` and
then measures a closed loop of operations for ``--seconds``.  ``run.py``
times spawn -> ``READY`` as the set-up time.  The last stdout line is
``RESULT <json>`` with the run's metrics and correctness tallies.

With ``--setup-only`` the worker stops after ``READY``.  With
``--trace`` it measures half the time untraced, repeats the same work
with spans around every call into the program's layers, and then runs
the per-layer probe of :mod:`layers`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans as spanlib  # noqa: E402
from repro.serve.client import Address, ServeClient  # noqa: E402
from repro.serve.protocol import machine_to_wire  # noqa: E402
from repro.serve.server import READY_PREFIX  # noqa: E402
from repro.sim import figures, metrics  # noqa: E402
from repro.sim.config import (  # noqa: E402
    ARCH_BASE_VICTIM,
    BASE_VICTIM_2MB,
    BASELINE_2MB,
    BENCH,
    MachineConfig,
)
from repro.sim.experiment import ExperimentRunner  # noqa: E402
from repro.sim.resultcache import cache_file_name  # noqa: E402
from repro.workloads.mixes import build_mixes  # noqa: E402
from repro.workloads.suite import all_specs, sensitive_specs  # noqa: E402
from repro.workloads.tracecache import process_cache  # noqa: E402

#: End-to-end metrics every untraced run reports, with their units.
E2E_METRICS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Layers timed by spans in the traced run (see spans.install).
SPAN_LAYERS = (
    "workloads.suite.trace",
    "workloads.datagen.size_tables",
    "sim.single_core.simulate_trace",
    "sim.multi_core.simulate_mix",
    "sim.resultcache.load",
    "sim.resultcache.append",
    "sim.resultcache.canonicalize",
    "sim.experiment",
    "sim.report",
    "serve.protocol",
    "serve.scheduler",
    "serve.client.wait",
)

#: Per-layer metrics the per-layer probe reports (see layers.run_probe).
PROBE_METRICS = {
    "workloads.suite.trace.accesses_per_s": "1/s",
    "workloads.datagen.size_tables.accesses_per_s": "1/s",
    "cache.hierarchy.accesses_per_s": "1/s",
    "cache.hierarchy.self.share": "frac",
    "workloads.datagen.size_of.share": "frac",
    "cache.l1.hit_frac": "frac",
    "cache.l2.hit_frac": "frac",
    "core.llc.uncompressed.share": "frac",
    "core.llc.uncompressed.requests_per_s": "1/s",
    "core.llc.uncompressed.replay_per_s": "1/s",
    "core.llc.uncompressed.hit_frac": "frac",
    "core.llc.base-victim.share": "frac",
    "core.llc.base-victim.requests_per_s": "1/s",
    "core.llc.base-victim.replay_per_s": "1/s",
    "core.llc.base-victim.hit_frac": "frac",
    "core.llc.base-victim.victim_hit_frac": "frac",
    "core.llc.requests": "count",
    "memory.dram.share": "frac",
    "memory.dram.requests_per_s": "1/s",
    "memory.dram.replay_per_s": "1/s",
    "memory.dram.row_hit_frac": "frac",
    "memory.dram.reads": "count",
    "sim.engine.traced.accesses_per_s": "1/s",
    "sim.engine.batch.accesses_per_s": "1/s",
    "compression.kernels.bdi.lines_per_s": "1/s",
    "compression.kernels.cpack.lines_per_s": "1/s",
    "compression.kernels.fpc.lines_per_s": "1/s",
    "sim.resultcache.load.entries_per_s": "1/s",
    "sim.resultcache.canonicalize.entries_per_s": "1/s",
    "sim.resultcache.append.entries_per_s": "1/s",
    "serve.protocol.encode_per_s": "1/s",
    "serve.protocol.decode_per_s": "1/s",
}

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    **{f"{layer}.share": "frac" for layer in SPAN_LAYERS},
    **{f"{layer}.calls_per_op": "count" for layer in SPAN_LAYERS},
    "bench.op.self.share": "frac",
    "trace_overhead_frac": "frac",
    **PROBE_METRICS,
}

#: Figure 13's shared-LLC machines (Section V: a 4MB LLC for 4 threads).
MIX_4MB = MachineConfig(llc_sets_mult=2.0)
MIX_4MB_BV = MachineConfig(arch=ARCH_BASE_VICTIM, llc_sets_mult=2.0)
MIX_6MB = MachineConfig(llc_ways=24, llc_sets_mult=2.0, extra_llc_latency=1)
FIG13_MACHINES = {"4MB": MIX_4MB, "4MB+compression": MIX_4MB_BV, "6MB": MIX_6MB}

#: Mixes whose shared-LLC cells fig13-mix regenerates.  Mix cells cost
#: 2.7-17 s each, so the workload runs the two cheapest ones on both
#: 4MB machines every time and the seed only orders them.
FIG13_MIXES = ("mix01", "mix02")

#: Traces per serve-hit sweep (each on both Figure 8 machines).
HIT_SWEEP_TRACES = 8


class Meter:
    """One closed loop's operations, timed on a :class:`hostspeed.HostClock`.

    Raw times are wall-clock; the scaled ones are at the reference host
    speed (see hostspeed.py).
    """

    def __init__(self, sampled: bool) -> None:
        self.clock = hostspeed.HostClock()
        self.sampled = sampled
        self.spans: list[tuple[float, float]] = []
        self.cells = 0
        self.done: list = []
        self.rss_mb: float | None = None
        self.start = time.perf_counter()
        self.end = self.start

    def sampling(self):
        """Sample this process's CPU while measuring, if it does the work."""
        return self.clock if self.sampled else nullcontext()

    def add(self, span: list[float], cells: int) -> None:
        self.spans.append((span[0], span[1]))
        self.cells += cells

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def stop(self) -> None:
        self.end = time.perf_counter()

    @property
    def latencies(self) -> list[float]:
        return [self.clock.scaled(start, end) for start, end in self.spans]

    @property
    def raw_latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    @property
    def window(self) -> float:
        return self.clock.scaled(self.start, self.end)

    @property
    def raw_window(self) -> float:
        return self.end - self.start


class Run:
    """Shared state of one worker: arguments, work directory, tallies."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.workdir = Path(args.workdir)
        self.server_cpu = args.server_cpu
        self.committed = ROOT / ".repro_cache" / cache_file_name(BENCH.name)
        self.reference_path = Path(args.reference)
        self.reference: oracle.Reference | None = None
        self.spans: spanlib.Spans | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._dirs = itertools.count()

    def fresh_dir(self) -> Path:
        """A path inside the work directory that does not exist yet."""
        return self.workdir / f"cache-{next(self._dirs)}"

    def tally(self, attempted: int, failed: int, problem: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if problem and len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, key: str | None, result: dict, what: str) -> bool:
        """Count one result cell; correct when it equals the committed one."""
        assert self.reference is not None
        ok = self.reference.matches(key, result)
        self.tally(1, 0 if ok else 1, None if ok else f"{what} differs")
        return ok

    def check_single(self, machine: MachineConfig, result) -> bool:
        assert self.reference is not None
        key = self.reference.single_key(machine.label, result.trace)
        return self.check(key, result.to_dict(), f"{machine.label} {result.trace}")

    @contextmanager
    def timed(self):
        """Time the program's part of one operation: yields [start, end]."""
        span = [0.0, 0.0]
        with self.spans.span("bench.op") if self.spans else nullcontext():
            span[0] = time.perf_counter()
            yield span
            span[1] = time.perf_counter()


class Workload:
    """One workload: fixture, seeded operations and their checks."""

    #: Operations every run completes, so the seed never changes the mix
    #: of work a run measures.
    min_ops = 1
    #: Result cells one operation delivers (counted failed if it raises).
    cells_per_op = 1
    #: Whether this process does the operations' work (and so samples
    #: its CPU's speed while measuring).
    works_here = True

    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self) -> None:
        """Program-side preparation before the first operation."""

    def ops(self):
        """The seeded operation stream."""
        raise NotImplementedError

    def run_op(self, op) -> tuple[list[float], int]:
        """Run and check one operation; returns ([start, end], cells delivered)."""
        raise NotImplementedError

    def measure(self, ops, seconds: float, min_ops: int) -> Meter:
        """Closed loop: the next operation starts when the last one ends."""
        meter = Meter(self.works_here)
        with meter.sampling():
            for op in ops:
                done = len(meter.done)
                # Whole cycles of min_ops only, and another only if it fits:
                # a partial cycle would change the mix of work measured.
                if done >= min_ops and done % min_ops == 0:
                    if meter.elapsed() * (1 + min_ops / done) > seconds:
                        break
                try:
                    span, delivered = self.run_op(op)
                except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
                    lost = max(1, self.cells_per_op)
                    self.run.tally(lost, lost, traceback.format_exc())
                else:
                    meter.add(span, delivered)
                meter.done.append(op)
                if len(meter.done) == min_ops:
                    meter.rss_mb = self.rss_mb()
            meter.stop()
        return meter

    def traced_ops(self, ops, untraced: Meter):
        """Operations for the traced half: the untraced half's, again."""
        return untraced.done

    def start_tracing(self) -> None:
        """Hook for workloads whose layers live in another process."""

    def stop_tracing(self) -> list[tuple]:
        """Spans recorded outside this process."""
        return []

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def finish(self, meter: Meter) -> None:
        """Add host-speed samples taken in other processes to ``meter``."""

    def rss_mb(self) -> float:
        """Peak resident memory so far of the process doing the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def info(self) -> dict:
        """Workload-specific numbers printed next to the metrics."""
        return {}


class Fig8Cold(Workload):
    """A cold Figure 8 pair: fresh runner, empty result and trace caches."""

    min_ops = len(oracle.COST_STRATA)
    cells_per_op = 2

    def setup(self) -> None:
        self.ipc: dict[str, float] = {}
        self.reads: dict[str, float] = {}

    def ops(self):
        return itertools.cycle(oracle.cold_traces(self.run.seed))

    def run_op(self, trace: str) -> tuple[list[float], int]:
        process_cache().clear()
        cache_dir = self.run.fresh_dir()
        with self.run.timed() as span:
            runner = ExperimentRunner(BENCH, cache_dir=cache_dir, jobs=1)
            [(base, cand)] = runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, [trace])
            ipc = metrics.ipc_ratio(cand, base)
            reads = metrics.dram_read_ratio(cand, base)
        self.run.check_single(BASELINE_2MB, base)
        self.run.check_single(BASE_VICTIM_2MB, cand)
        self.ipc[trace] = ipc
        self.reads[trace] = reads
        shutil.rmtree(cache_dir)
        return span, 2

    def info(self) -> dict:
        csv = self.run.workdir / "figure8.csv"
        figures.write_series_csv(csv, {"IPC ratio": self.ipc, "DRAM read ratio": self.reads})
        return {
            "traces": len(self.ipc),
            "ipc_gain_geomean": metrics.geomean(self.ipc.values()),
            "dram_read_ratio_geomean": metrics.geomean(self.reads.values()),
        }


class Fig13Mix(Workload):
    """One cold shared-LLC mix cell of Figure 13."""

    min_ops = len(FIG13_MIXES) * 2

    def setup(self) -> None:
        self.accesses = 0
        self.sim_s = 0.0

    def ops(self):
        mixes = {mix.name: mix for mix in build_mixes()}
        cells = [
            (mixes[name], machine)
            for name in FIG13_MIXES
            for machine in (MIX_4MB, MIX_4MB_BV)
        ]
        random.Random(self.run.seed).shuffle(cells)
        return itertools.cycle(cells)

    def run_op(self, cell) -> tuple[list[float], int]:
        mix, machine = cell
        process_cache().clear()
        cache_dir = self.run.fresh_dir()
        with self.run.timed() as span:
            runner = ExperimentRunner(BENCH, cache_dir=cache_dir, jobs=1)
            result = runner.run_mix(machine, mix)
        assert self.run.reference is not None
        key = self.run.reference.mix_key(machine.label, mix.name)
        self.run.check(key, result.to_dict(), f"{machine.label} {mix.name}")
        self.accesses += sum(thread["accesses"] for thread in result.threads)
        self.sim_s += span[1] - span[0]
        shutil.rmtree(cache_dir)
        return span, 1

    def info(self) -> dict:
        return {"sim_accesses_per_s": self.accesses / self.sim_s if self.sim_s else 0.0}


class FigsWarm(Workload):
    """Figures 8 and 13 regenerated in full from a warm result cache."""

    #: Result cells one regeneration reads (set by the first one).
    cells_per_op = 1

    def setup(self) -> None:
        self.fixture = self.run.workdir / "warm-cache"
        self.fixture.mkdir(parents=True)
        shutil.copyfile(self.run.committed, self.fixture / self.run.committed.name)
        rng = random.Random(self.run.seed)
        self.names = [spec.name for spec in sensitive_specs()]
        rng.shuffle(self.names)
        self.mixes = build_mixes()
        rng.shuffle(self.mixes)
        self.figures: tuple | None = None

    def ops(self):
        return itertools.count()

    def run_op(self, _index: int) -> tuple[list[float], int]:
        read: list = []
        with self.run.timed() as span:
            runner = ExperimentRunner(BENCH, cache_dir=self.fixture, jobs=1)
            pairs = runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, self.names)
            ipc = {b.trace: metrics.ipc_ratio(c, b) for b, c in pairs}
            reads = {b.trace: metrics.dram_read_ratio(c, b) for b, c in pairs}
            speedups: dict[str, dict[str, float]] = {}
            for label, machine in FIG13_MACHINES.items():
                shared = runner.run_mixes(machine, self.mixes)
                speedups[label] = {}
                for mix, result in zip(self.mixes, shared):
                    alone = [runner.run_single(machine, n) for n in mix.trace_names]
                    speedups[label][mix.name] = metrics.weighted_speedup(
                        result.thread_results, alone
                    )
                    read.append((machine, result, alone))
            gains = {
                label: metrics.geomean(
                    speedups[label][m] / speedups["4MB"][m] for m in speedups[label]
                )
                for label in FIG13_MACHINES
            }
            figures.write_series_csv(
                self.run.workdir / "figure8.csv",
                {"IPC ratio": ipc, "DRAM read ratio": reads},
            )
        # Every cell read counts; it fails if it had to be simulated, or
        # differs from the oracle (checked cell by cell the first time,
        # through the figures it feeds afterwards).
        hits, misses = runner.cache_hits, runner.cache_misses
        self.cells_per_op = hits + misses
        current = (ipc, reads, speedups, gains)
        if self.figures is None:
            self.figures = current
            wrong = self._mismatches(pairs, read)
        else:
            wrong = 0 if current == self.figures else hits
        failed = min(hits + misses, misses + wrong)
        problem = f"{misses} simulated, {wrong} wrong cells" if failed else None
        self.run.tally(hits + misses, failed, problem)
        return span, hits

    def _mismatches(self, pairs, read) -> int:
        """Cells of the first regeneration that differ from the oracle."""
        ref = self.run.reference
        assert ref is not None
        singles = [(BASELINE_2MB, base) for base, _ in pairs]
        singles += [(BASE_VICTIM_2MB, cand) for _, cand in pairs]
        singles += [(machine, one) for machine, _, alone in read for one in alone]
        wrong = sum(
            not ref.matches(ref.single_key(m.label, r.trace), r.to_dict())
            for m, r in singles
        )
        return wrong + sum(
            not ref.matches(ref.mix_key(m.label, r.mix), r.to_dict())
            for m, r, _ in read
        )

    def info(self) -> dict:
        if self.figures is None:
            return {}
        ipc, _, _, gains = self.figures
        return {
            "ipc_gain_geomean": metrics.geomean(ipc.values()),
            "ws_gain_geomean": gains["4MB+compression"],
        }


class ServeWorkload(Workload):
    """One client of a ``repro serve`` subprocess on a private cache copy."""

    def setup(self) -> None:
        self.fixture = self.run.workdir / "serve-cache"
        self.fixture.mkdir(parents=True)
        self.write_fixture(self.fixture / self.run.committed.name)
        self.socket = (self.run.workdir / "serve.sock").relative_to(ROOT)
        self.server_log = (self.run.workdir / "serve.log").open("w")
        self.server: subprocess.Popen | None = None
        self.client: ServeClient | None = None
        self.spans_path: Path | None = None
        self.samples: list[Path] = []
        self.requests = itertools.count()
        self.start_server()

    def write_fixture(self, path: Path) -> None:
        shutil.copyfile(self.run.committed, path)

    def start_server(self, spans_path: Path | None = None) -> None:
        samples = self.run.workdir / f"server-samples-{len(self.samples)}.json"
        self.samples.append(samples)
        command = [
            sys.executable, str(HERE / "server.py"), str(self.run.server_cpu),
            str(samples), str(spans_path or "-"),
            "serve", "--preset", BENCH.name, "--jobs", "1", "--socket", str(self.socket),
        ]
        env = dict(os.environ, REPRO_CACHE_DIR=str(self.fixture))
        self.server = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.server_log,
            text=True,
        )
        assert self.server.stdout is not None
        ready = self.server.stdout.readline()
        if not ready.startswith(READY_PREFIX):
            self.server.wait(timeout=60)
            raise RuntimeError(f"repro serve did not start (exit {self.server.returncode})")
        # Drain anything else the server prints so it never blocks on a pipe.
        threading.Thread(target=self.server.stdout.read, daemon=True).start()
        self.client = ServeClient(Address(path=self.socket), timeout=120)
        self.client.handshake()

    def stop_server(self) -> None:
        if self.server is None:
            return
        if self.client is not None:
            self.client.close()
            self.client = None
        self.server.send_signal(signal.SIGTERM)
        code = self.server.wait(timeout=120)
        self.server = None
        if code != 0:
            self.run.tally(0, 1, f"repro serve exited {code} after SIGTERM")

    def start_tracing(self) -> None:
        self.stop_server()
        self.spans_path = self.run.workdir / "server-spans.json"
        self.start_server(self.spans_path)

    def stop_tracing(self) -> list[tuple]:
        self.stop_server()
        assert self.spans_path is not None
        return spanlib.load(self.spans_path)

    def teardown(self) -> None:
        self.stop_server()
        self.server_log.close()

    def finish(self, meter: Meter) -> None:
        for samples in self.samples:
            meter.clock.absorb(samples)

    def rss_mb(self) -> float:
        """The server's peak resident memory so far (Linux ``VmHWM``)."""
        assert self.server is not None
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(line.split()[1]) / 1024

    def run_op(self, expected: list[tuple]) -> tuple[list[float], int]:
        """Submit the (machine, trace) jobs, wait for ``done``, check results."""
        assert self.client is not None and self.run.reference is not None
        jobs = [
            {"trace": trace, "machine": machine_to_wire(machine)}
            for machine, trace in expected
        ]
        request = {"op": "submit", "id": f"op-{next(self.requests)}", "jobs": jobs}
        events = []
        with self.run.timed() as span:
            self.client.request(request)
            while not events or events[-1].get("event") not in ("done", "rejected", "error"):
                events.append(self.client.next_event())
        results = {e["key"]: e["result"] for e in events if e.get("event") == "result"}
        correct = 0
        for machine, trace in expected:
            key = self.run.reference.single_key(machine.label, trace)
            if self.run.check(key, results.get(key, {}), f"served {machine.label} {trace}"):
                correct += 1
        return span, correct


class ServeHit(ServeWorkload):
    """Cached 16-job sweeps: the service's read path.

    One closed-loop client: with two, a sweep either runs alone (about
    2 ms) or queues behind the other's (about 5.5 ms), and the median
    of that two-mode round trip moved 7.7% between seeds.
    """

    cells_per_op = HIT_SWEEP_TRACES * 2

    def ops(self):
        traces = sorted(spec.name for spec in all_specs())
        rng = random.Random(self.run.seed)
        while True:
            yield [
                (machine, trace)
                for trace in rng.sample(traces, HIT_SWEEP_TRACES)
                for machine in (BASELINE_2MB, BASE_VICTIM_2MB)
            ]


class ServeMiss(ServeWorkload):
    """One uncached cell at a time: simulate, append, canonicalize, reply."""

    min_ops = len(oracle.COST_STRATA)
    #: The client only waits; the server's samples scale its latencies.
    works_here = False

    def setup(self) -> None:
        machines = (BASELINE_2MB, BASE_VICTIM_2MB)
        self.cells = [
            (machines[index % 2], trace)
            for index, trace in enumerate(oracle.cold_traces(self.run.seed))
        ]
        super().setup()

    def write_fixture(self, path: Path) -> None:
        """The committed cache minus every cell this run will ask for."""
        removed = {(machine.label, trace) for machine, trace in self.cells}
        with self.run.committed.open() as source, path.open("w") as target:
            for line in source:
                # Entries are canonical JSON, so "key" is the first field.
                start = len('{"key": "')
                _, _, label, name, _ = line[start : line.index('"', start)].split("|")
                if (label, name) not in removed:
                    target.write(line)

    def ops(self):
        return ([cell] for cell in self.cells)

    def traced_ops(self, ops, untraced: Meter):
        # Cells served in the untraced half are cached now; take new ones.
        return itertools.islice(ops, len(untraced.done))


WORKLOADS = {
    "fig8-cold": Fig8Cold,
    "fig13-mix": Fig13Mix,
    "figs-warm": FigsWarm,
    "serve-hit": ServeHit,
    "serve-miss": ServeMiss,
}


def _layer_metrics(records: list[tuple]) -> dict:
    """Span-derived layer shares of the traced half's operation time."""
    ops = [r for r in records if r[1] == "bench.op"]
    first = min(r[2] for r in ops)
    last = max(r[3] for r in ops)
    # Server start-up and drain happen outside the measured operations.
    inside = [r for r in records if r[2] >= first and r[3] <= last]
    totals = spanlib.by_name(inside)
    op_time = sum(r[3] - r[2] for r in ops)
    count = len(ops)
    result = {}
    for layer in SPAN_LAYERS:
        calls, busy = totals.get(layer, (0, 0.0))
        result[f"{layer}.share"] = busy / op_time
        result[f"{layer}.calls_per_op"] = calls / count
    result["bench.op.self.share"] = totals["bench.op"][1] / op_time
    return result


def traced_run(workload: Workload, run: Run, seconds: float) -> tuple[dict, dict]:
    ops = workload.ops()
    untraced = workload.measure(ops, seconds / 2, 1)
    recorder = spanlib.Spans(f"{type(workload).__name__}-seed{run.seed}-{os.getpid()}")
    workload.start_tracing()
    spanlib.install(recorder)
    run.spans = recorder
    try:
        again = workload.traced_ops(ops, untraced)
        traced = workload.measure(again, seconds / 2, len(untraced.done))
    finally:
        run.spans = None
        recorder.restore()
    recorder.records += workload.stop_tracing()
    workload.finish(untraced)
    workload.finish(traced)
    records = recorder.records
    spans_dir = ROOT / ".bench_work" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{run.workload}-seed{run.seed}.json"
    recorder.dump(spans_file)
    result = _layer_metrics(records)
    result["trace_overhead_frac"] = (
        statistics.median(traced.latencies) / statistics.median(untraced.latencies) - 1
    )
    import layers  # the probe imports most of the program; load it only here

    assert run.reference is not None
    probe = layers.run_probe(run.seed, BENCH, run.reference, run.committed, run.workdir)
    run.tally(probe.attempted, probe.failed, "; ".join(probe.problems) or None)
    result.update(probe.metrics)
    return result, {"spans_file": str(spans_file.relative_to(ROOT))}


def untraced_run(workload: Workload, seconds: float) -> tuple[dict, dict]:
    meter = workload.measure(workload.ops(), seconds, workload.min_ops)
    workload.teardown()
    workload.finish(meter)
    latencies = meter.latencies
    if not latencies:
        raise RuntimeError("no operation completed")
    measured = {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "cells_per_s": meter.cells / meter.window,
        "peak_rss_mb": meter.rss_mb,
    }
    info = {
        "ops": len(latencies),
        "p90_ms": sorted(latencies)[int(0.9 * (len(latencies) - 1))] * 1000,
        "raw_latency_p50_ms": statistics.median(meter.raw_latencies) * 1000,
        "raw_cells_per_s": meter.cells / meter.raw_window,
        "host_speed": meter.window / meter.raw_window,
    }
    return measured, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--reference", required=True)
    parser.add_argument("--server-cpu", type=int, required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    run = Run(args)
    workload = WORKLOADS[args.workload](run)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        workload.teardown()
        return 0
    try:
        run.reference = oracle.Reference(run.reference_path)
        if args.trace:
            measured, info = traced_run(workload, run, args.seconds)
        else:
            measured, info = untraced_run(workload, args.seconds)
        info.update(workload.info())
    finally:
        workload.teardown()
    payload = {
        "metrics": measured,
        "info": info,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    print("RESULT " + json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
