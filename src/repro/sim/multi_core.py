"""Multi-program (shared LLC) simulation driver.

Section V: four single-threaded traces share one LLC; each thread runs its
performance-measurement phase once, and threads that finish early *keep
executing* (wrapping around their trace) so shared-LLC contention stays
realistic until the slowest thread completes.  Performance is reported as
weighted speedup against single-program runs on the same machine.

Threads are interleaved by their simulated clocks: at every step the
thread with the smallest accumulated cycle count (the first on ties)
issues its next access, so faster threads naturally issue more requests
per unit time.  Each thread gets private L1/L2 caches and a private
address-space offset (two instances of the same trace in one mix must
not share lines).

The traced loop (``engine="traced"``) is the reference the mix oracle
compares against: one scheduling decision and one ``hierarchy.access``
per access.  A run gives each thread its own scalar access kernel
(:func:`repro.sim.batch.scalar_kernel`) and schedules by *run-ahead*
over a run queue of ``(clock, thread)`` pairs kept in sorted order.
The head is the thread the reference picks, and it keeps issuing while
it would still be chosen: while its clock is below the runner-up's when
the runner-up is an earlier thread, and at most the runner-up's when it
is a later one.  That one bound is exactly the reference order, one
kernel span per decision.  A kernel keeps its own trace position, so
a span is one ``run(limit)`` call that returns the thread's clock.  At
its trace end the kernel calls the driver's pass-end hook, which takes
the thread's first-pass measurement and says whether every thread now
has one; until then the kernel wraps and the span goes on.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from math import inf, nextafter

from repro.cache.hierarchy import L1, CacheHierarchy
from repro.memory.dram import DRAMModel
from repro.obs.registry import CounterRegistry
from repro.sim.batch import scalar_kernel
from repro.sim.config import MachineConfig, Preset
from repro.sim.single_core import ENGINES, OCCUPANCY_SAMPLES, RunResult, core_params_for
from repro.timing.core_model import CoreTimingModel
from repro.workloads.datagen import LineDataModel
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import TraceSuite
from repro.workloads.trace import Trace

#: Per-thread address-space offset (lines); far above any trace footprint.
_THREAD_STRIDE = 1 << 44


@dataclass
class MixRunResult:
    """Outcome of one mix on one machine: per-thread results + LLC stats."""

    mix: str
    machine: str
    threads: list[dict] = field(default_factory=list)
    llc_hits: int = 0
    llc_misses: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    #: Mix-level observability (shared-LLC counters + occupancy); each
    #: thread dict carries its private-level metrics in its own "obs".
    obs: dict = field(default_factory=dict)

    @property
    def thread_results(self) -> list[RunResult]:
        """Per-thread results rehydrated as RunResult objects."""
        return [RunResult.from_dict(t) for t in self.threads]

    @property
    def llc_hit_rate(self) -> float:
        """Shared-LLC hit rate over all lookups."""
        lookups = self.llc_hits + self.llc_misses
        if lookups == 0:
            return 0.0
        return self.llc_hits / lookups

    def to_dict(self) -> dict:
        """Plain-dict form for JSON caching."""
        return {
            "mix": self.mix,
            "machine": self.machine,
            "threads": self.threads,
            "llc_hits": self.llc_hits,
            "llc_misses": self.llc_misses,
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "obs": self.obs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MixRunResult":
        """Rebuild from the ``to_dict`` representation."""
        return cls(**data)


class _Thread:
    """One hardware thread's private state."""

    __slots__ = (
        "name",
        "trace",
        "data",
        "hierarchy",
        "core",
        "index",
        "finished_once",
        "offset",
        "measured_instr",
        "measured_cycles",
    )

    def __init__(
        self,
        name: str,
        trace: Trace,
        data: LineDataModel,
        hierarchy: CacheHierarchy,
        core: CoreTimingModel,
        offset: int,
    ) -> None:
        self.name = name
        self.trace = trace
        self.data = data
        self.hierarchy = hierarchy
        self.core = core
        self.index = 0
        self.finished_once = False
        self.offset = offset
        self.measured_instr = 0
        self.measured_cycles = 0.0


def simulate_mix(
    mix: MixSpec,
    machine: MachineConfig,
    preset: Preset,
    suite: TraceSuite,
    engine: str = "batch",
) -> MixRunResult:
    """Run one four-way mix on one machine configuration.

    ``engine="traced"`` runs the reference loop instead of the kernels
    (see the module docstring); any other name but ``"batch"`` raises
    ``ValueError``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected batch or traced")
    llc = machine.build_llc(preset)
    dram = DRAMModel()
    hierarchy_config = preset.hierarchy_config(machine.prefetch_degree)
    traced = engine == "traced"

    registry = CounterRegistry()
    occupancy = registry.histogram("llc/victim_occupancy")
    victim_occupancy = getattr(llc, "victim_occupancy", None)
    sample_every = max(
        1, len(mix.trace_names) * preset.trace_length // OCCUPANCY_SAMPLES
    )
    samples: list[int] = []
    # Accesses, over every thread, until the next occupancy sample.
    countdown = [sample_every]

    unfinished = len(mix.trace_names)

    def end_pass(thread: _Thread) -> bool:
        """A pass over ``thread``'s trace ended; True once the run is over.

        Threads that finish early keep wrapping their traces; the first
        pass end takes the thread's measurement, and the run is over
        when every thread has one.
        """
        nonlocal unfinished
        if not thread.finished_once:
            thread.finished_once = True
            thread.measured_instr = thread.core.instructions
            thread.measured_cycles = thread.core.cycles
            unfinished -= 1
        return not unfinished

    threads: list[_Thread] = []
    kernels = []
    for tid, trace_name in enumerate(mix.trace_names):
        trace = suite.trace(trace_name)
        data = suite.data_model(trace_name)
        offset = (tid + 1) * _THREAD_STRIDE

        def size_fn(addr: int, _data=data, _offset=offset) -> int:
            """Compressed size of the line backing ``addr``."""
            return _data.size_of(addr - _offset)

        hierarchy = CacheHierarchy(llc, size_fn, hierarchy_config, memory=dram)
        core = CoreTimingModel(core_params_for(trace, machine))
        thread = _Thread(trace_name, trace, data, hierarchy, core, offset)
        threads.append(thread)
        if not traced:
            kernels.append(
                scalar_kernel(
                    trace.deltas,
                    trace.addrs,
                    trace.kinds,
                    hierarchy,
                    core,
                    data.on_write,
                    victim_occupancy,
                    sample_every,
                    samples,
                    addr_offset=offset,
                    size_memo=data.size_memo,
                    size_fn=data.size_of,
                    on_pass_end=partial(end_pass, thread),
                    countdown=countdown,
                )
            )

    if traced:
        steps = 0
        while unfinished > 0:
            # The thread with the smallest clock issues next.
            thread = min(threads, key=_thread_clock)
            trace = thread.trace
            i = thread.index
            base_addr = trace.addrs[i]
            is_write = trace.kinds[i] == 1
            if is_write:
                thread.data.on_write(base_addr)
            thread.core.advance(trace.deltas[i])
            thread.hierarchy.now = thread.core.cycles
            outcome = thread.hierarchy.access(base_addr + thread.offset, is_write)
            if outcome.level != L1:
                thread.core.account_access(outcome, outcome.dram_latency)

            steps += 1
            if victim_occupancy is not None and steps % sample_every == 0:
                occupancy.observe(victim_occupancy())

            thread.index += 1
            if thread.index == len(trace):
                thread.index = 0
                end_pass(thread)
    else:
        # Run-ahead over a run queue sorted by (clock, thread): the head
        # is the reference's pick, smallest clock and first on ties.  It
        # runs until it reaches the runner-up's clock if the runner-up
        # is an earlier thread (which wins the tie), and until it passes
        # that clock otherwise; for floats, ``cycles <= c`` is ``cycles
        # < nextafter(c, inf)``, so the kernel checks one strict bound.
        # The kernels share the occupancy countdown, which counts every
        # thread's accesses, like the reference's step count.
        runs = [run for run, _ in kernels]
        queue = sorted((thread.core.cycles, k) for k, thread in enumerate(threads))
        while unfinished:
            _, k = queue.pop(0)
            limit, runner_up = queue[0]
            if runner_up > k:
                limit = nextafter(limit, inf)
            insort(queue, (runs[k](limit), k))
        for _, flush in kernels:
            flush()
        for value in samples:
            occupancy.observe(value)

    result = MixRunResult(mix=mix.name, machine=machine.label)
    for thread in threads:
        stats = thread.hierarchy.stats
        cycles = thread.measured_cycles
        # Each thread publishes its private levels only; the shared LLC
        # is published once, into the mix-level registry below.
        thread_registry = CounterRegistry()
        thread.hierarchy.publish_observations(thread_registry, include_llc=False)
        run = RunResult(
            trace=thread.name,
            machine=machine.label,
            instructions=thread.measured_instr,
            cycles=cycles,
            ipc=thread.measured_instr / cycles if cycles else 0.0,
            accesses=stats.accesses,
            l1_hits=stats.l1_hits,
            l2_hits=stats.l2_hits,
            llc_hits=stats.llc_hits,
            llc_victim_hits=stats.llc_victim_hits,
            llc_misses=stats.llc_misses,
            memory_reads=stats.memory_reads,
            memory_writes=stats.memory_writes,
            obs=thread_registry.as_dict(),
        )
        result.threads.append(run.to_dict())
        result.llc_hits += stats.llc_hits
        result.llc_misses += stats.llc_misses
        result.memory_reads += stats.memory_reads
        result.memory_writes += stats.memory_writes
    llc.publish_observations(registry)
    result.obs = registry.as_dict()
    return result


def _thread_clock(thread: _Thread) -> float:
    return thread.core.cycles
