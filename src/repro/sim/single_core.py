"""Single-threaded trace simulation driver.

Glues together one trace, its data model, a machine configuration, the
cache hierarchy, the DRAM model and the analytic core timing model, and
produces a serialisable :class:`RunResult` with every counter the paper's
figures need (IPC, DRAM reads/writes, LLC behaviour, energy inputs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from math import inf

from repro.cache.hierarchy import L1, CacheHierarchy
from repro.compression.stats import publish_codec_histograms
from repro.memory.dram import DRAMModel
from repro.obs.registry import CounterRegistry
from repro.obs.tracing import TraceRecorder
from repro.sim.batch import scalar_kernel
from repro.sim.config import MachineConfig, Preset
from repro.timing.core_model import CoreParams, CoreTimingModel
from repro.timing.latency import LatencyParams
from repro.workloads.datagen import LineDataModel
from repro.workloads.trace import Trace

#: Victim-cache occupancy is sampled this many times over a run.
OCCUPANCY_SAMPLES = 64

#: Inner-loop names the drivers take: the scalar kernel, and the traced
#: reference loop the oracles compare it against.
ENGINES = ("batch", "traced")


@dataclass
class RunResult:
    """All measurements of one (trace, machine) run."""

    trace: str
    machine: str
    instructions: int = 0
    cycles: float = 0.0
    ipc: float = 0.0
    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_victim_hits: int = 0
    llc_misses: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    dram_activates: int = 0
    dram_avg_read_latency: float = 0.0
    compressed_hits: int = 0
    back_invalidations: int = 0
    silent_evictions: int = 0
    llc_accesses: int = 0
    llc_data_reads: int = 0
    llc_data_writes: int = 0
    llc_fill_segments: int = 0
    writebacks_to_llc: int = 0
    prefetch_fills: int = 0
    avg_compressed_fraction: float = 1.0
    extra: dict = field(default_factory=dict)
    #: Serialised observability metrics (see repro.obs): deterministic
    #: counters/histograms only, so cached runs merge across shards.
    obs: dict = field(default_factory=dict)

    @property
    def llc_hit_rate(self) -> float:
        """LLC hits over LLC lookups (demand accesses reaching the LLC)."""
        lookups = self.llc_hits + self.llc_misses
        if lookups == 0:
            return 0.0
        return self.llc_hits / lookups

    def to_dict(self) -> dict:
        """Plain-dict form for JSON caching."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild from the ``to_dict`` representation."""
        return cls(**data)


def core_params_for(trace: Trace, machine: MachineConfig) -> CoreParams:
    """Core timing parameters: trace MLP plus machine latency adders."""
    meta = trace.meta
    latencies = LatencyParams(
        llc_cycles=LatencyParams().llc_cycles + machine.extra_llc_latency
    )
    return CoreParams(
        mlp_l2=meta.mlp_l2,
        mlp_llc=meta.mlp_llc,
        mlp_memory=meta.mlp_memory,
        latencies=latencies,
    )


def simulate_trace(
    trace: Trace,
    data: LineDataModel,
    machine: MachineConfig,
    preset: Preset,
    tracer: TraceRecorder | None = None,
    registry: CounterRegistry | None = None,
    engine: str = "batch",
) -> RunResult:
    """Run one trace through one machine configuration.

    ``tracer`` (see :mod:`repro.obs.tracing`) records a bounded window
    of per-access events without affecting any simulation state; the
    caller flushes it.  ``registry`` lets a caller keep the run's
    :class:`CounterRegistry` afterwards — the perf bench reads the
    ``phase/*`` timers, which never serialise into ``RunResult.obs``.

    A run replays the trace as one scalar-kernel span, ``run(inf)``
    (:func:`repro.sim.batch.scalar_kernel`), whose default pass-end
    hook ends the run after one pass.  ``engine="traced"`` or an active
    tracer runs the traced reference loop instead, the one the
    byte-identity oracles compare the kernel against; any other name
    raises ``ValueError``.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected batch or traced")
    llc = machine.build_llc(preset)
    dram = DRAMModel()
    hierarchy = CacheHierarchy(
        llc,
        size_fn=data.size_of,
        config=preset.hierarchy_config(machine.prefetch_degree),
        memory=dram,
        size_memo=getattr(data, "size_memo", None),
    )
    if hierarchy._uses_sizes:
        # Precompute every trace address's current size in one vectorised
        # pass (values identical to size_of, so the two loops stay
        # byte-identical with or without priming).
        prime = getattr(data, "prime_size_memo", None)
        if prime is not None:
            prime(trace.addrs)
    core = CoreTimingModel(core_params_for(trace, machine))

    if tracer is not None:
        tracer.record(event="run", trace=trace.meta.name, machine=machine.label)

    if registry is None:
        registry = CounterRegistry()

    kinds = trace.kinds
    addrs = trace.addrs
    deltas = trace.deltas
    on_write = data.on_write
    access = hierarchy.access
    advance = core.advance
    account = core.account_access

    # Sample victim-cache occupancy on a fixed deterministic grid; LLCs
    # without a Victim Cache (no victim_occupancy) are never sampled.
    length = len(addrs)
    victim_occupancy = getattr(llc, "victim_occupancy", None)
    sample_every = max(1, length // OCCUPANCY_SAMPLES)
    occupancy = registry.histogram("llc/victim_occupancy")

    # Two equivalent inner loops.  The traced loop is the reference:
    # one hierarchy.access per demand access, per-access counter
    # updates, one tracer.record per access.  The batch loop runs the
    # scalar access kernel over the whole trace as one span.
    # tests/sim/test_engine_equivalence.py and
    # tests/sim/test_batch_equivalence.py prove both produce
    # byte-identical RunResults and observations.
    with registry.timer("phase/simulate"):
        if engine == "batch" and tracer is None:
            samples: list[int] = []
            run, flush = scalar_kernel(
                deltas,
                addrs,
                kinds,
                hierarchy,
                core,
                on_write,
                victim_occupancy,
                sample_every,
                samples,
            )
            run(inf)
            flush()
            for value in samples:
                occupancy.observe(value)
        else:
            next_sample = sample_every - 1 if victim_occupancy is not None else -1
            for i in range(length):
                advance(deltas[i])
                hierarchy.now = core.cycles
                addr = addrs[i]
                is_write = kinds[i] == 1
                if is_write:
                    on_write(addr)
                outcome = access(addr, is_write)
                if outcome.level != L1:
                    account(outcome, outcome.dram_latency)
                if i == next_sample:
                    occupancy.observe(victim_occupancy())
                    next_sample += sample_every
                if tracer is not None:
                    tracer.record(i=i, addr=addr, write=is_write, level=outcome.level)

    with registry.timer("phase/publish"):
        hierarchy.publish_observations(registry)
        palette = getattr(data, "palette", None)
        if palette:
            publish_codec_histograms(registry, [entry.data for entry in palette])

    stats = hierarchy.stats
    result = RunResult(
        trace=trace.meta.name,
        machine=machine.label,
        instructions=core.instructions,
        cycles=core.cycles,
        ipc=core.ipc,
        accesses=stats.accesses,
        l1_hits=stats.l1_hits,
        l2_hits=stats.l2_hits,
        llc_hits=stats.llc_hits,
        llc_victim_hits=stats.llc_victim_hits,
        llc_misses=stats.llc_misses,
        memory_reads=stats.memory_reads,
        memory_writes=stats.memory_writes,
        dram_activates=dram.stat_activates,
        dram_avg_read_latency=dram.average_read_latency,
        compressed_hits=stats.compressed_hits,
        back_invalidations=stats.back_invalidations,
        silent_evictions=stats.silent_evictions,
        llc_accesses=stats.llc_accesses,
        llc_data_reads=stats.llc_data_reads,
        llc_data_writes=stats.llc_data_writes,
        llc_fill_segments=stats.llc_fill_segments,
        writebacks_to_llc=stats.writebacks_to_llc,
        prefetch_fills=stats.prefetch_fills,
        avg_compressed_fraction=data.average_size_fraction(),
        obs=registry.as_dict(),
    )
    return result
