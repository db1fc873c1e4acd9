"""Per-layer probe of the traced run: each layer timed on its own.

The miss-path drive runs one trace through ``CacheHierarchy.access``
exactly as ``simulate_trace``'s traced engine does, but hands the
hierarchy delegating proxies for the LLC and the DRAM model.  The
proxies time every call and log it with its outcome, so one drive
yields the LLC's and DRAM's share of the loop, and two request streams
that are then replayed through a fresh LLC and a fresh DRAM model
alone.  The drive must reproduce the committed cell (cycles, hits,
victim hits, DRAM reads) and each replay must reproduce every logged
outcome; a mismatch is counted as a failure of the run.

Every timed section is scaled to the reference host speed by a
:class:`hostspeed.HostClock` running for the whole probe.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from repro.cache.hierarchy import L1, CacheHierarchy
from repro.compression import kernels, make_compressor
from repro.memory.dram import DRAMModel
from repro.serve import protocol
from repro.sim import resultcache
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, MachineConfig, Preset
from repro.sim.single_core import core_params_for, simulate_trace
from repro.timing.core_model import CoreTimingModel
from repro.workloads.suite import TraceSuite, friendly_specs, poor_specs
from repro.workloads.tracecache import process_cache

#: The two LLC architectures the drive compares (Figure 8's machines).
DRIVE_MACHINES = (BASELINE_2MB, BASE_VICTIM_2MB)

#: Committed-cell fields the drive must reproduce exactly.
DRIVE_FIELDS = (
    "cycles",
    "l1_hits",
    "l2_hits",
    "llc_hits",
    "llc_victim_hits",
    "memory_reads",
    "dram_activates",
)

#: Lines per codec-kernel pass (palettes are tiled up to this size).
KERNEL_LINES = 16384

#: Repeats of each short probe; the median is reported.
REPEATS = 5


def drive_traces(seed: int) -> tuple[str, str]:
    """One compression-friendly and one poor cache-sensitive trace."""
    rng = random.Random(seed)
    friendly = sorted(spec.name for spec in friendly_specs())
    poor = sorted(spec.name for spec in poor_specs())
    return rng.choice(friendly), rng.choice(poor)


def _llc_outcome(result) -> tuple:
    return (
        result.hit,
        result.victim_hit,
        result.compressed_hit,
        result.memory_reads,
        result.memory_writes,
        tuple(result.invalidates),
        result.silent_evictions,
        result.data_reads,
        result.data_writes,
        result.fill_segments,
    )


class RecordingLLC:
    """Delegating LLC proxy: times and logs ``access``/``contains``/hints."""

    def __init__(self, llc) -> None:
        self._llc = llc
        self.extra_tag_cycles = llc.extra_tag_cycles
        self.uses_sizes = llc.uses_sizes
        self.busy = 0.0
        #: (0, addr, kind, size, outcome) | (1, addr, present) | (2, addr)
        self.log: list[tuple] = []

    def __getattr__(self, name: str):
        return getattr(self._llc, name)

    def access(self, addr: int, kind: int, size_segments: int):
        start = time.perf_counter()
        result = self._llc.access(addr, kind, size_segments)
        self.busy += time.perf_counter() - start
        self.log.append((0, addr, kind, size_segments, _llc_outcome(result)))
        return result

    def contains(self, addr: int) -> bool:
        start = time.perf_counter()
        present = self._llc.contains(addr)
        self.busy += time.perf_counter() - start
        self.log.append((1, addr, present))
        return present

    def hint_downgrade(self, addr: int) -> None:
        start = time.perf_counter()
        self._llc.hint_downgrade(addr)
        self.busy += time.perf_counter() - start
        self.log.append((2, addr))


class RecordingDRAM:
    """Delegating DRAM proxy: times and logs ``read``/``write``."""

    def __init__(self, dram: DRAMModel) -> None:
        self._dram = dram
        self.busy = 0.0
        #: (0, addr, now, latency) | (1, addr, now)
        self.log: list[tuple] = []

    def __getattr__(self, name: str):
        return getattr(self._dram, name)

    def read(self, line_addr: int, now: float) -> float:
        start = time.perf_counter()
        latency = self._dram.read(line_addr, now)
        self.busy += time.perf_counter() - start
        self.log.append((0, line_addr, now, latency))
        return latency

    def write(self, line_addr: int, now: float) -> None:
        start = time.perf_counter()
        self._dram.write(line_addr, now)
        self.busy += time.perf_counter() - start
        self.log.append((1, line_addr, now))


@dataclass
class Drive:
    """What one proxied drive of one (trace, machine) cell measured."""

    counts: dict
    accesses: int
    #: Demand lookups that reached the LLC (hits + misses).
    llc_lookups: int
    #: perf_counter() before and after the access loop.
    start: float
    end: float
    llc: RecordingLLC
    dram: RecordingDRAM
    size_of_s: float


def drive(trace, data, machine: MachineConfig, preset: Preset) -> Drive:
    """``simulate_trace``'s traced loop with the LLC and DRAM proxied."""
    llc = RecordingLLC(machine.build_llc(preset))
    dram = RecordingDRAM(DRAMModel())
    size_of_s = [0.0]
    size_of = data.size_of

    def timed_size_of(addr: int) -> int:
        start = time.perf_counter()
        size = size_of(addr)
        size_of_s[0] += time.perf_counter() - start
        return size

    hierarchy = CacheHierarchy(
        llc,
        size_fn=timed_size_of,
        config=preset.hierarchy_config(machine.prefetch_degree),
        memory=dram,
        size_memo=data.size_memo,
    )
    if llc.uses_sizes:
        data.prime_size_memo(trace.addrs)
    core = CoreTimingModel(core_params_for(trace, machine))
    kinds, addrs, deltas = trace.kinds, trace.addrs, trace.deltas
    on_write = data.on_write
    access = hierarchy.access
    advance = core.advance
    account = core.account_access
    start = time.perf_counter()
    for i in range(len(addrs)):
        advance(deltas[i])
        hierarchy.now = core.cycles
        addr = addrs[i]
        is_write = kinds[i] == 1
        if is_write:
            on_write(addr)
        outcome = access(addr, is_write)
        if outcome.level != L1:
            account(outcome, outcome.dram_latency)
    end = time.perf_counter()
    stats = hierarchy.stats
    counts = {
        "cycles": core.cycles,
        "l1_hits": stats.l1_hits,
        "l2_hits": stats.l2_hits,
        "llc_hits": stats.llc_hits,
        "llc_victim_hits": stats.llc_victim_hits,
        "memory_reads": stats.memory_reads,
        "dram_activates": dram.stat_activates,
    }
    lookups = stats.llc_hits + stats.llc_misses
    return Drive(counts, len(addrs), lookups, start, end, llc, dram, size_of_s[0])


def replay_llc(machine: MachineConfig, preset: Preset, log: list[tuple]) -> None:
    """Replay a drive's LLC calls through a fresh LLC (the timed pass)."""
    llc = machine.build_llc(preset)
    access, contains, hint = llc.access, llc.contains, llc.hint_downgrade
    for entry in log:
        op = entry[0]
        if op == 0:
            access(entry[1], entry[2], entry[3])
        elif op == 1:
            contains(entry[1])
        else:
            hint(entry[1])


def verify_llc(machine: MachineConfig, preset: Preset, log: list[tuple]) -> bool:
    """Whether a fresh LLC reproduces every logged outcome."""
    llc = machine.build_llc(preset)
    for entry in log:
        op = entry[0]
        if op == 0:
            if _llc_outcome(llc.access(entry[1], entry[2], entry[3])) != entry[4]:
                return False
        elif op == 1:
            if llc.contains(entry[1]) != entry[2]:
                return False
        else:
            llc.hint_downgrade(entry[1])
    return True


def replay_dram(log: list[tuple]) -> None:
    """Replay a drive's DRAM requests through a fresh model (timed pass)."""
    dram = DRAMModel()
    read, write = dram.read, dram.write
    for entry in log:
        if entry[0] == 0:
            read(entry[1], entry[2])
        else:
            write(entry[1], entry[2])


def verify_dram(log: list[tuple]) -> bool:
    """Whether a fresh DRAM model reproduces every logged read latency."""
    dram = DRAMModel()
    for entry in log:
        if entry[0] == 0:
            if dram.read(entry[1], entry[2]) != entry[3]:
                return False
        else:
            dram.write(entry[1], entry[2])
    return True


@dataclass
class Probe:
    """Layer metrics, the checks the probe made, and its host clock."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    clock: hostspeed.HostClock = field(default_factory=hostspeed.HostClock)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def timed(self, fn) -> float:
        """Seconds ``fn()`` takes, at the reference host speed."""
        start = time.perf_counter()
        fn()
        return self.clock.scaled(start, time.perf_counter())

    def median_timed(self, fn) -> float:
        return statistics.median(self.timed(fn) for _ in range(REPEATS))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_probe(
    seed: int, preset: Preset, reference, committed_cache: Path, workdir: Path
) -> Probe:
    """Every probe-derived layer metric for one traced run."""
    probe = Probe()
    names = drive_traces(seed)
    with probe.clock:
        _trace_generation(probe, preset, names)
        palette = _miss_path(probe, preset, names, reference)
        _engines(probe, preset, names, reference)
        _kernels(probe, palette)
        sample = _result_cache(probe, committed_cache, workdir)
        _protocol(probe, sample)
    return probe


def _trace_generation(probe: Probe, preset: Preset, names) -> None:
    """Cold trace generation, then the size tables of each trace."""
    gen_s = tables_s = 0.0
    accesses = 0
    for name in names:
        process_cache().clear()
        suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
        gen_s += probe.timed(lambda: suite.trace(name))
        trace = suite.trace(name)
        tables_s += probe.timed(
            lambda: suite.data_model(name).prime_size_memo(trace.addrs)
        )
        accesses += len(trace)
    probe.metrics["workloads.suite.trace.accesses_per_s"] = accesses / gen_s
    probe.metrics["workloads.datagen.size_tables.accesses_per_s"] = accesses / tables_s


def _miss_path(probe: Probe, preset: Preset, names, reference) -> list[bytes]:
    """The proxied drive and both replays; returns the palettes' lines."""
    suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
    loop = size_of = dram_busy = dram_replay = 0.0
    accesses = l1_hits = l2_hits = dram_requests = dram_reads = row_hits = 0
    per_arch: dict[str, dict] = {}
    palette: dict[bytes, None] = {}
    for name in names:
        trace = suite.trace(name)
        for machine in DRIVE_MACHINES:
            data = suite.data_model(name)
            palette.update(dict.fromkeys(entry.data for entry in data.palette))
            result = drive(trace, data, machine, preset)
            key = reference.single_key(machine.label, name)
            expected = reference.result(key) if key else {}
            probe.check(
                all(result.counts[f] == expected.get(f) for f in DRIVE_FIELDS),
                f"drive {machine.label} {name} differs from the committed cell",
            )
            llc_log, dram_log = result.llc.log, result.dram.log
            llc_s = probe.timed(lambda: replay_llc(machine, preset, llc_log))
            probe.check(
                verify_llc(machine, preset, llc_log), f"LLC replay {machine.label} {name}"
            )
            dram_s = probe.timed(lambda: replay_dram(dram_log))
            probe.check(verify_dram(dram_log), f"DRAM replay {machine.label} {name}")
            # Busy times inside the loop share the loop's host-speed scale.
            raw_loop = result.end - result.start
            scaled_loop = probe.clock.scaled(result.start, result.end)
            scale = scaled_loop / raw_loop
            arch = per_arch.setdefault(
                machine.arch,
                {"busy": 0.0, "requests": 0, "replay": 0.0, "hits": 0,
                 "victim_hits": 0, "lookups": 0},
            )
            arch["busy"] += result.llc.busy * scale
            arch["requests"] += len(result.llc.log)
            arch["replay"] += llc_s
            arch["hits"] += result.counts["llc_hits"]
            arch["victim_hits"] += result.counts["llc_victim_hits"]
            arch["lookups"] += result.llc_lookups
            loop += scaled_loop
            size_of += result.size_of_s * scale
            dram_busy += result.dram.busy * scale
            dram_replay += dram_s
            dram_requests += len(result.dram.log)
            dram_reads += sum(1 for entry in result.dram.log if entry[0] == 0)
            row_hits += result.dram.stat_row_hits
            accesses += result.accesses
            l1_hits += result.counts["l1_hits"]
            l2_hits += result.counts["l2_hits"]

    metrics = probe.metrics
    llc_busy = sum(arch["busy"] for arch in per_arch.values())
    metrics["cache.hierarchy.accesses_per_s"] = accesses / loop
    metrics["cache.hierarchy.self.share"] = (
        loop - llc_busy - dram_busy - size_of
    ) / loop
    metrics["workloads.datagen.size_of.share"] = size_of / loop
    metrics["cache.l1.hit_frac"] = l1_hits / accesses
    metrics["cache.l2.hit_frac"] = _ratio(l2_hits, accesses - l1_hits)
    for machine in DRIVE_MACHINES:
        arch = per_arch[machine.arch]
        prefix = f"core.llc.{machine.arch}"
        metrics[f"{prefix}.share"] = arch["busy"] / loop
        metrics[f"{prefix}.requests_per_s"] = arch["requests"] / arch["busy"]
        metrics[f"{prefix}.replay_per_s"] = arch["requests"] / arch["replay"]
        metrics[f"{prefix}.hit_frac"] = _ratio(arch["hits"], arch["lookups"])
    victim = per_arch[BASE_VICTIM_2MB.arch]
    metrics["core.llc.base-victim.victim_hit_frac"] = _ratio(
        victim["victim_hits"], victim["hits"]
    )
    metrics["core.llc.requests"] = sum(arch["requests"] for arch in per_arch.values())
    metrics["memory.dram.share"] = dram_busy / loop
    metrics["memory.dram.requests_per_s"] = dram_requests / dram_busy
    metrics["memory.dram.replay_per_s"] = dram_requests / dram_replay
    metrics["memory.dram.row_hit_frac"] = _ratio(row_hits, dram_requests)
    metrics["memory.dram.reads"] = dram_reads
    return list(palette)


def _engines(probe: Probe, preset: Preset, names, reference) -> None:
    """Both engines, unproxied, on the drive cells; results checked."""
    suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
    for engine in ("traced", "batch"):
        elapsed = 0.0
        simulated = 0
        for name in names:
            trace = suite.trace(name)
            for machine in DRIVE_MACHINES:
                data = suite.data_model(name)
                start = time.perf_counter()
                result = simulate_trace(trace, data, machine, preset, engine=engine)
                elapsed += probe.clock.scaled(start, time.perf_counter())
                simulated += result.accesses
                probe.check(
                    reference.matches(
                        reference.single_key(machine.label, name), result.to_dict()
                    ),
                    f"{engine} engine {machine.label} {name} differs",
                )
        probe.metrics[f"sim.engine.{engine}.accesses_per_s"] = simulated / elapsed


def _kernels(probe: Probe, lines: list[bytes]) -> None:
    """Codec size kernels, each checked against its scalar codec first."""
    tiled = (lines * (KERNEL_LINES // len(lines) + 1))[:KERNEL_LINES]
    matrix = kernels.lines_matrix(tiled)
    exact = kernels.lines_matrix(lines)
    for codec, kernel in sorted(kernels.SIZE_KERNELS.items()):
        compressor = make_compressor(codec)
        scalar = [compressor.compress(line).size_bytes for line in lines]
        probe.check(kernel(exact).tolist() == scalar, f"{codec} kernel differs")
        probe.metrics[f"compression.kernels.{codec}.lines_per_s"] = (
            KERNEL_LINES / probe.median_timed(lambda: kernel(matrix))
        )


def _result_cache(probe: Probe, committed_cache: Path, workdir: Path) -> list:
    """Load, canonicalize and append on private copies; returns 20 entries."""
    copy = workdir / "probe-cache.jsonl"
    shutil.copyfile(committed_cache, copy)
    loaded = resultcache.load_cache_entries(copy)
    entries = len(loaded)
    probe.metrics["sim.resultcache.load.entries_per_s"] = entries / probe.median_timed(
        lambda: resultcache.load_cache_entries(copy)
    )
    unsorted = "".join(reversed(committed_cache.read_text().splitlines(keepends=True)))
    canonicalize_s = []
    for _ in range(3):
        copy.write_text(unsorted)
        canonicalize_s.append(
            probe.timed(lambda: resultcache.canonicalize_cache_file(copy))
        )
    probe.metrics["sim.resultcache.canonicalize.entries_per_s"] = entries / (
        statistics.median(canonicalize_s)
    )
    sample = list(loaded.items())[:20]
    appended = workdir / "probe-append.jsonl"
    append_s = probe.timed(
        lambda: [resultcache.append_cache_entries(appended, [item]) for item in sample]
    )
    probe.metrics["sim.resultcache.append.entries_per_s"] = len(sample) / append_s
    return sample


def _protocol(probe: Probe, sample: list) -> None:
    """Encode and decode result frames carrying committed results."""
    events = [
        {"event": "result", "id": "probe", "key": key, "result": result}
        for key, result in sample * 8
    ]
    encode_s = probe.median_timed(
        lambda: [protocol.encode_frame(event) for event in events]
    )
    frames = [protocol.encode_frame(event) for event in events]
    decode_s = probe.median_timed(
        lambda: [protocol.decode_frame(frame) for frame in frames]
    )
    probe.check(
        [json.dumps(protocol.decode_frame(f), sort_keys=True) for f in frames]
        == [json.dumps(event, sort_keys=True) for event in events],
        "protocol round trip differs",
    )
    probe.metrics["serve.protocol.encode_per_s"] = len(events) / encode_s
    probe.metrics["serve.protocol.decode_per_s"] = len(events) / decode_s
