"""Three-level inclusive cache hierarchy.

Models the paper's per-core hierarchy (Section V): a 32KB 8-way L1 data
cache, a 256KB 8-way unified L2, and a shared last-level cache that is
*inclusive* of the core caches.  The LLC is any
:class:`~repro.core.interfaces.LLCArchitecture`; every line the LLC evicts
from (or demotes out of) its baseline image is back-invalidated from L1 and
L2, and modified upper-level data is written back to memory — the paper's
Section IV.A protocol, and the channel through which bad compressed-cache
replacement decisions (partner line victimization) hurt the core caches.

Writebacks are modelled explicitly: dirty L1 victims merge into the L2,
dirty L2 victims become LLC ``WRITEBACK`` accesses carrying the line's
current compressed size.  A multi-stream prefetcher (Section V) observes
demand L2 misses and injects ``PREFETCH`` fills into the LLC.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cache.config import CacheGeometry
from repro.cache.prefetch import StreamPrefetcher
from repro.cache.setassoc import LRUCache
from repro.core.interfaces import AccessKind, LLCAccessResult, LLCArchitecture

#: Levels at which an access can be served.
L1, L2, LLC, MEMORY = 1, 2, 3, 4

#: AccessKind members as plain ints (see repro.core.basevictim).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_PREFETCH = int(AccessKind.PREFETCH)


@dataclass(slots=True)
class HierarchyStats:
    """Counters accumulated over a run."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_victim_hits: int = 0
    llc_misses: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    compressed_hits: int = 0
    back_invalidations: int = 0
    silent_evictions: int = 0
    llc_data_reads: int = 0
    llc_data_writes: int = 0
    llc_fill_segments: int = 0
    llc_accesses: int = 0
    prefetch_fills: int = 0
    writebacks_to_llc: int = 0

    def merge_llc_result(self, result) -> None:
        """Fold one LLC access result into the counters."""
        self.memory_reads += result.memory_reads
        self.memory_writes += result.memory_writes
        self.silent_evictions += result.silent_evictions
        self.llc_data_reads += result.data_reads
        self.llc_data_writes += result.data_writes
        self.llc_fill_segments += result.fill_segments
        self.llc_accesses += 1


class AccessOutcome:
    """Where a demand access was served and what latency adders it incurred."""

    __slots__ = ("level", "extra_llc_cycles", "dram_latency")

    def __init__(
        self, level: int, extra_llc_cycles: int = 0, dram_latency: float = 0.0
    ) -> None:
        self.level = level
        self.extra_llc_cycles = extra_llc_cycles
        self.dram_latency = dram_latency


#: L1/L2 outcomes carry no per-access payload, so the hierarchy hands out
#: these shared instances instead of allocating one per hit.  They are
#: treated as immutable by every consumer.
_OUTCOME_L1 = AccessOutcome(L1)
_OUTCOME_L2 = AccessOutcome(L2)


@dataclass
class HierarchyConfig:
    """Geometry knobs for the private levels (paper defaults)."""

    l1_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8)
    )
    l2_geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8)
    )
    prefetch_degree: int = 2
    #: Deliver CHAR-style downgrade hints to the LLC on L2 evictions.
    l2_eviction_hints: bool = True

    def scaled(self, factor: float) -> "HierarchyConfig":
        """Scale the private caches together with the LLC (bench presets)."""
        return HierarchyConfig(
            l1_geometry=self.l1_geometry.scaled(factor),
            l2_geometry=self.l2_geometry.scaled(factor),
            prefetch_degree=self.prefetch_degree,
            l2_eviction_hints=self.l2_eviction_hints,
        )


class CacheHierarchy:
    """L1 + L2 private caches in front of a pluggable LLC architecture."""

    def __init__(
        self,
        llc: LLCArchitecture,
        size_fn: Callable[[int], int],
        config: HierarchyConfig | None = None,
        memory=None,
        size_memo: dict | None = None,
    ) -> None:
        self.config = config or HierarchyConfig()
        self.llc = llc
        #: Maps a line address to its current compressed size in segments.
        self.size_fn = size_fn
        #: Fast lane for size_fn: a dict of current sizes kept exact by
        #: the data model's write invalidation (see LineDataModel
        #: .size_memo).  A missing address falls back to size_fn, so an
        #: empty dict (the default) simply means "always call size_fn".
        self.size_memo = {} if size_memo is None else size_memo
        #: Size-insensitive architectures (uncompressed LLCs) never read
        #: the size argument, so the miss path skips the lookup for them.
        self._uses_sizes = llc.uses_sizes
        #: Optional :class:`~repro.memory.dram.DRAMModel`; when present the
        #: hierarchy issues its reads/writes so misses get real latencies.
        self.memory = memory
        #: Current CPU cycle, set by the timing driver before each access;
        #: used as the DRAM arrival time.
        self.now = 0.0
        self.l1 = LRUCache(self.config.l1_geometry, name="l1d")
        self.l2 = LRUCache(self.config.l2_geometry, name="l2")
        self.prefetcher = StreamPrefetcher(degree=self.config.prefetch_degree)
        self.stats = HierarchyStats()

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """One demand load/store from the core; returns where it was served."""
        stats = self.stats
        stats.accesses += 1
        if self.l1.probe(addr, is_write):
            stats.l1_hits += 1
            return _OUTCOME_L1
        # A demand read never dirties the L2 line; the store lands in L1.
        if self.l2.probe(addr):
            stats.l2_hits += 1
            self._fill_l1(addr, is_write)
            return _OUTCOME_L2

        # L2 demand miss: train the prefetcher before the LLC access so the
        # stream runs ahead of the demand stream.
        prefetches = self.prefetcher.observe(addr)
        llc = self.llc
        result, read_latency = self._llc_access(addr, _READ)
        extra = llc.extra_tag_cycles
        if result.hit:
            stats.llc_hits += 1
            if result.victim_hit:
                stats.llc_victim_hits += 1
            if result.compressed_hit:
                stats.compressed_hits += 1
                extra += _decompression_cycles(llc)
            outcome = AccessOutcome(LLC, extra)
        else:
            stats.llc_misses += 1
            outcome = AccessOutcome(MEMORY, extra, read_latency)

        self._fill_l2(addr)
        self._fill_l1(addr, is_write)
        for target in prefetches:
            self._prefetch(target)
        return outcome

    # ------------------------------------------------------------------
    # LLC requests, fills, writebacks, invalidations
    # ------------------------------------------------------------------

    def _size(self, addr: int) -> int:
        """Current compressed size of ``addr`` (1 for size-blind LLCs)."""
        if not self._uses_sizes:
            return 1
        # size_memo first; size_fn computes-and-memoises on a miss.
        size = self.size_memo.get(addr)
        return self.size_fn(addr) if size is None else size

    def _llc_access(self, addr: int, kind: int) -> tuple[LLCAccessResult, float]:
        """Send one request to the LLC and apply its side effects.

        Merges the result into the stats, issues its DRAM traffic and
        back-invalidates the lines the LLC dropped.  Returns the result
        and the DRAM read latency (0.0 without a read or a memory model).
        """
        result = self.llc.access(addr, kind, self._size(addr))
        self.stats.merge_llc_result(result)
        read_latency = 0.0
        memory = self.memory
        if memory is not None:
            if result.memory_reads:
                read_latency = memory.read(addr, self.now)
            for _ in range(result.memory_writes):
                memory.write(addr, self.now)
        if result.invalidates:
            self._process_invalidates(result)
        return result, read_latency

    def _fill_l1(self, addr: int, is_write: bool) -> None:
        victim = self.l1.fill(addr, dirty=is_write)
        if victim is not None and victim.dirty:
            # Dirty L1 victim merges into the (inclusive) L2.
            if not self.l2.probe(victim.addr, is_write=True):
                # Inclusion guarantees presence; refill defensively if not.
                self._fill_l2(victim.addr, dirty=True)

    def _fill_l2(self, addr: int, dirty: bool = False) -> None:
        victim = self.l2.fill(addr, dirty=dirty)
        if victim is None:
            return
        # L1 must not outlive its L2 copy (inclusive pair).
        _, l1_dirty = self.l1.invalidate(victim.addr)
        if victim.dirty or l1_dirty:
            self.stats.writebacks_to_llc += 1
            self._llc_access(victim.addr, _WRITEBACK)
        elif self.config.l2_eviction_hints:
            # Clean, unreused L2 eviction: CHAR-style downgrade hint.
            self.llc.hint_downgrade(victim.addr)

    def _prefetch(self, addr: int) -> None:
        """Inject one hardware prefetch into the LLC."""
        if self.llc.contains(addr):
            return  # a prefetch hit is dropped without touching any state
        result, _ = self._llc_access(addr, _PREFETCH)
        if not result.hit:
            self.stats.prefetch_fills += 1

    def _process_invalidates(self, result: LLCAccessResult) -> None:
        """Back-invalidate lines the LLC dropped from its baseline image."""
        stats = self.stats
        for addr, wrote_back in result.invalidates:
            in_l1, l1_dirty = self.l1.invalidate(addr)
            in_l2, l2_dirty = self.l2.invalidate(addr)
            if in_l1 or in_l2:
                stats.back_invalidations += 1
            if (l1_dirty or l2_dirty) and not wrote_back:
                # Most-recent data lived upstream; it must reach memory.
                stats.memory_writes += 1
                if self.memory is not None:
                    self.memory.write(addr, self.now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def publish_observations(self, registry, include_llc: bool = True) -> None:
        """Publish the hit/miss breakdown and per-level counters.

        ``include_llc=False`` lets multi-program drivers publish each
        thread's private-level counters without double-counting the
        shared LLC, which the mix driver publishes once itself.
        """
        stats = self.stats
        hits = registry.scoped("hits")
        hits.inc("l1", stats.l1_hits)
        hits.inc("l2", stats.l2_hits)
        hits.inc("llc_base", stats.llc_hits - stats.llc_victim_hits)
        hits.inc("llc_victim", stats.llc_victim_hits)
        hits.inc("memory", stats.llc_misses)
        scope = registry.scoped("hierarchy")
        scope.inc("accesses", stats.accesses)
        scope.inc("compressed_hits", stats.compressed_hits)
        scope.inc("back_invalidations", stats.back_invalidations)
        scope.inc("memory_reads", stats.memory_reads)
        scope.inc("memory_writes", stats.memory_writes)
        scope.inc("prefetch_fills", stats.prefetch_fills)
        scope.inc("writebacks_to_llc", stats.writebacks_to_llc)
        self.l1.publish_observations(registry)
        self.l2.publish_observations(registry)
        if include_llc:
            self.llc.publish_observations(registry)

    def check_inclusion(self) -> None:
        """Verify L1 ⊆ L2 ⊆ LLC; used by the integration tests."""
        for addr in self.l1.resident_lines():
            if not self.l2.contains(addr):
                raise AssertionError(f"L1 line {addr:#x} missing from L2")
        for addr in self.l2.resident_lines():
            if not self.llc.contains(addr):
                raise AssertionError(f"L2 line {addr:#x} missing from LLC")


def _decompression_cycles(llc: LLCArchitecture) -> int:
    """Decompression latency adder; BDI costs 2 cycles (Section V)."""
    return 2
