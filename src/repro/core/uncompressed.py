"""Uncompressed LLC baseline.

Wraps the plain :class:`~repro.cache.setassoc.SetAssociativeCache` in the
:class:`~repro.core.interfaces.LLCArchitecture` interface so every
experiment can swap architectures freely.  This is the paper's 2MB 16-way
NRU baseline (Section V) and also serves as the lockstep shadow cache in
the Base-Victim invariant tests.
"""

from __future__ import annotations

from repro.cache.config import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.setassoc import SetAssociativeCache
from repro.core.interfaces import AccessKind, LLCAccessResult, LLCArchitecture

# AccessKind members as plain ints (see repro.core.basevictim).
_WRITEBACK = int(AccessKind.WRITEBACK)
_WRITE = int(AccessKind.WRITE)
_PREFETCH = int(AccessKind.PREFETCH)


class UncompressedLLC(LLCArchitecture):
    """Plain set-associative LLC with a pluggable replacement policy."""

    name = "uncompressed"
    extra_tag_cycles = 0
    tags_per_way = 1
    uses_sizes = False  # sizes are ignored; see access()

    def __init__(self, geometry: CacheGeometry, policy: ReplacementPolicy) -> None:
        self.geometry = geometry
        self.policy = policy
        self.segments_per_line = 1  # sizes are ignored; any fill is "full"
        self._cache = SetAssociativeCache(geometry, policy, name="llc")
        self.stat_writeback_misses = 0

    def access(self, addr: int, kind: int, size_segments: int) -> LLCAccessResult:
        """Service one access against this LLC architecture."""
        result = LLCAccessResult()
        cache = self._cache
        if kind == _WRITEBACK:
            if cache.probe(addr, is_write=True):
                result.hit = True
                result.data_writes = 1
                result.fill_segments = 1
            else:
                # Writeback to a non-resident line bypasses to memory.
                self.stat_writeback_misses += 1
                result.memory_writes = 1
            return result

        is_write = kind == _WRITE
        if kind == _PREFETCH:
            # A prefetch lookup touches no policy state and no hit/miss
            # counter; a prefetch that hits is dropped.
            if cache.contains(addr):
                result.hit = True
                return result
        elif cache.probe(addr, is_write):
            result.hit = True
            result.data_reads = 1
            return result

        result.memory_reads = 1
        result.data_writes = 1
        result.fill_segments = 1
        victim = cache.fill(addr, dirty=is_write)
        if victim is not None:
            result.invalidates.append((victim.addr, victim.dirty))
            if victim.dirty:
                result.memory_writes = 1
        if kind != _PREFETCH:
            result.data_reads += 1  # deliver the filled line to the core
        return result

    def contains(self, addr: int) -> bool:
        """Return whether the address's line is resident."""
        return self._cache.contains(addr)

    def hint_downgrade(self, addr: int) -> None:
        """Downgrade the line's replacement priority if resident."""
        self._cache.hint_downgrade(addr)

    def resident_logical_lines(self) -> int:
        """Count of logical lines currently resident."""
        return self._cache.occupancy()

    @property
    def cache(self) -> SetAssociativeCache:
        """Underlying cache (the scalar kernel and the shadow tests read it)."""
        return self._cache
