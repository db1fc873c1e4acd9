"""Uncompressed set-associative caches: the private L1/L2 and the policy substrate.

Both caches are line-granular and trace-driven: addresses are line
numbers (byte address >> log2(line size)).  Both separate ``probe``
(lookup + recency update on hit) from ``fill`` (allocation + victim
eviction) so a hierarchy can thread misses through lower levels before
filling.

:class:`LRUCache` is the private L1/L2 of Section V, true LRU and
nothing else.  Each set is one dict ``line -> dirty`` in recency order,
least recently used first: a hit pops the line and reinserts it, a fill
appends it, and a set the fill leaves overfull evicts its first key —
the line a per-set stamp clock would give the smallest stamp.  Nothing reads a
private line's way, so it keeps none: a set's lines, their order and
their dirty bits are its whole state.  The scalar access kernel
(:mod:`repro.sim.batch`) reads and writes these dicts directly.

:class:`SetAssociativeCache` runs any replacement policy through the
policy object and its per-set state.  It is the uncompressed-LLC
baseline, the lockstep *shadow cache* that the test suite runs next to
Base-Victim to check the paper's structural guarantee (the Baseline
Cache always mirrors an uncompressed cache), and, on the ``lru``
policy's stamps, the reference :class:`LRUCache` is tested against.
Its storage is one flat column per field across *all* sets — ``tags``,
``valid`` and ``dirty``.  Way ``w`` of set ``s`` lives at index
``s * ways + w``; each :class:`_Set` handle carries that base offset
next to its lookup dict.  The columns are plain Python lists,
deliberately: CPython indexes lists 2-4x faster than
``array.array``/NumPy scalars, and the scalar kernel's uncompressed-NRU
lane touches them on every LLC access.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.cache.config import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy


class EvictedLine(NamedTuple):
    """A line pushed out of the cache by a fill or invalidation."""

    addr: int
    dirty: bool


class _Cache:
    """What both caches share: geometry and the four published counters."""

    def __init__(self, geometry: CacheGeometry, name: str) -> None:
        self.geometry = geometry
        self.name = name
        self.ways = geometry.associativity
        self._set_mask = geometry.num_sets - 1
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_evictions = 0
        self.stat_writebacks = 0

    def publish_observations(self, registry) -> None:
        """Publish this cache's counters under its own name prefix."""
        scope = registry.scoped(self.name)
        scope.inc("hits", self.stat_hits)
        scope.inc("misses", self.stat_misses)
        scope.inc("evictions", self.stat_evictions)
        scope.inc("writebacks", self.stat_writebacks)


class LRUCache(_Cache):
    """True-LRU set-associative, write-back, write-allocate cache (the L1/L2)."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache") -> None:
        super().__init__(geometry, name)
        #: One dict per set, ``line -> dirty``, least recently used first.
        self._sets: list[dict[int, bool]] = [{} for _ in range(geometry.num_sets)]

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; a hit moves it to the most recent end."""
        lines = self._sets[addr & self._set_mask]
        dirty = lines.pop(addr, None)
        if dirty is None:
            self.stat_misses += 1
            return False
        lines[addr] = dirty or is_write
        self.stat_hits += 1
        return True

    def fill(self, addr: int, dirty: bool = False) -> EvictedLine | None:
        """Append ``addr`` as the most recent line of its set.

        A set left overfull evicts its least recently used line, which
        is returned with its dirty state.  Filling an address already
        present is rejected — that indicates a protocol bug in the
        caller.
        """
        lines = self._sets[addr & self._set_mask]
        if addr in lines:
            raise ValueError(f"{self.name}: fill of already-present line {addr:#x}")
        lines[addr] = dirty
        if len(lines) <= self.ways:
            return None
        lru = next(iter(lines))
        victim = EvictedLine(lru, lines.pop(lru))
        self.stat_evictions += 1
        if victim.dirty:
            self.stat_writebacks += 1
        return victim

    def invalidate(self, addr: int) -> tuple[bool, bool]:
        """Remove ``addr`` if present; returns (was_present, was_dirty)."""
        dirty = self._sets[addr & self._set_mask].pop(addr, None)
        return dirty is not None, bool(dirty)

    def contains(self, addr: int) -> bool:
        """True iff ``addr`` is currently cached."""
        return addr in self._sets[addr & self._set_mask]

    def resident_lines(self) -> Iterator[int]:
        """All currently cached line addresses."""
        for lines in self._sets:
            yield from lines


class _Set:
    """Per-set handle: lookup dict plus this set's offset into the columns."""

    __slots__ = ("base", "lookup", "policy_state", "valid_count")

    def __init__(self, base: int, policy_state: object) -> None:
        #: Flat-column offset of way 0: ``index * ways``.
        self.base = base
        #: addr -> way, kept in sync with tags/valid for O(1) lookup.
        self.lookup: dict[int, int] = {}
        #: Opaque per-set state, owned by the replacement policy.
        self.policy_state = policy_state
        self.valid_count = 0


class SetAssociativeCache(_Cache):
    """Plain (uncompressed) set-associative, write-back, write-allocate cache."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        name: str = "cache",
    ) -> None:
        super().__init__(geometry, name)
        self.policy = policy
        ways = self.ways
        total = geometry.num_sets * ways
        self.tags = [0] * total
        self.valid = [False] * total
        self.dirty = [False] * total
        self._sets = [
            _Set(index * ways, policy.make_set_state(ways, index))
            for index in range(geometry.num_sets)
        ]

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Look up ``addr``; update policy and dirty bit on hit."""
        cset = self._sets[addr & self._set_mask]
        way = cset.lookup.get(addr)
        if way is None:
            self.stat_misses += 1
            return False
        self.policy.on_hit(cset.policy_state, way)
        if is_write:
            self.dirty[cset.base + way] = True
        self.stat_hits += 1
        return True

    def fill(self, addr: int, dirty: bool = False) -> EvictedLine | None:
        """Allocate ``addr``, evicting a victim if the set is full.

        Returns the evicted line (with its dirty state) or None.  Filling
        an address already present is rejected — that indicates a protocol
        bug in the caller.
        """
        cset = self._sets[addr & self._set_mask]
        lookup = cset.lookup
        if addr in lookup:
            raise ValueError(f"{self.name}: fill of already-present line {addr:#x}")
        base = cset.base
        ways = self.ways
        tags = self.tags
        dirty_bits = self.dirty
        valid = self.valid
        victim: EvictedLine | None = None
        if cset.valid_count == ways:
            way = self.policy.choose_victim(cset.policy_state)
            slot = base + way
            victim = EvictedLine(tags[slot], dirty_bits[slot])
            del lookup[tags[slot]]
            self.stat_evictions += 1
            if victim.dirty:
                self.stat_writebacks += 1
        else:
            way = valid.index(False, base, base + ways) - base
            slot = base + way
            cset.valid_count += 1
        tags[slot] = addr
        valid[slot] = True
        dirty_bits[slot] = dirty
        lookup[addr] = way
        self.policy.on_fill(cset.policy_state, way)
        return victim

    def access(self, addr: int, is_write: bool = False) -> tuple[bool, EvictedLine | None]:
        """Probe-and-allocate convenience for standalone (single-level) use."""
        if self.probe(addr, is_write):
            return True, None
        victim = self.fill(addr, dirty=is_write)
        return False, victim

    def invalidate(self, addr: int) -> tuple[bool, bool]:
        """Remove ``addr`` if present; returns (was_present, was_dirty)."""
        cset = self._sets[addr & self._set_mask]
        way = cset.lookup.pop(addr, None)
        if way is None:
            return False, False
        slot = cset.base + way
        was_dirty = self.dirty[slot]
        self.valid[slot] = False
        self.dirty[slot] = False
        cset.valid_count -= 1
        self.policy.on_invalidate(cset.policy_state, way)
        return True, was_dirty

    def hint_downgrade(self, addr: int) -> None:
        """Deliver a CHAR-style downgrade hint for ``addr`` if present."""
        cset = self._sets[addr & self._set_mask]
        way = cset.lookup.get(addr)
        if way is not None:
            self.policy.on_hint(cset.policy_state, way)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """True iff ``addr`` is currently cached."""
        return addr in self._sets[addr & self._set_mask].lookup

    def resident_lines(self) -> Iterator[int]:
        """All currently cached line addresses."""
        for cset in self._sets:
            yield from cset.lookup

    def set_contents(self, set_index: int) -> list[int]:
        """Valid line addresses in one set (order is way order)."""
        base = set_index * self.ways
        return [
            self.tags[base + w]
            for w in range(self.ways)
            if self.valid[base + w]
        ]

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(cset.lookup) for cset in self._sets)

    def __repr__(self) -> str:
        return (
            f"SetAssociativeCache({self.name}, {self.geometry}, "
            f"policy={self.policy.name})"
        )
