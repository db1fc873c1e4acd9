"""Uncompressed set-associative cache over flat columnar storage.

This is the substrate used for the private L1/L2 caches, for the
uncompressed-LLC baseline, and as the lockstep *shadow cache* that the test
suite runs next to Base-Victim to check the paper's structural guarantee
(the Baseline Cache always mirrors an uncompressed cache).

The cache is line-granular and trace-driven: addresses are line numbers
(byte address >> log2(line size)).  It separates ``probe`` (lookup + policy
update on hit) from ``fill`` (allocation + victim eviction) so a hierarchy
can thread misses through lower levels before filling.

Storage layout (PR 6): one flat column per field across *all* sets —
``tags``/``valid``/``dirty`` always, plus ``stamps``/``clocks`` for the
inline LRU policy and ``referenced``/``hands`` for the inline NRU policy.
Way ``w`` of set ``s`` lives at index ``s * ways + w``; each
:class:`_Set` handle carries that base offset next to its lookup dict.
The columns are plain Python lists, deliberately: CPython indexes lists
2-4x faster than ``array.array``/NumPy scalars, and this class's methods
and the scalar access kernel touch these columns on every access, while
the batch engine's vectorised probe snapshots a whole column with a
single C call (``numpy.array(cache.tags)``) once per chunk and follows
later membership changes through :attr:`SetAssociativeCache.log` — see
:mod:`repro.sim.batch`.  Replacement policies outside the two inline
fast paths keep their opaque per-set state objects, unchanged.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.cache.config import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.nru import NRUPolicy


class EvictedLine(NamedTuple):
    """A line pushed out of the cache by a fill or invalidation."""

    addr: int
    dirty: bool


class _Set:
    """Per-set handle: lookup dict plus this set's offset into the columns."""

    __slots__ = ("index", "base", "lookup", "policy_state", "valid_count")

    def __init__(self, index: int, base: int, policy_state: object) -> None:
        self.index = index
        #: Flat-column offset of way 0: ``index * ways``.
        self.base = base
        #: addr -> way, kept in sync with tags/valid for O(1) lookup.
        self.lookup: dict[int, int] = {}
        #: Opaque per-set state for non-inline policies; None for the
        #: inline LRU/NRU paths, whose state lives in the flat columns
        #: (a single source of truth — a stale reader fails loudly).
        self.policy_state = policy_state
        self.valid_count = 0


class SetAssociativeCache:
    """Plain (uncompressed) set-associative, write-back, write-allocate cache."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.name = name
        ways = geometry.associativity
        num_sets = geometry.num_sets
        self.ways = ways
        self._set_mask = num_sets - 1
        #: The private L1/L2 caches are always LRU and the default LLC
        #: policy is NRU; for exactly those policy classes, probe/fill
        #: apply the touch inline on the flat columns instead of through
        #: a method call per access.  Any other policy (or subclass)
        #: takes the generic path over per-set state objects.
        self._lru_inline = type(policy) is LRUPolicy
        self._nru_inline = type(policy) is NRUPolicy
        inline = self._lru_inline or self._nru_inline

        total = num_sets * ways
        self.tags = [0] * total
        self.valid = [False] * total
        self.dirty = [False] * total
        #: LRU columns (inline path only): per-way timestamps and a
        #: per-set clock.
        self.stamps = [0] * total if self._lru_inline else None
        self.clocks = [0] * num_sets if self._lru_inline else None
        #: NRU columns (inline path only): per-way referenced bits and a
        #: per-set rotating hand.
        self.referenced = [False] * total if self._nru_inline else None
        self.hands = [0] * num_sets if self._nru_inline else None

        self._sets = [
            _Set(
                index,
                index * ways,
                None if inline else policy.make_set_state(ways, index),
            )
            for index in range(num_sets)
        ]
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_evictions = 0
        self.stat_writebacks = 0
        #: Membership mutation log for the batch engine's L1 snapshot.
        #: When set (a list), ``fill`` and ``invalidate`` append the flat
        #: slot whose tag/valid columns they changed; hits never change
        #: membership, so they never log.  None (the default) disables it.
        self.log: list[int] | None = None

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
        if self._lru_inline:
            index = cset.index
            clock = self.clocks[index] + 1
            self.clocks[index] = clock
            self.stamps[cset.base + way] = clock
        elif self._nru_inline:
            self.referenced[cset.base + way] = True
        else:
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
            if self._lru_inline:
                # Inline LRUPolicy.choose_victim: oldest stamp, first
                # way on ties (index() returns the first minimum).
                seg = self.stamps[base : base + ways]
                way = seg.index(min(seg))
            elif self._nru_inline:
                # Inline NRUPolicy.choose_victim: first clear referenced
                # bit from the rotating hand, with the classic reset when
                # every bit is set.
                referenced = self.referenced
                index = cset.index
                hand = self.hands[index]
                try:
                    way = referenced.index(False, base + hand, base + ways) - base
                except ValueError:
                    try:
                        way = referenced.index(False, base, base + hand) - base
                    except ValueError:
                        for w in range(base, base + ways):
                            referenced[w] = False
                        way = hand
                self.hands[index] = way + 1 if way + 1 < ways else 0
            else:
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
        if self.log is not None:
            self.log.append(slot)
        if self._lru_inline:
            index = cset.index
            clock = self.clocks[index] + 1
            self.clocks[index] = clock
            self.stamps[slot] = clock
        elif self._nru_inline:
            self.referenced[slot] = True
        else:
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
        if self.log is not None:
            self.log.append(slot)
        if self._lru_inline:
            # Inlined LRUPolicy.on_invalidate: free ways age to stamp 0.
            self.stamps[slot] = 0
        elif self._nru_inline:
            # Inlined NRUPolicy.on_invalidate.
            self.referenced[slot] = False
        else:
            self.policy.on_invalidate(cset.policy_state, way)
        return True, was_dirty

    def hint_downgrade(self, addr: int) -> None:
        """Deliver a CHAR-style downgrade hint for ``addr`` if present."""
        cset = self._sets[addr & self._set_mask]
        way = cset.lookup.get(addr)
        if way is not None:
            if self._nru_inline:
                # Inlined NRUPolicy.on_hint: clear the referenced bit.
                self.referenced[cset.base + way] = False
            else:
                self.policy.on_hint(cset.policy_state, way)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def publish_observations(self, registry) -> None:
        """Publish this cache's counters under its own name prefix."""
        scope = registry.scoped(self.name)
        scope.inc("hits", self.stat_hits)
        scope.inc("misses", self.stat_misses)
        scope.inc("evictions", self.stat_evictions)
        scope.inc("writebacks", self.stat_writebacks)

    def contains(self, addr: int) -> bool:
        """True iff ``addr`` is currently cached."""
        return addr in self._sets[addr & self._set_mask].lookup

    def is_dirty(self, addr: int) -> bool:
        """True iff ``addr`` is cached and modified."""
        cset = self._sets[addr & self._set_mask]
        way = cset.lookup.get(addr)
        return way is not None and self.dirty[cset.base + way]

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
