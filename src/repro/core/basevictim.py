"""Base-Victim opportunistic compressed cache (the paper's contribution).

Section IV: the LLC keeps two tags per physical way.  Tag 0 of every way
forms the **Baseline Cache**, managed *exactly* like the uncompressed cache
— same replacement policy, same insertion, same victims — so its contents
mirror an uncompressed LLC at every instant (this is the structural
guarantee behind "hit rate at least as high as an uncompressed cache").
Tag 1 of every way forms the **Victim Cache**: it holds only *clean* lines
that the Baseline Cache replaced, kept opportunistically when the replaced
line compresses well enough to share the physical way with some base line.

Event handling (Section IV.B):

* **Miss** — pick a baseline victim with the baseline policy; write it
  back if dirty (making it clean) and back-invalidate upper levels; the
  fill takes its way; the way's victim partner is silently dropped if the
  fill no longer fits with it; the replaced base line is then inserted
  into any victim slot whose base partner leaves room (chosen by the
  ECM-inspired policy), or dropped.
* **Read hit in the Victim Cache** — the line is *promoted*: a baseline
  victim is chosen exactly as for a fill, the promoted line takes its
  place, and the replaced base line goes through the same victim-insert
  path.
* **Write hit to the Baseline Cache** — like an uncompressed write hit,
  except the victim partner is silently evicted when the line grows past
  the shared-way capacity.
* **Write hit to the Victim Cache** — the line is promoted and marked
  dirty (the non-inclusive variant of Section IV.B.3).  A single-core
  inclusive hierarchy never gets here, because demotion back-invalidated
  the line from L1/L2.  LLC-only (no-hierarchy) simulations do, and so do
  the shared-LLC mixes: each thread's back-invalidations reach only its
  own L1/L2, so a line that another thread's access demoted can still be
  written back from the owner's L2 (a known defect, pinned by a strict
  xfail in ``tests/sim/test_multicore_details.py``).

Victim lines are always clean, so every victim-cache eviction is silent
and each fill performs at most one memory writeback — the implementation
simplification the paper contrasts against VSC's multi-line evictions.
"""

from __future__ import annotations

from repro.cache.config import CacheGeometry
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.victim import VictimCandidate, VictimInsertionPolicy
from repro.compression.segments import SegmentGeometry
from repro.core.interfaces import AccessKind, LLCAccessResult, LLCArchitecture

# AccessKind members as plain ints (IntEnum comparisons go through
# __eq__ dispatch).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_WRITE = int(AccessKind.WRITE)
_PREFETCH = int(AccessKind.PREFETCH)


class _BVSet:
    """One Base-Victim set: parallel arrays for base and victim slots."""

    __slots__ = (
        "base_tags",
        "base_valid",
        "base_dirty",
        "base_size",
        "vict_tags",
        "vict_valid",
        "vict_dirty",
        "vict_size",
        "vict_stamp",
        "policy_state",
        "base_lookup",
        "vict_lookup",
        "clock",
        "base_valid_count",
    )

    def __init__(self, ways: int, policy_state: object) -> None:
        self.base_tags = [0] * ways
        self.base_valid = [False] * ways
        self.base_dirty = [False] * ways
        self.base_size = [0] * ways
        self.vict_tags = [0] * ways
        self.vict_valid = [False] * ways
        self.vict_dirty = [False] * ways
        self.vict_size = [0] * ways
        self.vict_stamp = [0] * ways
        self.policy_state = policy_state
        self.base_lookup: dict[int, int] = {}
        self.vict_lookup: dict[int, int] = {}
        self.clock = 0
        self.base_valid_count = 0


class BaseVictimLLC(LLCArchitecture):
    """Opportunistic Base-Victim compressed LLC (Section IV)."""

    name = "base-victim"
    extra_tag_cycles = 1  # doubled tags add one lookup cycle (Section V)
    tags_per_way = 2

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        victim_policy: VictimInsertionPolicy,
        segment_geometry: SegmentGeometry | None = None,
        clean_victims: bool = True,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        self.victim_policy = victim_policy
        #: Section IV.B.3: inclusive hierarchies require clean victim
        #: lines (every demoted line is written back first, and victim
        #: evictions are silent).  The non-inclusive variant sets this
        #: False: dirty lines may live in the Victim Cache, saving the
        #: demotion writeback at the cost of non-silent victim evictions.
        #: Use the non-inclusive variant only for LLC-only studies.
        self.clean_victims = clean_victims
        self.segment_geometry = segment_geometry or SegmentGeometry(
            geometry.line_bytes
        )
        self.segments_per_line = self.segment_geometry.segments_per_line
        ways = geometry.associativity
        self._sets = [
            _BVSet(ways, policy.make_set_state(ways, index))
            for index in range(geometry.num_sets)
        ]
        self._set_mask = geometry.num_sets - 1
        #: Victim Cache resident-line count, maintained incrementally so
        #: the occupancy samples taken by the simulation drivers are O(1)
        #: instead of a sum over every set.
        self._victim_resident = 0

        self.stat_base_hits = 0
        self.stat_victim_hits = 0
        self.stat_misses = 0
        self.stat_demotions = 0
        self.stat_demotion_drops = 0
        self.stat_promotions = 0
        self.stat_silent_evictions = 0
        self.stat_victim_write_hits = 0
        self.stat_writeback_misses = 0
        #: Victim lines dropped because their base partner grew or was
        #: refilled past the shared-way capacity (Section IV.B.5) — the
        #: compressed-cache cost Section III calls partner victimization.
        self.stat_partner_evictions = 0

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

    def access(self, addr: int, kind: int, size_segments: int) -> LLCAccessResult:
        """Service one access against this LLC architecture."""
        if not 0 <= size_segments <= self.segments_per_line:
            raise ValueError(
                f"size_segments {size_segments} out of range "
                f"0..{self.segments_per_line}"
            )
        result = LLCAccessResult()
        cset = self._sets[addr & self._set_mask]
        base_way = cset.base_lookup.get(addr)
        if base_way is not None:
            self._base_hit(cset, base_way, kind, size_segments, result)
            return result
        vict_way = cset.vict_lookup.get(addr)
        if vict_way is not None:
            self._victim_hit(cset, vict_way, addr, kind, size_segments, result)
        else:
            self._miss(cset, addr, kind, size_segments, result)
        return result

    # ------------------------------------------------------------------
    # Hit handling
    # ------------------------------------------------------------------

    def _base_hit(
        self,
        cset: _BVSet,
        way: int,
        kind: int,
        size_segments: int,
        result: LLCAccessResult,
    ) -> None:
        result.hit = True
        self.stat_base_hits += 1
        if kind == _PREFETCH:
            return  # a prefetch that hits is dropped; no state changes

        self.policy.on_hit(cset.policy_state, way)
        if kind == _READ:
            result.data_reads = 1
            result.compressed_hit = self._needs_decompression(cset.base_size[way])
            return

        # WRITE or WRITEBACK: the line's data (and compressed size) change.
        cset.base_dirty[way] = True
        cset.base_size[way] = size_segments
        result.data_writes = 1
        result.fill_segments = size_segments
        if cset.vict_valid[way] and size_segments + cset.vict_size[way] > self.segments_per_line:
            # Section IV.B.5: the grown base line no longer shares the way.
            self.stat_partner_evictions += 1
            self._evict_victim(cset, way, result)

    def _victim_hit(
        self,
        cset: _BVSet,
        vict_way: int,
        addr: int,
        kind: int,
        size_segments: int,
        result: LLCAccessResult,
    ) -> None:
        result.hit = True
        result.victim_hit = True
        self.stat_victim_hits += 1
        if kind == _PREFETCH:
            return  # leave the line where it is

        stored_size = cset.vict_size[vict_way]
        result.compressed_hit = self._needs_decompression(stored_size)
        result.data_reads = 1  # read the victim line out of the data array

        is_write = kind == _WRITE or kind == _WRITEBACK
        if is_write:
            # Section IV.B.3 non-inclusive variant (see the module
            # docstring for who reaches it).
            self.stat_victim_write_hits += 1
            promoted_size = size_segments
        else:
            promoted_size = stored_size

        # De-allocate from the Victim Cache.  Dirty victim state (possible
        # only in the non-inclusive variant) travels with the promotion.
        stored_dirty = cset.vict_dirty[vict_way]
        del cset.vict_lookup[addr]
        self._victim_resident -= 1
        cset.vict_valid[vict_way] = False
        cset.vict_dirty[vict_way] = False

        # Promote into the Baseline Cache exactly like a fill.
        self._fill_baseline(cset, addr, promoted_size, is_write or stored_dirty, result)
        self.stat_promotions += 1
        result.data_writes += 1  # write the promoted line into the base way
        result.fill_segments += promoted_size

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------

    def _miss(
        self,
        cset: _BVSet,
        addr: int,
        kind: int,
        size_segments: int,
        result: LLCAccessResult,
    ) -> None:
        if kind == _WRITEBACK:
            # A writeback to a non-resident line bypasses to memory.
            self.stat_writeback_misses += 1
            result.memory_writes = 1
            return

        self.stat_misses += 1
        result.memory_reads = 1
        is_write = kind == _WRITE
        self._fill_baseline(cset, addr, size_segments, is_write, result)
        result.data_writes += 1
        result.fill_segments += size_segments
        if kind != _PREFETCH:
            result.data_reads += 1  # deliver the line to the core

    def _fill_baseline(
        self,
        cset: _BVSet,
        addr: int,
        size_segments: int,
        dirty: bool,
        result: LLCAccessResult,
    ) -> None:
        """Install ``addr`` in the Baseline Cache (fill or promotion).

        Mirrors an uncompressed fill bit-for-bit (free way first, then the
        policy victim), then runs the compression-specific steps: partner
        eviction on misfit and opportunistic demotion of the replaced line.
        """
        replaced: tuple[int, int, bool] | None = None
        if cset.base_valid_count < len(cset.base_valid):
            way = cset.base_valid.index(False)
            cset.base_valid_count += 1
        else:
            way = self.policy.choose_victim(cset.policy_state)
            replaced_addr = cset.base_tags[way]
            was_dirty = cset.base_dirty[way]
            if was_dirty and self.clean_victims:
                # Write back so the demoted line is clean (Section IV.A).
                result.memory_writes += 1
            # The line leaves the baseline image: inclusive upper levels
            # must drop it whether it is demoted or evicted.
            result.invalidates.append(
                (replaced_addr, was_dirty and self.clean_victims)
            )
            replaced = (
                replaced_addr,
                cset.base_size[way],
                was_dirty and not self.clean_victims,
            )
            del cset.base_lookup[replaced_addr]

        cset.base_tags[way] = addr
        cset.base_valid[way] = True
        cset.base_dirty[way] = dirty
        cset.base_size[way] = size_segments
        cset.base_lookup[addr] = way
        self.policy.on_fill_sized(cset.policy_state, way, size_segments)

        if (
            cset.vict_valid[way]
            and size_segments + cset.vict_size[way] > self.segments_per_line
        ):
            self.stat_partner_evictions += 1
            self._evict_victim(cset, way, result)

        if replaced is not None:
            self._insert_victim(cset, replaced[0], replaced[1], replaced[2], result)

    def _insert_victim(
        self,
        cset: _BVSet,
        addr: int,
        size_segments: int,
        dirty: bool,
        result: LLCAccessResult,
    ) -> None:
        """Opportunistically keep a replaced base line (Section IV.B.1).

        In the default (inclusive) configuration the line is clean by the
        time it gets here; the non-inclusive variant may demote it dirty.
        """
        # Largest base size a candidate way may hold and still fit us.
        room = self.segments_per_line - size_segments
        candidates = []
        for w, valid in enumerate(cset.base_valid):
            bsize = cset.base_size[w] if valid else 0
            if bsize <= room:
                candidates.append(
                    VictimCandidate(
                        w, bsize, cset.vict_valid[w], cset.vict_size[w],
                        cset.vict_stamp[w],
                    )
                )
        way = self.victim_policy.choose(candidates) if candidates else -1
        if way < 0:
            self.stat_demotion_drops += 1
            if dirty:
                # Nowhere to keep the dirty line: it must reach memory.
                result.memory_writes += 1
            return

        self.victim_policy.stat_choices += 1
        if cset.vict_valid[way]:
            self.victim_policy.stat_replacements += 1
            self._evict_victim(cset, way, result)
        cset.vict_tags[way] = addr
        cset.vict_valid[way] = True
        cset.vict_dirty[way] = dirty
        cset.vict_size[way] = size_segments
        cset.clock += 1
        cset.vict_stamp[way] = cset.clock
        cset.vict_lookup[addr] = way
        self._victim_resident += 1
        self.stat_demotions += 1
        # Migration: read the line out of its base way, write it here.
        result.data_reads += 1
        result.data_writes += 1
        result.fill_segments += size_segments

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _evict_victim(self, cset: _BVSet, way: int, result: LLCAccessResult) -> None:
        """Drop the victim line in ``way``.

        Clean lines (always, in the inclusive configuration) leave with no
        traffic at all; dirty lines of the non-inclusive variant must be
        written back.
        """
        del cset.vict_lookup[cset.vict_tags[way]]
        self._victim_resident -= 1
        cset.vict_valid[way] = False
        if cset.vict_dirty[way]:
            cset.vict_dirty[way] = False
            result.memory_writes += 1
        else:
            result.silent_evictions += 1
            self.stat_silent_evictions += 1

    def _needs_decompression(self, size_segments: int) -> bool:
        """Zero and uncompressed blocks skip decompression (Section V)."""
        return 0 < size_segments < self.segments_per_line

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        """Return whether the address's line is resident."""
        cset = self._sets[addr & self._set_mask]
        return addr in cset.base_lookup or addr in cset.vict_lookup

    def in_baseline(self, addr: int) -> bool:
        """True iff ``addr`` is in the Baseline Cache (tag 0 image)."""
        return addr in self._sets[addr & self._set_mask].base_lookup

    def in_victim(self, addr: int) -> bool:
        """True iff ``addr`` is in the Victim Cache (tag 1 image)."""
        return addr in self._sets[addr & self._set_mask].vict_lookup

    def hint_downgrade(self, addr: int) -> None:
        """Downgrade the line's replacement priority if resident."""
        cset = self._sets[addr & self._set_mask]
        way = cset.base_lookup.get(addr)
        if way is not None:
            self.policy.on_hint(cset.policy_state, way)

    def baseline_set_contents(self, set_index: int) -> list[int]:
        """Valid baseline line addresses of one set, in way order."""
        cset = self._sets[set_index]
        return [
            cset.base_tags[w]
            for w in range(len(cset.base_tags))
            if cset.base_valid[w]
        ]

    def resident_logical_lines(self) -> int:
        """Count of logical lines currently resident."""
        return sum(
            len(cset.base_lookup) + len(cset.vict_lookup) for cset in self._sets
        )

    def victim_occupancy(self) -> int:
        """Number of lines currently held only thanks to compression."""
        return self._victim_resident

    def publish_observations(self, registry) -> None:
        """Publish Base-Victim counters under ``llc/`` (see repro.obs)."""
        scope = registry.scoped("llc")
        scope.inc("base_hits", self.stat_base_hits)
        scope.inc("victim_hits", self.stat_victim_hits)
        scope.inc("misses", self.stat_misses)
        scope.inc("demotions", self.stat_demotions)
        scope.inc("demotion_drops", self.stat_demotion_drops)
        scope.inc("promotions", self.stat_promotions)
        scope.inc("silent_evictions", self.stat_silent_evictions)
        scope.inc("victim_write_hits", self.stat_victim_write_hits)
        scope.inc("writeback_misses", self.stat_writeback_misses)
        scope.inc("partner_evictions", self.stat_partner_evictions)
        scope.inc("victim_lines_resident", self.victim_occupancy())
        self.victim_policy.publish_observations(registry)

    def check_invariants(self) -> None:
        """Validate internal consistency; used by property-based tests."""
        spl = self.segments_per_line
        for index, cset in enumerate(self._sets):
            for way in range(len(cset.base_tags)):
                used = 0
                if cset.base_valid[way]:
                    used += cset.base_size[way]
                    if cset.base_lookup.get(cset.base_tags[way]) != way:
                        raise AssertionError(
                            f"set {index} way {way}: base lookup out of sync"
                        )
                if cset.vict_valid[way]:
                    used += cset.vict_size[way]
                    if cset.vict_lookup.get(cset.vict_tags[way]) != way:
                        raise AssertionError(
                            f"set {index} way {way}: victim lookup out of sync"
                        )
                if used > spl:
                    raise AssertionError(
                        f"set {index} way {way}: {used} segments exceed {spl}"
                    )
            overlap = set(cset.base_lookup) & set(cset.vict_lookup)
            if overlap:
                raise AssertionError(
                    f"set {index}: lines in both base and victim caches: {overlap}"
                )
            if self.clean_victims and any(cset.vict_dirty):
                raise AssertionError(
                    f"set {index}: dirty victim line in clean-victims mode"
                )
