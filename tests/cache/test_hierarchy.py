"""Integration tests for the inclusive three-level hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheGeometry
from repro.cache.hierarchy import (
    DECOMPRESSION_CYCLES,
    CacheHierarchy,
    HierarchyConfig,
    L1,
    L2,
    LLC,
    MEMORY,
)
from repro.cache.replacement import NRUPolicy, make_victim_policy
from repro.compression.segments import SegmentGeometry
from repro.core.basevictim import BaseVictimLLC
from repro.core.uncompressed import UncompressedLLC
from repro.memory.dram import DRAMModel


def tiny_config(prefetch=0):
    return HierarchyConfig(
        l1_geometry=CacheGeometry(2 * 2 * 64, 2),  # 2 sets x 2 ways
        l2_geometry=CacheGeometry(4 * 4 * 64, 4),  # 4 sets x 4 ways
        prefetch_degree=prefetch,
    )


def make_hierarchy(llc=None, prefetch=0, memory=None):
    llc = llc or UncompressedLLC(CacheGeometry(8 * 8 * 64, 8), NRUPolicy())
    return CacheHierarchy(llc, size_fn=lambda addr: 8, config=tiny_config(prefetch), memory=memory)


class TestServiceLevels:
    def test_first_access_goes_to_memory(self):
        h = make_hierarchy()
        assert h.access(1, False).level == MEMORY

    def test_second_access_hits_l1(self):
        h = make_hierarchy()
        h.access(1, False)
        assert h.access(1, False).level == L1

    def test_l1_capacity_falls_back_to_l2(self):
        h = make_hierarchy()
        # Fill set 0 of L1 (2 ways): lines 0, 2, 4 alias set 0.
        for addr in (0, 2, 4):
            h.access(addr, False)
        assert h.access(0, False).level == L2

    def test_llc_hit_after_l2_eviction(self):
        h = make_hierarchy()
        # Touch enough lines to overflow the 16-line L2 but not the 64-line LLC.
        for addr in range(24):
            h.access(addr, False)
        levels = {h.access(addr, False).level for addr in range(4)}
        assert LLC in levels

    def test_stats_accumulate(self):
        h = make_hierarchy()
        for addr in (1, 1, 2):
            h.access(addr, False)
        assert h.stats.accesses == 3
        assert h.stats.l1_hits == 1
        assert h.stats.memory_reads == 2


class TestInclusion:
    def test_inclusion_invariant_random_traffic(self):
        h = make_hierarchy()
        import random

        rng = random.Random(7)
        for _ in range(3000):
            h.access(rng.randrange(200), rng.random() < 0.3)
            if rng.randrange(100) == 0:
                h.check_inclusion()
        h.check_inclusion()

    def test_llc_eviction_back_invalidates(self):
        llc = UncompressedLLC(CacheGeometry(1 * 4 * 64, 4), NRUPolicy())
        h = CacheHierarchy(llc, size_fn=lambda a: 8, config=tiny_config())
        h.access(0, False)
        for addr in range(1, 5):  # overflow the 4-way LLC set
            h.access(addr, False)
        assert not llc.contains(0)
        assert not h.l1.contains(0)
        assert not h.l2.contains(0)
        assert h.stats.back_invalidations >= 1

    def test_dirty_upper_copy_reaches_memory_on_back_invalidation(self):
        llc = UncompressedLLC(CacheGeometry(1 * 4 * 64, 4), NRUPolicy())
        h = CacheHierarchy(llc, size_fn=lambda a: 8, config=tiny_config())
        h.access(0, True)  # dirty in L1, clean in LLC
        writes_before = h.stats.memory_writes
        for addr in range(1, 5):
            h.access(addr, False)
        assert not llc.contains(0)
        assert h.stats.memory_writes > writes_before

    def test_base_victim_demotion_back_invalidates(self):
        llc = BaseVictimLLC(
            CacheGeometry(1 * 4 * 64, 4),
            NRUPolicy(),
            make_victim_policy("ecm"),
            SegmentGeometry(64),
        )
        h = CacheHierarchy(llc, size_fn=lambda a: 4, config=tiny_config())
        h.access(0, False)
        for addr in range(1, 5):
            h.access(addr, False)
        # Line 0 was demoted to the victim cache: still in the LLC but
        # gone from L1/L2 (it must be clean with respect to upper levels).
        if llc.in_victim(0):
            assert not h.l1.contains(0)
            assert not h.l2.contains(0)
        h.check_inclusion()


class TestWritebacks:
    def test_dirty_l2_eviction_writes_back_to_llc(self):
        h = make_hierarchy()
        h.access(0, True)
        # Push line 0 out of L1 and L2 with conflicting lines.
        for addr in range(4, 4 + 64, 4):
            h.access(addr, False)
        assert h.stats.writebacks_to_llc >= 1

    def test_writeback_carries_current_compressed_size(self):
        sizes = {}
        llc = BaseVictimLLC(
            CacheGeometry(8 * 8 * 64, 8),
            NRUPolicy(),
            make_victim_policy("ecm"),
            SegmentGeometry(64),
        )

        def size_fn(addr):
            return sizes.get(addr, 16)

        h = CacheHierarchy(llc, size_fn=size_fn, config=tiny_config())
        h.access(0, True)
        sizes[0] = 4  # the store shrank the line
        for addr in range(4, 4 + 64, 4):
            h.access(addr, False)
        # After the L2 writeback the LLC copy must carry the new size.
        if llc.in_baseline(0):
            cset = llc._sets[0]
            assert cset.base_size[cset.base_lookup[0]] == 4


class TestPrefetcherIntegration:
    def test_streaming_triggers_prefetch_fills(self):
        h = make_hierarchy(prefetch=2)
        for addr in range(0, 24):
            h.access(addr, False)
        assert h.stats.prefetch_fills > 0

    def test_prefetched_lines_hit_in_llc(self):
        h = make_hierarchy(prefetch=2)
        for addr in range(0, 16):
            h.access(addr, False)
        # The next line of the stream should already be in the LLC.
        outcome = h.access(16, False)
        assert outcome.level in (L1, L2, LLC)

    def test_disabled_prefetcher_issues_nothing(self):
        h = make_hierarchy(prefetch=0)
        for addr in range(0, 24):
            h.access(addr, False)
        assert h.stats.prefetch_fills == 0


class TestDRAMCoupling:
    def test_memory_level_outcome_carries_dram_latency(self):
        h = make_hierarchy(memory=DRAMModel())
        outcome = h.access(1, False)
        assert outcome.level == MEMORY
        assert outcome.dram_latency > 0

    def test_dram_counters_match_hierarchy(self):
        dram = DRAMModel()
        h = make_hierarchy(memory=dram)
        import random

        rng = random.Random(3)
        for _ in range(2000):
            h.now += 50
            h.access(rng.randrange(300), rng.random() < 0.3)
        assert dram.stat_reads == h.stats.memory_reads
        assert dram.stat_writes == h.stats.memory_writes


class TestScaledConfig:
    def test_scaled_shrinks_both_private_levels_and_keeps_the_knobs(self):
        config = HierarchyConfig(prefetch_degree=3, l2_eviction_hints=False)
        config = config.scaled(1 / 32)
        assert config.l1_geometry == CacheGeometry(1024, 8)
        assert config.l2_geometry == CacheGeometry(8 * 1024, 8)
        assert config.prefetch_degree == 3
        assert config.l2_eviction_hints is False


class TestDecompressionLatency:
    """An LLC hit on a compressed line pays ``DECOMPRESSION_CYCLES``."""

    @staticmethod
    def llc_hit(size):
        llc = BaseVictimLLC(
            CacheGeometry(8 * 8 * 64, 8),
            NRUPolicy(),
            make_victim_policy("ecm"),
            SegmentGeometry(64),
        )
        h = CacheHierarchy(llc, size_fn=lambda addr: size, config=tiny_config())
        # Lines 4..16 share line 0's L1 and L2 sets, so line 0 leaves both
        # private levels but stays in the 8-way LLC.
        for addr in (0, 4, 8, 12, 16):
            h.access(addr, False)
        return h, llc.extra_tag_cycles, h.access(0, False)

    def test_bdi_costs_two_cycles(self):
        assert DECOMPRESSION_CYCLES == 2

    # Sizes are in 4-byte segments: 16 fill a 64-byte line.
    @pytest.mark.parametrize("size", [1, 8, 15])
    def test_compressed_hit_adds_decompression_cycles(self, size):
        h, tag_cycles, outcome = self.llc_hit(size)
        assert outcome.level == LLC
        assert outcome.extra_llc_cycles == tag_cycles + DECOMPRESSION_CYCLES
        assert h.stats.compressed_hits == 1

    @pytest.mark.parametrize("size", [0, 16])
    def test_zero_and_uncompressed_hits_skip_decompression(self, size):
        h, tag_cycles, outcome = self.llc_hit(size)
        assert outcome.level == LLC
        assert outcome.extra_llc_cycles == tag_cycles
        assert h.stats.compressed_hits == 0


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 150), st.booleans()), min_size=1, max_size=600
    )
)
@settings(max_examples=40, deadline=None)
def test_inclusion_invariant_property(accesses):
    llc = BaseVictimLLC(
        CacheGeometry(4 * 4 * 64, 4),
        NRUPolicy(),
        make_victim_policy("ecm"),
        SegmentGeometry(64),
    )
    h = CacheHierarchy(llc, size_fn=lambda a: (a % 3) * 6 + 4, config=tiny_config(2))
    for addr, is_write in accesses:
        h.access(addr, is_write)
    h.check_inclusion()
    llc.check_invariants()
