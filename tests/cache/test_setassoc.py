"""Tests for the uncompressed set-associative caches: the L1/L2 and the substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfigError, CacheGeometry
from repro.cache.replacement import LRUPolicy, NRUPolicy
from repro.cache.setassoc import LRUCache, SetAssociativeCache


def small_cache(ways=4, sets=8, policy=None, cls=SetAssociativeCache):
    geometry = CacheGeometry(sets * ways * 64, ways)
    if cls is LRUCache:
        return LRUCache(geometry)
    return SetAssociativeCache(geometry, policy or LRUPolicy())


#: Runs a test class over both true-LRU caches: the private L1/L2's
#: dict-order LRUCache and the substrate on LRUPolicy's stamps.
BOTH_CACHES = pytest.mark.parametrize(
    "cls", [LRUCache, SetAssociativeCache], ids=["dict-order", "stamps"]
)


def access(cache, addr, is_write=False):
    """Probe, then fill on a miss: one standalone access to either cache."""
    if not cache.probe(addr, is_write):
        cache.fill(addr, dirty=is_write)


class TestGeometry:
    def test_paper_llc_geometry(self):
        geometry = CacheGeometry(2 * 2**20, 16)
        assert geometry.num_sets == 2048
        assert geometry.index_bits == 11
        assert geometry.offset_bits == 6

    def test_rejects_non_dividing_size(self):
        with pytest.raises(CacheConfigError):
            CacheGeometry(1000, 3)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(CacheConfigError):
            CacheGeometry(3 * 16 * 64, 16)  # 3 sets

    def test_24_way_3mb_is_valid(self):
        # The paper's 3MB = 2MB + 8 ways per set (Section VI.A).
        geometry = CacheGeometry(3 * 2**20, 24)
        assert geometry.num_sets == 2048

    def test_scaled_preserves_associativity(self):
        geometry = CacheGeometry(2 * 2**20, 16).scaled(1 / 8)
        assert geometry.associativity == 16
        assert geometry.size_bytes == 256 * 1024

    def test_str(self):
        assert str(CacheGeometry(2 * 2**20, 16)) == "2MB/16w"
        assert str(CacheGeometry(32 * 1024, 8)) == "32KB/8w"


@BOTH_CACHES
class TestBasicOperations:
    def test_miss_then_hit(self, cls):
        cache = small_cache(cls=cls)
        assert not cache.probe(0x100)
        cache.fill(0x100)
        assert cache.probe(0x100)

    def test_fill_of_present_line_rejected(self, cls):
        cache = small_cache(cls=cls)
        cache.fill(0x100)
        with pytest.raises(ValueError):
            cache.fill(0x100)

    def test_write_sets_dirty(self, cls):
        cache = small_cache(cls=cls)
        cache.fill(0x100)
        cache.probe(0x100, is_write=True)
        cache.probe(0x100)  # a later read keeps the line dirty
        assert cache.invalidate(0x100) == (True, True)

    def test_eviction_returns_victim_with_dirty_state(self, cls):
        cache = small_cache(ways=2, sets=1, cls=cls)
        cache.fill(0, dirty=True)
        cache.fill(1)
        victim = cache.fill(2)
        assert victim is not None
        assert victim.addr == 0
        assert victim.dirty

    def test_lru_eviction_order(self, cls):
        cache = small_cache(ways=2, sets=1, cls=cls)
        cache.fill(0)
        cache.fill(1)
        cache.probe(0)  # 1 becomes LRU
        victim = cache.fill(2)
        assert victim.addr == 1

    def test_invalidate(self, cls):
        cache = small_cache(cls=cls)
        cache.fill(0x100, dirty=True)
        present, dirty = cache.invalidate(0x100)
        assert present and dirty
        assert not cache.contains(0x100)
        # Second invalidation is a no-op.
        assert cache.invalidate(0x100) == (False, False)

    def test_invalidated_way_is_refilled_first(self, cls):
        cache = small_cache(ways=2, sets=1, cls=cls)
        cache.fill(0)
        cache.fill(1)
        cache.invalidate(0)
        victim = cache.fill(2)
        assert victim is None  # reused the freed way

    def test_hit_miss_counters(self, cls):
        cache = small_cache(cls=cls)
        access(cache, 1)
        access(cache, 1)
        access(cache, 2)
        assert cache.stat_hits == 1
        assert cache.stat_misses == 2


class TestStatsAndIntrospection:
    def test_access_convenience(self):
        cache = small_cache()
        hit, victim = cache.access(0x42)
        assert not hit and victim is None
        hit, victim = cache.access(0x42)
        assert hit

    def test_occupancy_and_residents(self):
        cache = small_cache()
        for addr in (1, 2, 3):
            cache.fill(addr)
        assert cache.occupancy() == 3
        assert set(cache.resident_lines()) == {1, 2, 3}

    def test_set_contents(self):
        cache = small_cache(ways=2, sets=8)
        cache.fill(8)  # set 0
        cache.fill(16)  # set 0
        assert sorted(cache.set_contents(0)) == [8, 16]

    def test_hint_downgrade_is_safe_for_missing_lines(self):
        cache = small_cache(policy=NRUPolicy())
        cache.hint_downgrade(0x999)  # must not raise


@BOTH_CACHES
class TestCapacityInvariant:
    @given(
        st.lists(
            st.tuples(st.integers(0, 255), st.booleans()),
            min_size=1,
            max_size=500,
        )
    )
    @settings(max_examples=60)
    def test_occupancy_never_exceeds_capacity(self, cls, operations):
        cache = small_cache(ways=4, sets=4, cls=cls)
        for addr, is_write in operations:
            access(cache, addr, is_write)
        resident = list(cache.resident_lines())
        assert len(resident) == len(set(resident))
        for index in range(4):
            contents = [addr for addr in resident if addr & 3 == index]
            assert len(contents) <= 4
            for addr in contents:
                assert cache.contains(addr)
            if cls is SetAssociativeCache:
                # lookup tables agree with the arrays
                assert sorted(cache.set_contents(index)) == sorted(contents)

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
    @settings(max_examples=60)
    def test_most_recent_line_always_resident(self, cls, addrs):
        cache = small_cache(ways=4, sets=4, cls=cls)
        for addr in addrs:
            access(cache, addr)
            assert cache.contains(addr)


_OPERATION = st.tuples(
    st.sampled_from(("probe", "fill", "invalidate")),
    st.integers(0, 47),
    st.booleans(),
)


def by_recency(reference, index):
    """One set's ``(line, dirty)`` pairs in stamp order, least recent first."""
    base = index * reference.ways
    state = reference._sets[index].policy_state
    return [
        (reference.tags[base + way], reference.dirty[base + way])
        for way in reversed(reference.policy.stack_order(state))
        if reference.valid[base + way]
    ]


class TestLRUCacheMatchesStampReference:
    @given(st.lists(_OPERATION, min_size=1, max_size=400))
    @settings(max_examples=100)
    def test_same_outcomes_as_the_policy_object_path(self, operations):
        lru = small_cache(ways=4, sets=4, cls=LRUCache)
        reference = small_cache(ways=4, sets=4)
        for op, addr, flag in operations:
            if op == "probe":
                outcomes = [cache.probe(addr, flag) for cache in (lru, reference)]
            elif op == "fill":
                if lru.contains(addr):
                    continue  # fill only absent lines
                outcomes = [cache.fill(addr, dirty=flag) for cache in (lru, reference)]
            else:
                outcomes = [cache.invalidate(addr) for cache in (lru, reference)]
            assert outcomes[0] == outcomes[1]
            # The set's dict order is the stamp order, least recent first.
            index = addr & 3
            assert list(lru._sets[index].items()) == by_recency(reference, index)
        for index in range(4):
            assert list(lru._sets[index].items()) == by_recency(reference, index)
        for counter in ("stat_hits", "stat_misses", "stat_evictions", "stat_writebacks"):
            assert getattr(lru, counter) == getattr(reference, counter)
