"""Property-based structural invariants of the Base-Victim LLC.

The paper's headline guarantee (Section IV) is *structural*: the
Baseline Cache is managed exactly like an uncompressed cache, so for any
access stream and any replacement policy the Base-Victim hit rate is at
least the uncompressed cache's.  These tests drive both caches with ~50
seeded random traces spanning mixed read/write ratios, footprints and
compressed-size distributions and assert, per access, that no hit of the
uncompressed cache is ever missed by Base-Victim — across LRU, NRU and
SRRIP — plus the companion invariant that Victim Cache lines are always
clean (which is what makes every victim eviction silent).

The same streams also bound both caches from above, by Belady's MIN:
no cache that holds C lines of a set makes more hits on that set's
requests than optimal offline replacement with bypass at C lines.  An
uncompressed set holds W lines and a Base-Victim set at most 2W (two
tags per way), so a model that invents hits fails here even when it
keeps the floor.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.config import CacheGeometry
from repro.cache.replacement import make_policy, make_victim_policy
from repro.compression.segments import SegmentGeometry
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC

#: 8-byte segments, as in the paper's worked examples.
SEGMENTS = SegmentGeometry(64, 8)

#: Paper Figure 10 policies the guarantee must hold under.
POLICIES = ("lru", "nru", "srrip")

NUM_TRACES = 50
ACCESSES_PER_TRACE = 500

#: The test geometry: 4 sets x 4 ways.
SETS = 4
WAYS = 4


def random_trace(seed: int) -> list[tuple[int, int, int]]:
    """One seeded random trace: (addr, kind, size_segments) triples.

    Each seed draws its own write ratio (0..60%), footprint (spanning
    L2-fit through 10x-capacity behaviour for the 4x4 test geometry) and
    per-line compressed-size palette; writes occasionally change a
    line's compressed size, as real stores do.
    """
    rng = random.Random(0xB5EC + seed)
    write_fraction = rng.uniform(0.0, 0.6)
    footprint = rng.randrange(8, 160)
    sizes = [rng.randrange(SEGMENTS.segments_per_line + 1) for _ in range(footprint)]
    ops: list[tuple[int, int, int]] = []
    for _ in range(ACCESSES_PER_TRACE):
        addr = rng.randrange(footprint)
        if rng.random() < write_fraction:
            kind = AccessKind.WRITE
            if rng.random() < 0.3:  # the store changed the data
                sizes[addr] = rng.randrange(SEGMENTS.segments_per_line + 1)
        else:
            kind = AccessKind.READ
        ops.append((addr, kind, sizes[addr]))
    return ops


def belady_hits(stream: list[int], capacity: int) -> int:
    """Hits of Belady's MIN with bypass on ``stream``, ``capacity`` lines.

    On a miss in a full cache, the resident line reused furthest in the
    future is evicted, unless the request itself is reused no sooner,
    in which case it bypasses the cache.
    """
    never = len(stream)
    next_use = [never] * len(stream)
    seen: dict[int, int] = {}
    for i in range(len(stream) - 1, -1, -1):
        next_use[i] = seen.get(stream[i], never)
        seen[stream[i]] = i
    resident: dict[int, int] = {}  # line -> index of its next use
    hits = 0
    for i, line in enumerate(stream):
        if line in resident:
            hits += 1
        elif len(resident) == capacity:
            furthest = max(resident, key=resident.__getitem__)
            if resident[furthest] <= next_use[i]:
                continue
            del resident[furthest]
        resident[line] = next_use[i]
    return hits


def make_pair(policy_name: str) -> tuple[BaseVictimLLC, UncompressedLLC]:
    geometry = CacheGeometry(SETS * WAYS * 64, WAYS)
    bv = BaseVictimLLC(
        geometry,
        make_policy(policy_name),
        make_victim_policy("ecm"),
        SEGMENTS,
    )
    shadow = UncompressedLLC(geometry, make_policy(policy_name))
    return bv, shadow


@pytest.mark.parametrize("policy_name", POLICIES)
def test_hit_rate_never_below_uncompressed(policy_name):
    """Base-Victim hits >= uncompressed hits, per access and in total."""
    for seed in range(NUM_TRACES):
        bv, shadow = make_pair(policy_name)
        bv_hits = shadow_hits = 0
        for step, (addr, kind, size) in enumerate(random_trace(seed)):
            bv_result = bv.access(addr, kind, size)
            shadow_result = shadow.access(addr, kind, size)
            bv_hits += bv_result.hit
            shadow_hits += shadow_result.hit
            assert bv_result.hit or not shadow_result.hit, (
                f"policy={policy_name} seed={seed} step={step}: "
                f"uncompressed hit line {addr:#x} but Base-Victim missed it"
            )
        assert bv_hits >= shadow_hits
        bv.check_invariants()


@pytest.mark.parametrize("policy_name", POLICIES)
def test_hits_never_above_belady_min(policy_name):
    """Per set, hits <= MIN's: W lines uncompressed, 2W for Base-Victim."""
    for seed in range(NUM_TRACES):
        bv, shadow = make_pair(policy_name)
        streams: list[list[int]] = [[] for _ in range(SETS)]
        bv_hits = [0] * SETS
        shadow_hits = [0] * SETS
        for addr, kind, size in random_trace(seed):
            index = addr & (SETS - 1)
            streams[index].append(addr)
            bv_hits[index] += bv.access(addr, kind, size).hit
            shadow_hits[index] += shadow.access(addr, kind, size).hit
        for index, stream in enumerate(streams):
            where = f"policy={policy_name} seed={seed} set={index}"
            assert shadow_hits[index] <= belady_hits(stream, WAYS), where
            assert bv_hits[index] <= belady_hits(stream, 2 * WAYS), where


@pytest.mark.parametrize("policy_name", POLICIES)
def test_baseline_image_mirrors_uncompressed(policy_name):
    """The tag-0 image equals the uncompressed cache's contents exactly."""
    for seed in range(0, NUM_TRACES, 5):
        bv, shadow = make_pair(policy_name)
        for addr, kind, size in random_trace(seed):
            bv.access(addr, kind, size)
            shadow.access(addr, kind, size)
        for index in range(bv.geometry.num_sets):
            assert sorted(bv.baseline_set_contents(index)) == sorted(
                shadow.cache.set_contents(index)
            ), f"policy={policy_name} seed={seed}: baseline image diverged"


@pytest.mark.parametrize("policy_name", POLICIES)
def test_victim_lines_are_always_clean(policy_name):
    """No dirty line may ever sit in the Victim Cache (inclusive mode)."""
    for seed in range(NUM_TRACES):
        bv, _ = make_pair(policy_name)
        for addr, kind, size in random_trace(seed):
            bv.access(addr, kind, size)
        for cset in bv._sets:
            for way, valid in enumerate(cset.vict_valid):
                if valid:
                    assert not cset.vict_dirty[way], (
                        f"policy={policy_name} seed={seed}: dirty victim line "
                        f"{cset.vict_tags[way]:#x}"
                    )
        bv.check_invariants()
