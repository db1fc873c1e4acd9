"""Differential oracle: chunked trace synthesis vs the per-access reference.

:meth:`PatternGenerator.generate` fills a trace a block of PRNG draws at a
time with NumPy; ``_reference_generate`` steps one access and one draw at
a time.  Every case here runs both on twin generators and requires
identical ``kinds``/``addrs``/``deltas`` bytes *and* an identical end
state (PRNG state, stream, region and scan cursors), so a second
``generate`` continues exactly where the reference would.  The cases are
every suite spec at the TEST preset, one spec per pattern at the BENCH
preset, and a seeded grid over :class:`PatternParams` that includes
lengths ending exactly on, just before and just after a chunk boundary.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.cache.replacement.base import BLOCK_DRAWS
from repro.sim.config import BENCH, TEST
from repro.workloads.generators import PatternGenerator, PatternParams
from repro.workloads.suite import TraceSuite, all_specs
from repro.workloads.trace import STORE, TraceMeta

META = TraceMeta("oracle", "ispec", 1, 1, "friendly", True)

KINDS = ("stream", "zipf", "regions", "frames", "l2fit", "scan")
#: 1 and 2 degenerate; 15/16/17 straddle the first split into regions of
#: 16 lines; 33 leaves a remainder; 4096 gives the full 32 regions.
FOOTPRINTS = (1, 2, 15, 16, 17, 33, 4096)
HOT_FRACTIONS = (0.0, 0.0005, 0.3, 1.0)
NUM_STREAMS = (1, 3, 8)
WRITE_FRACTIONS = (0.0, 1.0)
INSTRS_PER_ACCESS = (0.5, 37.3)


def end_state(generator: PatternGenerator) -> tuple:
    return (
        generator.rng._state,
        generator._cursors,
        generator._region_cursors,
        generator._scan_pos,
    )


def first_difference(got, want) -> int:
    """Index of the first differing record (or the shorter length)."""
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return index
    return min(len(got), len(want))


def assert_matches_reference(params: PatternParams, seed: int, lengths) -> None:
    """Consecutive ``generate`` calls equal the reference's, state included."""
    fast = PatternGenerator(params, seed)
    slow = PatternGenerator(params, seed)
    for call, length in enumerate(lengths):
        got = fast.generate(META, length)
        want = slow._reference_generate(META, length)
        for column in ("kinds", "addrs", "deltas"):
            same = getattr(got, column) == getattr(want, column)
            assert same, (
                f"call {call} (length {length}): {column} differ from record "
                f"{first_difference(getattr(got, column), getattr(want, column))}"
            )
        same = end_state(fast) == end_state(slow)
        assert same, f"call {call} (length {length}): end state differs"
    # generate released its views of the columns, so they can grow again.
    got.append(STORE, 12345, 1)
    assert len(got) == lengths[-1] + 1 and got.addrs[-1] == 12345


def first_chunk_length(params: PatternParams, seed: int) -> int:
    """Records the first block of draws fills when nothing caps it."""
    probe = PatternGenerator(params, seed)
    room = BLOCK_DRAWS  # every record takes at least one draw
    columns = (
        np.empty(room, dtype=np.int8),
        np.empty(room, dtype=np.int64),
        np.empty(room, dtype=np.int32),
    )
    return probe._fill_chunk(*columns)


def spec_params(suite: TraceSuite, name: str) -> tuple[PatternParams, int]:
    spec = suite.spec(name)
    return suite.pattern_params(spec), spec.seed


def grid() -> list[tuple[PatternParams, int]]:
    """Every (kind, footprint, hot fraction), cycling through the rest."""
    rng = random.Random(20161017)
    rest = list(itertools.product(NUM_STREAMS, WRITE_FRACTIONS, INSTRS_PER_ACCESS))
    cases = []
    combos = itertools.product(KINDS, FOOTPRINTS, HOT_FRACTIONS)
    for index, (kind, footprint, hot_fraction) in enumerate(combos):
        streams, write_fraction, instrs = rest[index % len(rest)]
        params = PatternParams(
            kind=kind,
            footprint_lines=footprint,
            hot_lines=rng.choice((1, 5, 64)),
            hot_fraction=hot_fraction,
            write_fraction=write_fraction,
            instrs_per_access=instrs,
            num_streams=streams,
        )
        cases.append((params, rng.randrange(1 << 16)))
    return cases


GRID = grid()


def case_id(case: tuple[PatternParams, int]) -> str:
    params, seed = case
    return (
        f"{params.kind}-fp{params.footprint_lines}-hot{params.hot_fraction}"
        f"-s{params.num_streams}-w{params.write_fraction}"
        f"-ipa{params.instrs_per_access}-seed{seed}"
    )


def test_grid_covers_every_value():
    assert {p.kind for p, _ in GRID} == set(KINDS)
    assert {p.footprint_lines for p, _ in GRID} == set(FOOTPRINTS)
    assert {p.hot_fraction for p, _ in GRID} == set(HOT_FRACTIONS)
    assert {p.num_streams for p, _ in GRID} == set(NUM_STREAMS)
    assert {p.write_fraction for p, _ in GRID} == set(WRITE_FRACTIONS)
    assert {p.instrs_per_access for p, _ in GRID} == set(INSTRS_PER_ACCESS)


@pytest.mark.parametrize("case", GRID, ids=case_id)
def test_grid_short_traces(case):
    params, seed = case
    assert_matches_reference(params, seed, (1, 2, 1, 37))


#: Chunk-boundary cases: per kind, one small skewed configuration and
#: one large sparse one.
BOUNDARY = [
    case
    for case in GRID
    if (case[0].footprint_lines, case[0].hot_fraction) in ((33, 0.3), (4096, 0.0005))
]


@pytest.mark.parametrize("case", BOUNDARY, ids=case_id)
@pytest.mark.parametrize("offset", (-1, 0, 1))
def test_lengths_around_the_first_chunk_boundary(case, offset):
    params, seed = case
    boundary = first_chunk_length(params, seed)
    assert 1 < boundary < BLOCK_DRAWS
    assert_matches_reference(params, seed, (boundary + offset, boundary))


@pytest.mark.parametrize("name", [spec.name for spec in all_specs()])
def test_every_suite_trace_at_the_test_preset(name):
    suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
    params, seed = spec_params(suite, name)
    assert_matches_reference(params, seed, (TEST.trace_length, 100))


def one_spec_per_pattern() -> list[str]:
    first: dict[str, str] = {}
    for spec in all_specs():
        first.setdefault(spec.pattern, spec.name)
    return sorted(first.values())


@pytest.mark.parametrize("name", one_spec_per_pattern())
def test_one_trace_per_pattern_at_the_bench_preset(name):
    suite = TraceSuite(BENCH.reference_llc_lines, BENCH.trace_length)
    params, seed = spec_params(suite, name)
    assert_matches_reference(params, seed, (BENCH.trace_length, 100))
