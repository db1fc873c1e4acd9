"""Data-value synthesis with measured BDI compressibility.

The paper's traces carry real data whose compressibility drives every
result: compression-friendly traces average ~50% compressed size, poorly
compressible ones stay above 75%, and across all 60 cache-sensitive
traces the average block is 55% of the uncompressed size (Section VI.A).

We reproduce that with *palettes*: each trace owns a small set of
synthesised 64-byte patterns characteristic of its workload category
(zero pages, small integers, pointer arrays, FP arrays with shared
exponents, text, random data).  Every pattern is compressed once with the
real :class:`~repro.compression.bdi.BDICompressor`, so palette sizes are
measured, never assumed.  A line address maps to a palette entry through a
deterministic hash; stores can move a line to a different entry, which is
how lines grow and trigger the Section IV.B.5 partner-eviction path.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.cache.replacement.base import DeterministicRandom
from repro.compression import kernels
from repro.compression.base import CompressionAlgorithm
from repro.compression.segments import EVAL_GEOMETRY, SegmentGeometry

#: Size of the address->palette lookup ring.
_RING_SIZE = 256

#: Knuth multiplicative hash constant.
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = 0xFFFFFFFFFFFFFFFF


def _mix(value: int) -> int:
    """Cheap deterministic 64-bit mixer."""
    value = (value * _HASH_MULT) & _HASH_MASK
    value ^= value >> 29
    return value


# ----------------------------------------------------------------------
# Pattern synthesisers: each returns one 64-byte line.
# ----------------------------------------------------------------------


def zero_line(rng: DeterministicRandom) -> bytes:
    """An all-zero block (freshly zeroed allocations, sparse matrices)."""
    return b"\x00" * 64


def small_int_line(rng: DeterministicRandom) -> bytes:
    """Sixteen 32-bit integers near zero (counters, flags, indices)."""
    values = [rng.below(256) - 64 for _ in range(16)]
    return struct.pack("<16i", *values)


def pointer_line(rng: DeterministicRandom) -> bytes:
    """Eight 64-bit pointers into one heap region (linked structures)."""
    base = 0x7F00_0000_0000 + rng.below(1 << 30)
    values = [base + rng.below(1 << 14) * 8 for _ in range(8)]
    return struct.pack("<8Q", *values)


def fp_delta_line(rng: DeterministicRandom) -> bytes:
    """Eight doubles with a shared exponent and nearby mantissas.

    Models dense FP arrays (stencils, fields) whose neighbouring values
    differ only in low mantissa bits — BDI's base8 sweet spot.
    """
    base_bits = 0x3FF0_0000_0000_0000 | (rng.below(1 << 20) << 20)
    values = [base_bits + rng.below(1 << 14) for _ in range(8)]
    return struct.pack("<8Q", *values)


def text_line(rng: DeterministicRandom) -> bytes:
    """ASCII-ish bytes (documents, markup); moderately compressible."""
    # Repeating short byte values let FPC/C-Pack find structure, while
    # BDI's base2-delta1 sometimes applies; compressibility is middling.
    out = bytearray()
    for _ in range(32):
        char = 0x20 + rng.below(0x5F)
        out += bytes((char, 0))  # UTF-16-ish text
    return bytes(out)


def random_line(rng: DeterministicRandom) -> bytes:
    """High-entropy data (encrypted/compressed payloads, media)."""
    return bytes(rng.below(256) for _ in range(64))


#: Pattern name -> synthesiser.
PATTERNS = {
    "zero": zero_line,
    "small_int": small_int_line,
    "pointer": pointer_line,
    "fp_delta": fp_delta_line,
    "text": text_line,
    "random": random_line,
}

#: Pattern mixes per workload category and compressibility class.
#: Weights are relative; they were tuned so that measured average
#: compressed sizes land in the paper's bands (~50% for friendly traces,
#: >75% for poor ones).
CATEGORY_MIXES: dict[tuple[str, str], dict[str, int]] = {
    ("fspec", "friendly"): {"fp_delta": 5, "zero": 1, "small_int": 1, "text": 1, "random": 2},
    ("fspec", "poor"): {"random": 8, "fp_delta": 1, "zero": 1},
    ("ispec", "friendly"): {"small_int": 5, "zero": 2, "pointer": 2, "random": 2},
    ("ispec", "poor"): {"random": 7, "pointer": 2, "small_int": 1},
    ("productivity", "friendly"): {"text": 3, "zero": 2, "small_int": 3, "random": 2},
    ("productivity", "poor"): {"random": 6, "text": 3, "zero": 1},
    ("client", "friendly"): {"small_int": 2, "fp_delta": 3, "zero": 1, "text": 1, "random": 2},
    ("client", "poor"): {"random": 7, "text": 2, "zero": 1},
}


@dataclass(frozen=True)
class PaletteEntry:
    """One synthesised pattern with its measured compressed size."""

    pattern: str
    data: bytes
    size_bytes: int
    size_segments: int


def build_palette(
    category: str,
    comp_class: str,
    seed: int,
    compressor: CompressionAlgorithm | None = None,
    geometry: SegmentGeometry = EVAL_GEOMETRY,
    entries_per_pattern: int = 8,
) -> list[PaletteEntry]:
    """Synthesise and measure a palette for one trace.

    ``comp_class`` "mixed" draws from both the friendly and poor mixes.
    ``compressor`` defaults to BDI, the paper's codec.
    """
    rng = DeterministicRandom(seed ^ 0xDA7A)
    classes = ["friendly", "poor"] if comp_class == "mixed" else [comp_class]
    synthesised: list[tuple[str, bytes]] = []
    for cls in classes:
        try:
            mix = CATEGORY_MIXES[(category, cls)]
        except KeyError:
            known = ", ".join(sorted({c for c, _ in CATEGORY_MIXES}))
            raise ValueError(
                f"unknown category {category!r} (known: {known}) or class {cls!r}"
            ) from None
        for pattern, weight in mix.items():
            synth = PATTERNS[pattern]
            for _ in range(weight * entries_per_pattern):
                synthesised.append((pattern, synth(rng)))
    if compressor is None:
        # The default (BDI) sizes the whole palette in one vectorised
        # kernel pass instead of one scalar compress() per line;
        # byte-identity with the scalar codec is enforced by
        # tests/compression/test_kernels.py.
        matrix = kernels.lines_matrix(data for _, data in synthesised)
        sizes = kernels.bdi_size_bytes(matrix).tolist()
    else:
        sizes = [compressor.compress(data).size_bytes for _, data in synthesised]
    return [
        PaletteEntry(
            pattern=pattern,
            data=data,
            size_bytes=size_bytes,
            size_segments=geometry.size_in_segments(size_bytes),
        )
        for (pattern, data), size_bytes in zip(synthesised, sizes)
    ]


class LineDataModel:
    """Maps line addresses to compressed sizes; evolves under stores.

    ``size_of`` is the function handed to the cache hierarchy.  Stores
    call ``on_write``; every ``write_change_period``-th store to a line
    rotates it to the next palette entry, changing its compressed size
    deterministically and identically for every architecture simulated
    over the same trace.

    ``size_memo`` is the miss-path fast lane: a plain dict of each
    address's *current* size in segments, kept exact by write
    invalidation (``on_write`` rewrites the entry when a rotation
    changes the size) and primeable in one vectorised pass over a
    trace's address column (:meth:`prime_size_memo`).  The hierarchy
    reads it directly and falls back to ``size_of`` on a miss, so the
    memo is purely an accelerator — values are identical either way.
    """

    __slots__ = (
        "palette",
        "size_memo",
        "_sizes",
        "_ring",
        "_seed",
        "_ring_base",
        "_versions",
        "_write_counts",
        "_period",
        "size_table_cache",
    )

    def __init__(
        self,
        palette: list[PaletteEntry],
        seed: int = 0,
        write_change_period: int = 4,
    ) -> None:
        if not palette:
            raise ValueError("palette must not be empty")
        if write_change_period <= 0:
            raise ValueError(
                f"write_change_period must be positive, got {write_change_period}"
            )
        #: Kept for observability: per-codec compressed-size histograms
        #: are measured over these palette lines (repro.compression.stats).
        self.palette = palette
        self._sizes = [entry.size_segments for entry in palette]
        # Pre-expanded ring so size_of is one hash + two list indexes.
        self._ring = [
            self._sizes[_mix(seed * 1315423911 + i) % len(self._sizes)]
            for i in range(_RING_SIZE)
        ]
        self._seed = seed
        #: addr -> _mix(addr ^ seed) % _RING_SIZE, memoised: the hash is
        #: pure, and traces revisit the same lines millions of times.
        self._ring_base: dict[int, int] = {}
        self._versions: dict[int, int] = {}
        self._write_counts: dict[int, int] = {}
        self._period = write_change_period
        #: addr -> current size in segments (see class docstring).
        self.size_memo: dict[int, int] = {}
        #: Optional ``(cache, key)`` pair installed by
        #: :meth:`TraceSuite.data_model`: :meth:`prime_size_memo` then
        #: fetches its tables through the process-wide trace cache
        #: instead of recomputing them per run (sweep-wide reuse).
        self.size_table_cache: tuple | None = None

    def size_of(self, addr: int) -> int:
        """Current compressed size of line ``addr`` in segments."""
        # (_mix(x) + v) % R == (_mix(x) % R + v) % R, so the reduced hash
        # can be cached per address without changing any lookup.
        base = self._ring_base.get(addr)
        if base is None:
            base = self._ring_base[addr] = _mix(addr ^ self._seed) % _RING_SIZE
        version = self._versions.get(addr)
        if version is None:
            size = self._ring[base]
        else:
            size = self._ring[(base + version) % _RING_SIZE]
        # Self-healing memo: an address that misses once (e.g. a prefetch
        # target outside the primed trace set) is a dict hit afterwards.
        self.size_memo[addr] = size
        return size

    def on_write(self, addr: int) -> None:
        """Record one store to ``addr``; may rotate its data pattern."""
        count = self._write_counts.get(addr, 0) + 1
        self._write_counts[addr] = count
        if count % self._period == 0:
            version = self._versions.get(addr, 0) + 1
            self._versions[addr] = version
            # Write invalidation: the rotation changed this line's size,
            # so the memo entry is rewritten in the same step.
            base = self._ring_base.get(addr)
            if base is None:
                base = self._ring_base[addr] = _mix(addr ^ self._seed) % _RING_SIZE
            self.size_memo[addr] = self._ring[(base + version) % _RING_SIZE]

    def precompute_size_tables(self, addrs) -> tuple[dict[int, int], dict[int, int]]:
        """(ring bases, version-0 sizes) for a trace's distinct addresses.

        Pure function of (trace addresses, seed, palette): both dicts are
        shareable across runs — :meth:`adopt_size_tables` installs them.
        """
        unique, bases = kernels.ring_bases(addrs, self._seed, _RING_SIZE)
        ring = self._ring
        sizes = [ring[base] for base in bases.tolist()]
        addr_list = unique.tolist()
        return dict(zip(addr_list, bases.tolist())), dict(zip(addr_list, sizes))

    def adopt_size_tables(
        self, tables: tuple[dict[int, int], dict[int, int]]
    ) -> None:
        """Install precomputed size tables (before any store is replayed).

        The ring-base dict is shared by reference — entries are a pure
        function of the address, so concurrent lazy inserts from other
        runs write identical values.  The size dict is copied *into* the
        existing memo: stores rotate entries, which must never leak
        across runs, and the hierarchy holds a reference to this exact
        dict (rebinding it would silently disconnect the fast lane).
        """
        ring_bases_table, size_table = tables
        if not ring_bases_table and not size_table:
            return
        if self._versions or self._write_counts:
            raise ValueError("size tables must be adopted before any on_write")
        self._ring_base = ring_bases_table
        self.size_memo.update(size_table)

    def prime_size_memo(self, addrs) -> None:
        """Vectorise the size memo for every distinct address in ``addrs``.

        Call before replaying the trace (sizes are version-0).  Never
        changes any ``size_of`` value — only how fast the hierarchy can
        look it up.
        """
        if self.size_memo:
            return  # already primed (e.g. adopted from the trace cache)
        cached = self.size_table_cache
        if cached is not None:
            cache, key = cached
            # The loader runs at most once per (suite version, preset,
            # trace) per process; the tables are a pure function of the
            # key, so later models for the same trace adopt identical
            # values (byte-identity is preserved by construction).
            tables = cache.get(key, lambda: self.precompute_size_tables(addrs))
            self.adopt_size_tables(tables)
            return
        self.adopt_size_tables(self.precompute_size_tables(addrs))

    def average_size_segments(self) -> float:
        """Unweighted palette average (the trace's nominal compressibility)."""
        return sum(self._ring) / len(self._ring)

    def average_size_fraction(self, segments_per_line: int = 16) -> float:
        """Average compressed size as a fraction of the line size."""
        return self.average_size_segments() / segments_per_line
