"""Differential tests: vectorised size kernels vs the scalar codecs.

The kernels in :mod:`repro.compression.kernels` exist purely for speed;
their contract is byte-identity with the scalar codecs over every line.
These tests fuzz that contract over adversarial and random lines, and
check the address-hash kernel against the scalar ``_mix`` ring lookup.
"""

from __future__ import annotations

import array
import random
import struct

import pytest

from repro.compression import kernels, make_compressor
from repro.workloads.datagen import _RING_SIZE, _mix


def _adversarial_lines() -> list[bytes]:
    """Lines targeting every codec branch: runs, deltas, dict matches."""
    lines = [
        b"\x00" * 64,
        b"\xff" * 64,
        struct.pack("<8Q", *[7] * 8),  # repeated non-zero 8-byte word
        struct.pack("<8Q", *(2**63 - 1 - i for i in range(8))),  # wrap deltas
        struct.pack("<16i", *(i - 8 for i in range(16))),  # small ints
        struct.pack("<16I", *(0x10000 * (i + 1) for i in range(16))),  # padded16
        struct.pack("<16I", *[0x00050003] * 16),  # halfwords + cpack full
        struct.pack("<16I", *(0xAB00_0000 + i for i in range(16))),  # mmmb
        struct.pack("<16I", *(0xAB00_0000 + (i << 12) for i in range(16))),  # mmbb
        struct.pack("<16B", *range(16)) * 4,  # repeating byte structure
        struct.pack("<8Q", *(0x7F00_0000_0000 + i * 8 for i in range(8))),
        # Zero runs of every phase and length, including the 8-word cap.
        b"\x00" * 36 + b"\x01\x02\x03\x04" + b"\x00" * 24,
        b"\x01\x00\x00\x00" + b"\x00" * 60,
        b"\x00" * 60 + b"\xde\xad\xbe\xef",
    ]
    rng = random.Random(0xC0DEC)
    for _ in range(120):
        lines.append(bytes(rng.randrange(256) for _ in range(64)))
    # Low-entropy random lines hit the compressible branches more often.
    for _ in range(120):
        lines.append(bytes(rng.choice((0, 0, 0, 1, 2, 0xFF)) for _ in range(64)))
    for _ in range(60):
        base = rng.randrange(1 << 62)
        lines.append(
            struct.pack(
                "<8Q", *((base + rng.randrange(-100, 100)) % 2**64 for _ in range(8))
            )
        )
    return lines


@pytest.mark.parametrize("codec", sorted(kernels.SIZE_KERNELS))
def test_size_kernels_match_scalar_codecs(codec):
    lines = _adversarial_lines()
    compressor = make_compressor(codec)
    expected = [compressor.compress(line).size_bytes for line in lines]
    got = kernels.SIZE_KERNELS[codec](kernels.lines_matrix(lines)).tolist()
    mismatches = [
        (i, e, g) for i, (e, g) in enumerate(zip(expected, got)) if e != g
    ]
    assert not mismatches, f"{codec}: first mismatches {mismatches[:5]}"


@pytest.mark.parametrize("codec", sorted(kernels.SIZE_KERNELS))
def test_size_histogram_matches_scalar(codec):
    lines = _adversarial_lines()
    compressor = make_compressor(codec)
    counts: dict[int, int] = {}
    for line in lines:
        size = compressor.compress(line).size_bytes
        counts[size] = counts.get(size, 0) + 1
    histogram = kernels.size_histogram(kernels.SIZE_KERNELS[codec], lines)
    assert histogram == tuple(sorted(counts.items()))


def test_lines_matrix_rejects_ragged_input():
    with pytest.raises(ValueError):
        kernels.lines_matrix([b"\x00" * 64, b"\x01" * 63])


@pytest.mark.parametrize("seed", [0, 1, 17, 0xDEADBEEF])
def test_ring_bases_match_scalar_mix(seed):
    rng = random.Random(seed + 1)
    addrs = array.array(
        "q", [rng.randrange(1 << 48) for _ in range(500)] + [0, 1, (1 << 62) - 64]
    )
    unique, bases = kernels.ring_bases(addrs, seed, _RING_SIZE)
    assert sorted(set(addrs)) == unique.tolist()
    for addr, base in zip(unique.tolist(), bases.tolist()):
        assert base == _mix(addr ^ seed) % _RING_SIZE
