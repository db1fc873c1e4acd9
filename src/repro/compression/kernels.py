"""Vectorised miss-path size kernels (NumPy).

The Base-Victim LLC asks for a line's compressed size on every fill
(Section IV.B), and the palette machinery in
:mod:`repro.workloads.datagen` compresses hundreds of synthesised lines
per trace with the scalar codecs.  Both costs are pure functions of the
line bytes, so — following the "take compression off the critical path"
argument of Pekhimenko et al. — this module recomputes them in bulk:

* :func:`bdi_size_bytes` / :func:`fpc_size_bytes` /
  :func:`cpack_size_bytes` compute compressed sizes for a whole matrix
  of 64-byte lines in one vectorised pass, byte-identical to the scalar
  codecs in :mod:`repro.compression.bdi`/``fpc``/``cpack`` (enforced by
  ``tests/compression/test_kernels.py``);
* :func:`ring_bases` evaluates the data model's address hash over the
  distinct addresses of a trace's int64 address column, so the
  per-address size memo can be primed in one pass at load time.

The kernels are *size* kernels only — they never build payloads, so
decompression still goes through the scalar codecs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

#: Line size the kernels are specialised for (the paper's 64B lines).
LINE_BYTES = 64

#: Knuth multiplicative hash constant (mirrors repro.workloads.datagen).
_HASH_MULT = 0x9E3779B97F4A7C15

#: BDI delta-encoding sizes: (base_size, delta_size) -> size_bytes, via
#: ``base + n_words * delta + ceil(n_words / 8)`` with n_words = 64/base.
_BDI_ENCODING_SIZES: tuple[tuple[int, int, int], ...] = (
    (8, 1, 17),
    (8, 2, 25),
    (8, 4, 41),
    (4, 1, 22),
    (4, 2, 38),
    (2, 1, 38),
)


def lines_matrix(lines: Iterable[bytes]) -> "np.ndarray":
    """Stack 64-byte lines into one contiguous ``[N, 64]`` uint8 matrix."""
    joined = b"".join(lines)
    if len(joined) % LINE_BYTES:
        raise ValueError(
            f"lines must all be {LINE_BYTES} bytes (got {len(joined)} total)"
        )
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, LINE_BYTES)


# ----------------------------------------------------------------------
# BDI (repro.compression.bdi.BDICompressor)
# ----------------------------------------------------------------------


def _bdi_encoding_applies(
    lines: "np.ndarray", base_size: int, delta_size: int
) -> "np.ndarray":
    """Per-row: does BDI encoding (base_size, delta_size) apply?"""
    unsigned = lines.view(f"<u{base_size}")
    signed = lines.view(f"<i{base_size}")
    bound = 1 << (8 * delta_size - 1)
    # The signed view *is* the scalar code's "signed distance from the
    # implicit zero base" (word - modulus when word >= half).
    from_zero = (signed >= -bound) & (signed < bound)
    # Base = first word not within delta range of zero (argmax finds the
    # first True; rows where every word is from-zero never read it).
    base_col = np.argmax(~from_zero, axis=1)
    base = np.take_along_axis(unsigned, base_col[:, None], axis=1)
    # Wrapped unsigned subtraction viewed as signed == the scalar code's
    # representative of (word - base) mod 2^(8*base_size) in [-half, half).
    delta = (unsigned - base).view(f"<i{base_size}")
    fits = (delta >= -bound) & (delta < bound)
    return (from_zero | fits).all(axis=1)


def bdi_size_bytes(lines: "np.ndarray") -> "np.ndarray":
    """BDI compressed size in bytes per row of a ``[N, 64]`` uint8 matrix."""
    n = lines.shape[0]
    best = np.full(n, LINE_BYTES, dtype=np.int64)
    for base_size, delta_size, size in _BDI_ENCODING_SIZES:
        applies = _bdi_encoding_applies(lines, base_size, delta_size)
        np.minimum(best, np.where(applies, size, LINE_BYTES), out=best)
    # Special cases override the delta encodings (checked first scalar-side).
    words8 = lines.view("<u8")
    repeated = (words8 == words8[:, :1]).all(axis=1)
    best[repeated] = 8
    best[~lines.any(axis=1)] = 1
    return best


# ----------------------------------------------------------------------
# FPC (repro.compression.fpc.FPCCompressor)
# ----------------------------------------------------------------------


def fpc_size_bytes(lines: "np.ndarray") -> "np.ndarray":
    """FPC compressed size in bytes per row of a ``[N, 64]`` uint8 matrix."""
    unsigned = lines.view("<u4")
    signed = lines.view("<i4")
    zero = unsigned == 0

    # Non-zero word payload bits, first-match order as in fpc._encode_word.
    high = (unsigned >> 16).astype(np.int64)
    low = (unsigned & 0xFFFF).astype(np.int64)
    high_signed = np.where(high >= 1 << 15, high - (1 << 16), high)
    low_signed = np.where(low >= 1 << 15, low - (1 << 16), low)
    byte0 = unsigned & 0xFF
    payload_bits = np.select(
        [
            (signed >= -8) & (signed < 8),
            (signed >= -128) & (signed < 128),
            (signed >= -(1 << 15)) & (signed < 1 << 15),
            low == 0,
            (high_signed >= -128)
            & (high_signed < 128)
            & (low_signed >= -128)
            & (low_signed < 128),
            unsigned == byte0 * np.uint32(0x01010101),
        ],
        [4, 8, 16, 16, 16, 8],
        default=32,
    )
    bits = np.where(zero, 0, 3 + payload_bits).sum(axis=1)

    # Zero runs: one 6-bit (prefix + length) chunk per <= 8 consecutive
    # zero words.  A chunk starts wherever a zero word's position within
    # its run is a multiple of 8.
    cols = np.arange(unsigned.shape[1], dtype=np.int64)
    run_start = zero.copy()
    run_start[:, 1:] &= ~zero[:, :-1]
    start_col = np.maximum.accumulate(np.where(run_start, cols, -1), axis=1)
    run_pos = cols - start_col
    chunk_start = zero & (run_pos % 8 == 0)
    bits = bits + 6 * chunk_start.sum(axis=1)

    size = (bits + 7) // 8
    return np.where(size >= LINE_BYTES, LINE_BYTES, size)


# ----------------------------------------------------------------------
# C-Pack (repro.compression.cpack.CPackCompressor)
# ----------------------------------------------------------------------


def cpack_size_bytes(lines: "np.ndarray") -> "np.ndarray":
    """C-Pack compressed size in bytes per row of a ``[N, 64]`` uint8 matrix."""
    words = lines.view(">u4").astype(np.uint32)  # big-endian, as scalar
    n, n_words = words.shape
    # 16-word lines push at most 16 entries, so the FIFO never pops and
    # the dictionary is insert-only: entry i is the i-th pushed word.
    dictionary = np.zeros((n, n_words), dtype=np.uint32)
    dict_valid = np.zeros((n, n_words), dtype=bool)
    dict_count = np.zeros(n, dtype=np.int64)
    bits = np.zeros(n, dtype=np.int64)
    rows = np.arange(n)
    for col in range(n_words):
        word = words[:, col]
        is_zero = word == 0
        full = ((dictionary == word[:, None]) & dict_valid).any(axis=1)
        high3 = (
            ((dictionary >> np.uint32(8)) == (word >> np.uint32(8))[:, None])
            & dict_valid
        ).any(axis=1)
        high2 = (
            ((dictionary >> np.uint32(16)) == (word >> np.uint32(16))[:, None])
            & dict_valid
        ).any(axis=1)
        # Priority mirrors cpack._encode_word: zero, full match, byte
        # zero-extension, then partial dictionary matches by cost (an
        # mmmb match at 16 bits always beats mmbb at 24).
        bits += np.select(
            [is_zero, full, word <= 0xFF, high3, high2],
            [2, 6, 12, 16, 24],
            default=34,
        )
        push = ~(is_zero | full)
        push_rows = rows[push]
        push_slots = dict_count[push]
        dictionary[push_rows, push_slots] = word[push]
        dict_valid[push_rows, push_slots] = True
        dict_count[push] += 1
    size = (bits + 7) // 8
    return np.where(size >= LINE_BYTES, LINE_BYTES, size)


#: Codec name -> vectorised size kernel, for the codecs that have one
#: (SC2 trains on cache contents and the zero codec is trivial; both
#: stay scalar in repro.compression.stats).
SIZE_KERNELS = {
    "bdi": bdi_size_bytes,
    "fpc": fpc_size_bytes,
    "cpack": cpack_size_bytes,
}


def size_histogram(kernel, lines: Sequence[bytes]) -> tuple[tuple[int, int], ...]:
    """((size_bytes, count), ...) over ``lines``, sorted by size."""
    sizes, counts = np.unique(kernel(lines_matrix(lines)), return_counts=True)
    return tuple(zip(sizes.tolist(), counts.tolist()))


# ----------------------------------------------------------------------
# Address-hash kernel (repro.workloads.datagen.LineDataModel)
# ----------------------------------------------------------------------


def ring_bases(addrs, seed: int, ring_size: int) -> "tuple[np.ndarray, np.ndarray]":
    """(distinct addresses, ``_mix(addr ^ seed) % ring_size``) for a trace.

    ``addrs`` is anything the buffer protocol exposes as int64 (a
    trace's ``addrs`` column).  One vectorised pass replaces millions of
    scalar hash evaluations with one per *distinct* line address.
    """
    unique = np.unique(np.frombuffer(addrs, dtype=np.int64))
    mixed = unique.astype(np.uint64) ^ np.uint64(seed & 0xFFFF_FFFF_FFFF_FFFF)
    mixed = mixed * np.uint64(_HASH_MULT)  # wraps mod 2^64, like the scalar mask
    mixed ^= mixed >> np.uint64(29)
    return unique, (mixed % np.uint64(ring_size)).astype(np.int64)
