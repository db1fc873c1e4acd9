"""Per-codec compressed-size statistics for observability.

Pekhimenko-style analyses (and Section VI.A of the Base-Victim paper)
explain capacity results through the *distribution* of compressed block
sizes, not just its mean.  This module compresses a workload's palette
lines with every registered algorithm and publishes one size histogram
per codec into a :class:`~repro.obs.registry.CounterRegistry`.

The histograms depend only on the palette bytes, which are a pure
function of (category, compressibility class, seed) — so results are
memoised per palette and identical across worker processes, keeping the
parallel engine's byte-identity guarantee intact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

from repro.compression import ALGORITHMS, kernels, make_compressor


@lru_cache(maxsize=256)
def _size_histograms(lines: tuple[bytes, ...]) -> tuple[tuple[str, tuple[tuple[int, int], ...]], ...]:
    """(codec name, ((size_bytes, count), ...)) per registered algorithm.

    Codecs with a vectorised size kernel (BDI/FPC/C-Pack) reconstruct
    their histogram from one kernel pass; SC2 (which trains on the line
    set) and the zero codec stay scalar.  Kernel and scalar sizes are
    byte-identical (tests/compression/test_kernels.py).
    """
    out = []
    for name in sorted(ALGORITHMS):
        kernel = kernels.SIZE_KERNELS.get(name)
        if kernel is not None:
            out.append((name, kernels.size_histogram(kernel, lines)))
            continue
        compressor = make_compressor(name)
        train = getattr(compressor, "train", None)
        if callable(train):
            # SC2-style codecs train on cache contents before compressing.
            train(list(lines))
        counts: dict[int, int] = {}
        for data in lines:
            size = compressor.compress(data).size_bytes
            counts[size] = counts.get(size, 0) + 1
        out.append((name, tuple(sorted(counts.items()))))
    return tuple(out)


def codec_size_histograms(lines: Iterable[bytes]) -> dict[str, dict[int, int]]:
    """Compressed-size histogram (bytes -> line count) per codec."""
    return {
        name: dict(buckets)
        for name, buckets in _size_histograms(tuple(lines))
    }


def publish_codec_histograms(registry, lines: Sequence[bytes]) -> None:
    """Publish per-codec size histograms under ``codec/<name>/size_bytes``."""
    if not lines:
        return
    for name, buckets in _size_histograms(tuple(lines)):
        histogram = registry.histogram(f"codec/{name}/size_bytes")
        for size, count in buckets:
            histogram.observe(size, count)
