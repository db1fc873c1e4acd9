"""Bounded per-process cache of generated traces and derived size tables.

Every cell of a sweep pays two fixed costs before its first simulated
access: generating the trace, and precomputing the codec size tables
the compressed-LLC fast path reads (see
:mod:`repro.compression.kernels`).  Both are pure functions of their
inputs — a synthetic trace of (suite version, preset, name), size
tables of (trace addresses, seed, palette) — so a sweep that visits the
same trace once per machine configuration recomputes identical values
many times over.

:class:`TraceCache` memo-izes those loads process-wide behind an LRU
bound.  One instance per process (:func:`process_cache`) is shared by
every :class:`~repro.workloads.suite.TraceSuite` — the experiment
runner's, each ``parallel.py`` worker's, the serve scheduler's, and the
one ``perfbench`` builds per measurement — so reuse spans suite
instances, not just calls on one suite.  Entries are keyed by
namespaced tuples:

* ``("trace", SUITE_VERSION, reference_llc_lines, length, name)`` —
  a generated :class:`~repro.workloads.trace.Trace`.
* ``("sizes", SUITE_VERSION, reference_llc_lines, length, name)`` —
  the ``(ring_bases, version-0 sizes)`` pair from
  :meth:`~repro.workloads.datagen.LineDataModel.precompute_size_tables`.

Cached values must be treated as immutable by consumers; the one
sanctioned exception is the ring-base dict inside a ``"sizes"`` entry,
whose lazy inserts are idempotent (each entry is a pure function of the
address — see :meth:`LineDataModel.adopt_size_tables`).

The cache is deliberately *not* shared across processes: worker
processes each hold their own (the pool initializer builds one suite
per worker, so per-worker reuse is exactly what parallel sweeps need),
and nothing here requires locking.  ``repro stats`` surfaces the
``trace_cache/hits|misses|evictions`` counters and the
``trace/load_seconds`` timer from :meth:`TraceCache.snapshot`.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Callable

#: Default LRU bound.  A paper-preset trace holds three 1.5M-element
#: columns (about 19 MiB), so an unbounded cache could swallow the host's
#: memory on a 100-trace sweep; 128 entries covers a full bench-preset
#: matrix (trace + size-table entry per cell) with room to spare.
DEFAULT_MAX_ENTRIES = 128

#: Environment override for the bound.  This cache is the only memo of
#: generated traces and size tables, so the bound limits everything a
#: process keeps of them; ``0`` keeps nothing.
MAX_ENTRIES_ENV = "REPRO_TRACE_CACHE_ENTRIES"


class TraceCache:
    """Process-local LRU memo for trace loads and size-table builds."""

    __slots__ = (
        "max_entries",
        "_entries",
        "stat_hits",
        "stat_misses",
        "stat_evictions",
        "stat_load_seconds",
    )

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_evictions = 0
        #: Wall seconds spent inside loaders (i.e. the cost the cache
        #: exists to amortize); feeds the ``trace/load_seconds`` timer.
        self.stat_load_seconds = 0.0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, loader: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, loading it on a miss.

        ``loader`` runs at most once per resident key; its wall time is
        accumulated into :attr:`stat_load_seconds` whether or not the
        result is retained (a zero-entry cache still measures load cost).
        """
        entries = self._entries
        value = entries.get(key, _MISSING)
        if value is not _MISSING:
            entries.move_to_end(key)
            self.stat_hits += 1
            return value
        self.stat_misses += 1
        started = time.perf_counter()
        value = loader()
        self.stat_load_seconds += time.perf_counter() - started
        if self.max_entries == 0:
            return value
        entries[key] = value
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
            self.stat_evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry; counters keep their lifetime totals."""
        self._entries.clear()

    def snapshot(self) -> dict:
        """JSON-safe counter snapshot for ``repro stats``."""
        return {
            "hits": self.stat_hits,
            "misses": self.stat_misses,
            "evictions": self.stat_evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "load_seconds": self.stat_load_seconds,
        }


_MISSING = object()

_PROCESS_CACHE: TraceCache | None = None


def process_cache() -> TraceCache:
    """The process-wide :class:`TraceCache` singleton.

    Created on first use; the LRU bound honors ``$REPRO_TRACE_CACHE_ENTRIES``
    at creation time (later environment changes are ignored).  A value
    that is not an integer raises ``ValueError``, like ``$REPRO_JOBS``.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        raw = os.environ.get(MAX_ENTRIES_ENV, "").strip()
        bound = DEFAULT_MAX_ENTRIES
        if raw:
            try:
                bound = max(0, int(raw))
            except ValueError:
                raise ValueError(
                    f"${MAX_ENTRIES_ENV} must be an integer, got {raw!r}"
                ) from None
        _PROCESS_CACHE = TraceCache(bound)
    return _PROCESS_CACHE


def reset_process_cache() -> None:
    """Discard the singleton (tests; also resets its counters)."""
    global _PROCESS_CACHE
    _PROCESS_CACHE = None

