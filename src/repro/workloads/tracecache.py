"""Bounded per-process memo of generated traces.

Every cell of a sweep pays a fixed cost before its first simulated
access: generating its trace.  A synthetic trace is a pure function of
(suite version, preset, name), so a batch that visits the same trace
once per machine configuration would regenerate identical columns for
every cell.

:class:`TraceCache` memo-izes those loads behind an LRU bound.  One
instance per process (:func:`process_cache`) is shared by every
:class:`~repro.workloads.suite.TraceSuite`, keyed by
``(SUITE_VERSION, reference_llc_lines, length, name)``; each value is
a :class:`~repro.workloads.trace.Trace` that consumers treat as
immutable.

The memo lives for one batch.
:meth:`~repro.sim.experiment.ExperimentRunner.prewarm` — the batch
primitive behind ``repro sweep``, the runner's ``run_pair``,
``run_many`` and ``run_mixes``, serve batches and dispatch leases —
empties it when the batch ends, raising or not, so a batch generates
each trace once and a long-lived process keeps none between batches.
Size tables are not memoised: each run builds its own
(:meth:`~repro.workloads.datagen.LineDataModel.prime_size_memo`).

The cache is deliberately *not* shared across processes: each
``parallel.py`` worker holds its own for the pool's lifetime, which is
one batch, and nothing here requires locking.  ``repro stats`` surfaces
the ``trace_cache/hits|misses|evictions`` counters and the
``trace/load_seconds`` timer (time spent generating traces) from
:meth:`TraceCache.snapshot`.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from typing import Any, Callable

#: Default LRU bound.  A paper-preset trace holds three 1.5M-element
#: columns (about 19 MiB), so an unbounded cache could swallow the host's
#: memory on a 100-trace batch; 128 entries holds every trace of the
#: 100-trace suite at one preset.
DEFAULT_MAX_ENTRIES = 128

#: Environment override for the bound.  This cache is the only memo of
#: generated traces, so the bound limits everything one batch keeps of
#: them; ``0`` keeps nothing.
MAX_ENTRIES_ENV = "REPRO_TRACE_CACHE_ENTRIES"


class TraceCache:
    """Process-local LRU memo for generated traces."""

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
        #: Wall seconds spent inside loaders (trace generation, the cost
        #: the cache exists to amortize); feeds ``trace/load_seconds``.
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

