"""Structured observability for the simulator.

The simulation layers publish their counters into a hierarchical
:class:`~repro.obs.registry.CounterRegistry` at the end of every run:
the cache hierarchy (hit/miss breakdown by level), the Base-Victim LLC
(partner victimization, demotions, victim-cache occupancy), the victim
insertion policy, and the compression codecs (per-codec compressed-size
histograms).  The registry serialises deterministically into the JSONL
result cache, merges across parallel worker shards with per-kind
semantics (:func:`~repro.obs.registry.merge_observations`), and surfaces
through ``repro stats`` / ``repro stats --json``.

Opt-in tracing (:mod:`repro.obs.tracing`, ``repro stats
--trace-events``) records a bounded window of per-access events for
diagnosing golden-figure mismatches without a debugger.
"""

from repro.obs.registry import (
    Counter,
    CounterRegistry,
    Histogram,
    MetricKindError,
    Timer,
    merge_observations,
)
from repro.obs.tracing import TRACE_FILE_ENV, TRACE_LIMIT_ENV, TraceRecorder

__all__ = [
    "Counter",
    "CounterRegistry",
    "Histogram",
    "MetricKindError",
    "Timer",
    "TraceRecorder",
    "TRACE_FILE_ENV",
    "TRACE_LIMIT_ENV",
    "merge_observations",
]
