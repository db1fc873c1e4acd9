"""In-memory spans around calls into the program's public functions.

A span records a name, start, end, the span that caused it and the run
it belongs to.  Spans stay in memory and are written out once, when the
traced run ends.  Wrapping happens from outside ``src/``: :meth:`Spans.wrap`
replaces a function in every namespace that looks it up, and
:meth:`Spans.restore` puts the originals back.

Self time is a span's duration minus the part of that interval its
children cover, so nested calls into one layer are never counted twice.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Columns of one span record.
FIELDS = ("id", "name", "start", "end", "parent", "run")


class Spans:
    """Span recorder; parents are tracked per thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((span_id, name, start, end, parent, self.run_id))

    def wrap(self, name: str, owner: object, attr: str, *also: object) -> None:
        """Time every call to ``owner.attr`` as a span called ``name``.

        ``also`` lists further modules that imported the same function by
        name; the wrapper replaces it there too.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        for target in (owner, *also):
            self._patches.append((target, attr, getattr(target, attr)))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: ``{"fields": [...], "spans": [[...], ...]}``."""
        path.write_text(json.dumps({"fields": FIELDS, "spans": self.records}))


def install(spans: Spans) -> None:
    """Wrap the public calls into each layer; span names are the layers."""
    from repro.serve import client, protocol, scheduler
    from repro.sim import (
        experiment,
        figures,
        metrics,
        multi_core,
        parallel,
        resultcache,
        single_core,
    )
    from repro.workloads import datagen, suite

    spans.wrap("workloads.suite.trace", suite.TraceSuite, "trace")
    spans.wrap("workloads.datagen.size_tables", suite.TraceSuite, "data_model")
    spans.wrap(
        "workloads.datagen.size_tables", datagen.LineDataModel, "prime_size_memo"
    )
    spans.wrap(
        "sim.single_core.simulate_trace",
        single_core,
        "simulate_trace",
        parallel,
        experiment,
    )
    spans.wrap(
        "sim.multi_core.simulate_mix", multi_core, "simulate_mix", parallel, experiment
    )
    spans.wrap("sim.resultcache.load", resultcache, "load_cache_entries", experiment)
    spans.wrap(
        "sim.resultcache.append", resultcache, "append_cache_entries", experiment
    )
    spans.wrap(
        "sim.resultcache.canonicalize",
        resultcache,
        "canonicalize_cache_file",
        scheduler,
    )
    for method in (
        "__init__",
        "prewarm",
        "run_single",
        "run_many",
        "run_mix",
        "run_mixes",
        "run_pair",
    ):
        spans.wrap("sim.experiment", experiment.ExperimentRunner, method)
    for function in ("ipc_ratio", "dram_read_ratio", "weighted_speedup", "geomean"):
        spans.wrap("sim.report", metrics, function)
    spans.wrap("sim.report", figures, "write_series_csv")
    spans.wrap("serve.protocol", protocol, "encode_frame")
    spans.wrap("serve.protocol", protocol, "decode_frame")
    spans.wrap("serve.scheduler", scheduler.JobScheduler, "submit")
    spans.wrap("serve.client.wait", client.ServeClient, "poll_event")


def load(path: Path) -> list[tuple]:
    """Spans written by :meth:`Spans.dump`."""
    return [tuple(row) for row in json.loads(path.read_text())["spans"]]


def self_times(records: list[tuple]) -> dict[tuple[str, int], float]:
    """(run, span id) -> duration minus the union of its children's intervals.

    Ids are unique within a run only, so spans merged from several
    processes are told apart by their run id.
    """
    children: dict[tuple[str, int], list[tuple[float, float]]] = {}
    for _, _, start, end, parent, run in records:
        if parent:
            children.setdefault((run, parent), []).append((start, end))
    result = {}
    for span_id, _, start, end, _, run in records:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get((run, span_id), ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[(run, span_id)] = (end - start) - covered
    return result


def by_name(records: list[tuple]) -> dict[str, tuple[int, float]]:
    """Span name -> (calls, total self time in seconds)."""
    selfs = self_times(records)
    totals: dict[str, tuple[int, float]] = {}
    for span_id, name, _, _, _, run in records:
        calls, busy = totals.get(name, (0, 0.0))
        totals[name] = (calls + 1, busy + selfs[(run, span_id)])
    return totals
