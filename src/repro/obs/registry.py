"""Hierarchical counter registry with deterministic serialisation.

Three metric kinds cover everything the paper's analyses need:

* :class:`Counter` — a monotonically growing integer (hits, demotions,
  partner victimizations…).  Merges across shards by summation.
* :class:`Histogram` — integer-bucketed value counts (victim-cache
  occupancy samples, per-codec compressed sizes).  Merges bucketwise.
* :class:`Timer` — accumulated wall-clock seconds for a phase.  Timers
  are *excluded* from the deterministic serialised form: wall time is
  not a pure function of (preset, machine, trace), and including it
  would break the ``jobs=1`` / ``jobs=4`` byte-identity guarantee the
  result cache depends on.  ``repro stats`` reports the live process's
  timers separately.

Metric names are hierarchical ``/``-separated paths ("llc/victim_hits",
"codec/bdi/size_bytes"); :meth:`CounterRegistry.scoped` gives a
publisher a view that prefixes everything it records.

Serialised observations are plain dicts — ``{name: {"kind": ...,
...}}`` — so they travel inside the JSONL result cache unchanged, and
:func:`merge_observations` aggregates them across traces, shards or
whole sweeps with per-kind merge semantics.

Long-lived components (``repro serve``, ``repro dispatch``) are separate
processes, so their counters reach a later ``repro stats`` through a
snapshot file in the cache directory, ``<component>-stats.json``:
:meth:`CounterRegistry.write_snapshot` rewrites it atomically and
:func:`load_snapshots` reads every one back.  A snapshot is the
post-mortem view of what the component did, readable after it exited.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Iterable, Mapping

#: ``<component>`` + this suffix names a component's snapshot file.
SNAPSHOT_SUFFIX = "-stats.json"


class MetricKindError(TypeError):
    """A metric name was used with two different kinds."""


class Counter:
    """Sum-merged integer metric."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Add ``amount`` to the counter."""
        self.value += amount

    def as_dict(self) -> dict:
        """Serialisable (JSON-safe) representation."""
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Bucketwise-merged integer-valued histogram."""

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}

    def observe(self, value: int, count: int = 1) -> None:
        """Record ``count`` samples of ``value``."""
        self.buckets[value] = self.buckets.get(value, 0) + count

    @property
    def total(self) -> int:
        """Total samples recorded across all buckets."""
        return sum(self.buckets.values())

    def as_dict(self) -> dict:
        # JSON objects key on strings; sort numerically so the
        # serialised form is canonical regardless of insertion order.
        """Serialisable (JSON-safe) representation."""
        return {
            "kind": self.kind,
            "buckets": {str(k): self.buckets[k] for k in sorted(self.buckets)},
        }


class Timer:
    """Accumulated wall-clock seconds; excluded from serialisation."""

    kind = "timer"
    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds += time.perf_counter() - self._started

    def as_dict(self) -> dict:
        """Serialisable (JSON-safe) representation."""
        return {"kind": self.kind, "seconds": self.seconds}


class CounterRegistry:
    """Namespace of named metrics that simulation layers publish into."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram | Timer] = {}

    def _get(self, name: str, cls: type) -> object:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls()
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricKindError(
                f"metric {name!r} is a {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._get(name, Counter)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._get(name, Histogram)  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        """Get or create the named timer."""
        return self._get(name, Timer)  # type: ignore[return-value]

    def inc(self, name: str, amount: int = 1) -> None:
        """Shorthand: bump the counter ``name``."""
        self.counter(name).add(amount)

    def observe(self, name: str, value: int, count: int = 1) -> None:
        """Shorthand: record one histogram observation."""
        self.histogram(name).observe(value, count)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view that prefixes every metric name with ``prefix/``."""
        return ScopedRegistry(self, prefix)

    @property
    def timers(self) -> dict[str, float]:
        """Live timer values (seconds) by name; not serialised."""
        return {
            name: metric.seconds
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Timer)
        }

    def as_dict(self) -> dict:
        """Deterministic serialised form: sorted names, no timers."""
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
            if not isinstance(metric, Timer)
        }

    def write_snapshot(self, cache_dir: Path, component: str, **fields) -> None:
        """Atomically (re)write ``<component>-stats.json`` in ``cache_dir``.

        The payload is ``fields`` plus this registry's ``counters``
        (:meth:`as_dict`) and live ``timers``.  Temp file plus
        ``os.replace`` in the same directory, so readers see the old
        snapshot or the new one, never a torn hybrid.  An ``OSError`` is
        swallowed: observability must never take its component down.
        """
        path = Path(cache_dir) / f"{component}{SNAPSHOT_SUFFIX}"
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        payload = {**fields, "counters": self.as_dict(), "timers": self.timers}
        with contextlib.suppress(OSError):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)


class ScopedRegistry:
    """Prefixing view over a :class:`CounterRegistry`."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: CounterRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip("/")

    def _name(self, name: str) -> str:
        return f"{self._prefix}/{name}"

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        return self._registry.counter(self._name(name))

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        return self._registry.histogram(self._name(name))

    def timer(self, name: str) -> Timer:
        """Get or create the named timer."""
        return self._registry.timer(self._name(name))

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump the named counter."""
        self._registry.inc(self._name(name), amount)

    def observe(self, name: str, value: int, count: int = 1) -> None:
        """Record ``count`` samples of ``value``."""
        self._registry.observe(self._name(name), value, count)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A registry view nested one prefix deeper."""
        return ScopedRegistry(self._registry, self._name(prefix))


def load_snapshots(cache_dir: Path) -> dict[str, dict]:
    """Every readable ``<component>-stats.json`` in ``cache_dir``, by component.

    A corrupt snapshot is treated as absent: it is an observability
    artifact, never load-bearing state, so tolerating rot beats failing
    a stats report over it.
    """
    snapshots = {}
    for path in sorted(Path(cache_dir).glob(f"*{SNAPSHOT_SUFFIX}")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            snapshots[path.name.removesuffix(SNAPSHOT_SUFFIX)] = payload
    return snapshots


def merge_observations(observations: Iterable[Mapping]) -> dict:
    """Merge serialised observation dicts with per-kind semantics.

    Counters sum; histograms sum bucketwise (disjoint buckets union);
    an empty iterable or empty member dicts (a shard that published
    nothing) contribute nothing.  Serialised timers — which
    :meth:`CounterRegistry.as_dict` never emits — are rejected, as is
    any kind mismatch between shards, since silently coercing either
    would corrupt the aggregate.
    """
    merged: dict[str, dict] = {}
    for obs in observations:
        for name, metric in obs.items():
            kind = metric.get("kind")
            if kind not in ("counter", "histogram"):
                raise MetricKindError(
                    f"metric {name!r} has unmergeable kind {kind!r}"
                )
            current = merged.get(name)
            if current is None:
                if kind == "counter":
                    merged[name] = {"kind": kind, "value": metric["value"]}
                else:
                    merged[name] = {
                        "kind": kind,
                        "buckets": dict(metric["buckets"]),
                    }
                continue
            if current["kind"] != kind:
                raise MetricKindError(
                    f"metric {name!r} is a {current['kind']} in one shard "
                    f"and a {kind} in another"
                )
            if kind == "counter":
                current["value"] += metric["value"]
            else:
                buckets = current["buckets"]
                for bucket, count in metric["buckets"].items():
                    buckets[bucket] = buckets.get(bucket, 0) + count
    # Canonical ordering: sorted names, numerically sorted bucket keys.
    out: dict[str, dict] = {}
    for name in sorted(merged):
        metric = merged[name]
        if metric["kind"] == "histogram":
            metric = {
                "kind": "histogram",
                "buckets": {
                    key: metric["buckets"][key]
                    for key in sorted(metric["buckets"], key=_bucket_sort_key)
                },
            }
        out[name] = metric
    return out


def _bucket_sort_key(key: str) -> tuple[int, int | str]:
    try:
        return (0, int(key))
    except ValueError:
        return (1, key)
