"""Report formatting for experiments.

Turns run results into the paper's presentation units: sorted per-trace
ratio series (the line graphs of Figures 6-8 and 12), per-category
averages (Figures 9-11), and summary rows with loser counts and extreme
outliers — plus the operational side of a sweep: failed-cell tables and
the ``sweep/*`` health counters, so a degraded run accounts for every
cell instead of pretending it was complete.  Everything returns plain
strings so benches can ``print`` and tests can assert on structure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.sim.metrics import count_losers, geomean
from repro.sim.retry import FailedCell
from repro.sim.single_core import RunResult
from repro.workloads.suite import CATEGORIES, all_specs


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def ratio_series_summary(
    title: str,
    ipc_ratios: Mapping[str, float],
    read_ratios: Mapping[str, float] | None = None,
) -> str:
    """Summary of a sorted per-trace ratio series (one paper line graph)."""
    ratios = sorted(ipc_ratios.values())
    lines = [title]
    lines.append(
        f"  traces={len(ratios)}  geomean={geomean(ratios):.4f}  "
        f"min={ratios[0]:.4f}  max={ratios[-1]:.4f}  "
        f"losers(<1.0)={count_losers(ratios)}"
    )
    if read_ratios is not None:
        reads = sorted(read_ratios.values())
        lines.append(
            f"  DRAM read ratio: geomean={geomean(reads):.4f}  "
            f"min={reads[0]:.4f}  max={reads[-1]:.4f}"
        )
    # A compact textual rendering of the sorted series.
    step = max(1, len(ratios) // 12)
    sampled = ", ".join(f"{r:.3f}" for r in ratios[::step])
    lines.append(f"  sorted IPC ratios (sampled): {sampled}")
    return "\n".join(lines)


def category_of(trace_name: str) -> str:
    """Workload category for a trace name."""
    for spec in all_specs():
        if spec.name == trace_name:
            return spec.category
    raise KeyError(f"unknown trace {trace_name!r}")


def per_category_geomeans(ipc_ratios: Mapping[str, float]) -> dict[str, float]:
    """Geomean IPC ratio per workload category plus 'average' overall."""
    groups: dict[str, list[float]] = {cat: [] for cat in CATEGORIES}
    for name, ratio in ipc_ratios.items():
        groups[category_of(name)].append(ratio)
    out = {
        cat: geomean(values) for cat, values in groups.items() if values
    }
    out["average"] = geomean(ipc_ratios.values())
    return out


def category_table(
    series: Mapping[str, Mapping[str, float]], title: str
) -> str:
    """Figure-9-style table: one row per configuration, one column per category."""
    columns = list(CATEGORIES) + ["average"]
    rows = []
    for label, ipc_ratios in series.items():
        means = per_category_geomeans(ipc_ratios)
        rows.append([label] + [f"{means.get(col, float('nan')):.3f}" for col in columns])
    return title + "\n" + format_table(["config"] + columns, rows)


def hit_category_breakdown(obs: Mapping[str, Mapping]) -> dict[str, int]:
    """Where accesses were served, from serialised observability metrics.

    Returns the ``hits/*`` counters (l1, l2, llc_base, llc_victim,
    memory) published by the cache hierarchy — the Figure 9 category
    split — as plain ints, in level order.
    """
    out: dict[str, int] = {}
    for level in ("l1", "l2", "llc_base", "llc_victim", "memory"):
        metric = obs.get(f"hits/{level}")
        if metric is not None and metric.get("kind") == "counter":
            out[level] = metric["value"]
    return out


def histogram_stats(obs: Mapping[str, Mapping], name: str) -> dict[str, float]:
    """min/mean/max/samples of a serialised histogram (empty if absent)."""
    metric = obs.get(name)
    if metric is None or metric.get("kind") != "histogram" or not metric["buckets"]:
        return {}
    values = [(int(bucket), count) for bucket, count in metric["buckets"].items()]
    samples = sum(count for _, count in values)
    weighted = sum(value * count for value, count in values)
    return {
        "min": float(min(value for value, _ in values)),
        "mean": weighted / samples,
        "max": float(max(value for value, _ in values)),
        "samples": float(samples),
    }


def observability_summary(obs: Mapping[str, Mapping]) -> str:
    """Human-readable ``repro stats`` rendering of serialised metrics."""
    lines: list[str] = []
    breakdown = hit_category_breakdown(obs)
    if breakdown:
        total = sum(breakdown.values()) or 1
        lines.append("hit/miss breakdown:")
        for level, count in breakdown.items():
            lines.append(f"  {level:12s} {count:>12d}  ({count / total:6.1%})")
    occupancy = histogram_stats(obs, "llc/victim_occupancy")
    if occupancy:
        lines.append(
            "victim-cache occupancy (lines, sampled): "
            f"min={occupancy['min']:.0f} mean={occupancy['mean']:.1f} "
            f"max={occupancy['max']:.0f} over {occupancy['samples']:.0f} samples"
        )
    partner = obs.get("llc/partner_evictions")
    if partner is not None and partner.get("kind") == "counter":
        lines.append(f"partner victimizations: {partner['value']}")
    codecs = sorted(
        name.split("/")[1]
        for name in obs
        if name.startswith("codec/") and name.endswith("/size_bytes")
    )
    if codecs:
        lines.append("per-codec compressed size (bytes over palette lines):")
        for codec in codecs:
            stats = histogram_stats(obs, f"codec/{codec}/size_bytes")
            lines.append(
                f"  {codec:6s} min={stats['min']:3.0f} "
                f"mean={stats['mean']:5.1f} max={stats['max']:3.0f}"
            )
    if not lines:
        return "(no observability metrics published)"
    return "\n".join(lines)


def failed_cells_table(failures: Sequence[FailedCell]) -> str:
    """Table of sweep cells that exhausted their retry budget.

    One row per :class:`~repro.sim.retry.FailedCell`: the cache key,
    exception type, attempts made and wall time burned — the provenance
    a degraded sweep owes the operator for every missing cell.
    """
    return format_table(
        ["cell", "error", "attempts", "elapsed"],
        [
            [f.key, f.error, str(f.attempts), f"{f.elapsed:.2f}s"]
            for f in failures
        ],
    )


def sweep_health_summary(counters: Mapping[str, Mapping]) -> str:
    """One line of sweep/cache health counters from a serialised registry.

    Accepts :meth:`~repro.obs.registry.CounterRegistry.as_dict` output;
    counters that never fired print as 0 so the line's shape is stable.
    Covers the fault-tolerance counters (``sweep/*``) and the
    persistence-layer ones (``cache/*``: lock contention and checksum
    rejections).
    """
    names = (
        ("retries", "sweep/retries"),
        ("failures", "sweep/failures"),
        ("recovered workers", "sweep/recovered_workers"),
        ("cells recovered from crashed pools", "sweep/cache_recovered"),
        ("corrupt cache lines skipped", "sweep/corrupt_lines"),
        ("lock waits", "cache/lock_waits"),
        ("lock timeouts", "cache/lock_timeouts"),
        ("CRC failures", "cache/crc_failures"),
    )
    values = []
    for label, name in names:
        metric = counters.get(name)
        value = metric["value"] if metric and metric.get("kind") == "counter" else 0
        values.append(f"{label}: {value}")
    return "  ".join(values)


def dispatch_health_summary(counters: Mapping[str, Mapping]) -> str:
    """One line of dispatch crash-safety counters from a serialised registry.

    The ``dist/*`` companion to :func:`sweep_health_summary`: leases,
    streaming partial folds, heartbeat misses, resumes/salvage and
    stale-shard reclaims — the counters an operator reads after a
    crashy distributed sweep to see what the machinery absorbed.
    Counters that never fired print as 0 so the line's shape is stable.
    """
    names = (
        ("leases", "dist/leases"),
        ("partial folds", "dist/folds_partial"),
        ("heartbeats missed", "dist/heartbeats_missed"),
        ("resumes", "dist/resumes"),
        ("cells salvaged", "dist/jobs_salvaged"),
        ("stale shards reclaimed", "dist/stale_shards_reclaimed"),
        ("workers lost", "dist/workers_lost"),
        ("jobs reassigned", "dist/jobs_reassigned"),
        ("duplicates", "dist/duplicate_results"),
    )
    values = []
    for label, name in names:
        metric = counters.get(name)
        value = metric["value"] if metric and metric.get("kind") == "counter" else 0
        values.append(f"{label}: {value}")
    return "  ".join(values)


def traffic_summary(runs: Sequence[RunResult], baselines: Sequence[RunResult]) -> str:
    """Section VI.D traffic rows: reads, writes, bandwidth, LLC accesses."""
    reads = sum(r.memory_reads for r in runs) / max(
        1, sum(b.memory_reads for b in baselines)
    )
    writes = sum(r.memory_writes for r in runs) / max(
        1, sum(b.memory_writes for b in baselines)
    )
    total = sum(r.memory_reads + r.memory_writes for r in runs) / max(
        1, sum(b.memory_reads + b.memory_writes for b in baselines)
    )
    # The paper's "+31% additional accesses to LLC" counts data-array
    # operations including base<->victim migrations, which our results
    # expose as data_reads/data_writes.
    llc = sum(r.llc_data_reads + r.llc_data_writes for r in runs) / max(
        1, sum(b.llc_data_reads + b.llc_data_writes for b in baselines)
    )
    return (
        f"  DRAM reads ratio:        {reads:.3f}\n"
        f"  DRAM writes ratio:       {writes:.3f}\n"
        f"  DRAM bandwidth ratio:    {total:.3f}\n"
        f"  LLC data-array op ratio: {llc:.3f}"
    )
