"""Perf-benchmark subsystem: simulation throughput as a tracked metric.

The ROADMAP's "as fast as the hardware allows" axis needs a number
attached to it: this module measures single-worker engine throughput
(demand accesses simulated per wall-clock second) over a fixed
(machine, trace) matrix, so inner-loop optimisations are observable and
regressions are caught by CI instead of being discovered months later in
a 60-trace sweep that suddenly takes an afternoon.

Two entry points share this engine:

* ``repro perf`` — the CLI subcommand for interactive measurement,
  profiling (``--profile``) and CI's perf-smoke gate (``--check``);
* :func:`check_regression` — the gate comparing a fresh measurement
  against the committed ``BENCH_PERF.json`` baseline.

Throughput is measured around :func:`~repro.sim.single_core
.simulate_trace` only (``--jobs 1`` semantics): the parallel sweep
engine multiplies whatever single-worker speed this reports, so this is
the number every perf PR must move.  Each (machine, trace) cell runs
``repeats`` times on a fresh data model and keeps the *best* run —
wall-clock noise only ever slows a run down, so the minimum is the most
stable estimator.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.obs.registry import CounterRegistry
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, MachineConfig, Preset
from repro.sim.engine import ENGINE_ENV, ENGINES, resolve_engine
from repro.sim.single_core import simulate_trace
from repro.workloads.suite import TraceSuite

#: Schema version of the BENCH_PERF.json payloads.
SCHEMA_VERSION = 1

#: Default measurement matrix: the two Figure 8 machines over one trace
#: per workload category (the same four traces as the golden fixture).
DEFAULT_MACHINES: tuple[MachineConfig, ...] = (BASELINE_2MB, BASE_VICTIM_2MB)

#: ``--machine`` row names accepted by the CLI.
PERF_MACHINES: dict[str, MachineConfig] = {
    "baseline": BASELINE_2MB,
    "base-victim": BASE_VICTIM_2MB,
}
DEFAULT_TRACES: tuple[str, ...] = ("3dmark.1", "lbm.1", "mcf.1", "sysmark.1")

#: Two-trace slice used by the CI ``perf-smoke`` job (one hit-heavy, one
#: miss-heavy trace, so both engine paths are exercised).
CI_TRACES: tuple[str, ...] = ("mcf.1", "sjeng.1")

#: CI regression gate: fail when throughput drops by more than this
#: fraction versus the committed baseline.  Deliberately generous to
#: absorb shared-runner noise; tighten only with dedicated hardware.
DEFAULT_MAX_REGRESSION = 0.30


def host_meta() -> dict:
    """Host fingerprint recorded next to every measurement."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def measure_matrix(
    preset: Preset,
    machines: Sequence[MachineConfig] = DEFAULT_MACHINES,
    trace_names: Sequence[str] = DEFAULT_TRACES,
    repeats: int = 3,
    progress=None,
    engine: str | None = None,
) -> dict:
    """Measure accesses/sec for every (machine, trace) cell.

    Returns a plain-dict payload (see module docstring) ready for JSON
    serialisation.  ``progress``, if given, is called as
    ``progress(done, total, label)`` after each cell.

    ``engine`` selects the inner loop (``None`` = ``$REPRO_ENGINE`` or
    the default); the *requested* engine name is recorded in the payload
    so :func:`check_regression` can refuse cross-engine comparisons — a
    perf regression must never hide behind an engine switch.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    engine_name = resolve_engine(engine)
    suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
    entries: list[dict] = []
    total = len(machines) * len(trace_names)
    done = 0
    for machine in machines:
        for name in trace_names:
            trace = suite.trace(name)  # generated once, reused across repeats
            best_seconds = float("inf")
            best_phases: dict[str, float] = {}
            accesses = 0
            for _ in range(repeats):
                # Fresh data model per repeat: stores mutate it, and the
                # measurement must be of identical work every time.
                data = suite.data_model(name)
                registry = CounterRegistry()
                started = time.perf_counter()
                result = simulate_trace(
                    trace, data, machine, preset, registry=registry,
                    engine=engine_name,
                )
                elapsed = time.perf_counter() - started
                accesses = result.accesses
                if elapsed < best_seconds:
                    best_seconds = elapsed
                    best_phases = {
                        key.removeprefix("phase/"): seconds
                        for key, seconds in registry.timers.items()
                        if key.startswith("phase/")
                    }
            entries.append(
                {
                    "machine": machine.label,
                    "trace": name,
                    "accesses": accesses,
                    "best_seconds": best_seconds,
                    "accesses_per_sec": accesses / best_seconds,
                    "phase_seconds": best_phases,
                }
            )
            done += 1
            if progress is not None:
                progress(done, total, f"{machine.label}|{name}")
    total_accesses = sum(entry["accesses"] for entry in entries)
    total_seconds = sum(entry["best_seconds"] for entry in entries)
    return {
        "schema": SCHEMA_VERSION,
        "preset": preset.name,
        "trace_length": preset.trace_length,
        "repeats": repeats,
        "jobs": 1,
        "engine": engine_name,
        "host": host_meta(),
        "entries": entries,
        "aggregate": {
            "accesses": total_accesses,
            "seconds": total_seconds,
            "accesses_per_sec": total_accesses / total_seconds,
        },
    }


def aggregate_rate(payload: dict) -> float:
    """Aggregate accesses/sec of one measurement payload."""
    return float(payload["aggregate"]["accesses_per_sec"])


def payload_engine(payload: dict) -> str | None:
    """Engine a measurement payload was taken with (None if unrecorded)."""
    return payload.get("engine")


def check_regression(
    current: dict,
    baseline: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
) -> list[str]:
    """Compare a fresh measurement against a baseline payload.

    Returns a list of human-readable problems (empty = gate passes).
    Only the aggregate rate is gated — per-cell rates are far noisier —
    but cells slower than the allowance are reported as context.

    Payloads measured with different engines are never compared: the
    gate refuses outright, so a regression in one engine cannot hide
    behind a faster engine's baseline (or vice versa).
    """
    problems: list[str] = []
    for label, payload in (("measurement", current), ("baseline", baseline)):
        if payload.get("profiled"):
            problems.append(
                f"{label} was taken under cProfile (--profile); profiled "
                f"timings are not comparable throughput"
            )
    if problems:
        return problems
    current_engine = payload_engine(current)
    baseline_engine = payload_engine(baseline)
    if current_engine != baseline_engine:
        problems.append(
            f"engine mismatch: measurement used {current_engine!r} but the "
            f"baseline was taken with {baseline_engine!r}; re-baseline or "
            f"re-measure with the same engine (cross-engine throughput "
            f"comparisons are refused)"
        )
        return problems
    floor = aggregate_rate(baseline) * (1.0 - max_regression)
    rate = aggregate_rate(current)
    if rate < floor:
        problems.append(
            f"aggregate throughput regressed: {rate:,.0f} accesses/sec vs "
            f"baseline {aggregate_rate(baseline):,.0f} "
            f"(floor {floor:,.0f} at -{max_regression:.0%})"
        )
        baseline_cells = {
            (entry["machine"], entry["trace"]): entry["accesses_per_sec"]
            for entry in baseline.get("entries", ())
        }
        for entry in current.get("entries", ()):
            key = (entry["machine"], entry["trace"])
            reference = baseline_cells.get(key)
            if reference and entry["accesses_per_sec"] < reference * (
                1.0 - max_regression
            ):
                problems.append(
                    f"  cell {key[0]}|{key[1]}: "
                    f"{entry['accesses_per_sec']:,.0f} vs {reference:,.0f}"
                )
    return problems


def _payload_problem(payload: object) -> str | None:
    """Why ``payload`` is not a measurement to gate on (None if it is)."""
    if not isinstance(payload, dict):
        return f"expected a measurement object, got {type(payload).__name__}"
    if payload.get("engine") not in ENGINES:
        return (
            f"engine {payload.get('engine')!r} is not one of "
            f"{', '.join(ENGINES)}"
        )
    if not isinstance(payload.get("entries"), list):
        return "'entries' is not a list"
    aggregate = payload.get("aggregate")
    rate = aggregate.get("accesses_per_sec") if isinstance(aggregate, dict) else None
    if type(rate) not in (int, float) or not rate > 0:
        return "'aggregate.accesses_per_sec' is not a positive number"
    return None


def load_baseline(path: Path, section: str) -> dict:
    """Load one matrix section of a committed ``BENCH_PERF.json``.

    The committed file records ``{"matrices": {section: {"before": ...,
    "after": ...}}}``; the gate compares against the ``after`` payload
    (the engine as shipped).  A bare measurement payload (no
    ``matrices`` wrapper) is accepted too, for ad-hoc comparisons.
    Either way the payload must be a measurement — an engine from
    ``ENGINES``, a list of entries and a positive aggregate rate — or
    this raises ``ValueError``; an unknown section raises ``KeyError``.
    """
    with path.open() as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "matrices" in data:
        matrices = data["matrices"]
        if not isinstance(matrices, dict):
            raise ValueError("'matrices' is not an object")
        try:
            data = matrices[section]["after"]
        except (KeyError, TypeError):
            known = ", ".join(sorted(matrices))
            raise KeyError(
                f"no section {section!r} with an 'after' payload "
                f"(known sections: {known})"
            ) from None
    problem = _payload_problem(data)
    if problem is not None:
        raise ValueError(f"not a measurement payload: {problem}")
    return data


def format_report(payload: dict) -> str:
    """Human-readable table of one measurement payload."""
    lines = [
        f"preset: {payload['preset']}   trace length: {payload['trace_length']}"
        f"   repeats: {payload['repeats']}   jobs: {payload['jobs']}"
        f"   engine: {payload_engine(payload)}",
        f"{'machine':40s} {'trace':12s} {'acc/sec':>12s} {'seconds':>9s}",
    ]
    for entry in payload["entries"]:
        lines.append(
            f"{entry['machine']:40s} {entry['trace']:12s} "
            f"{entry['accesses_per_sec']:12,.0f} {entry['best_seconds']:9.3f}"
        )
    agg = payload["aggregate"]
    lines.append(
        f"{'aggregate':53s} {agg['accesses_per_sec']:12,.0f} {agg['seconds']:9.3f}"
    )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    """Register the ``repro perf`` arguments on an argparse parser."""
    from repro.sim.config import PRESETS

    parser.add_argument("--preset", default="bench", choices=sorted(PRESETS))
    parser.add_argument(
        "--trace",
        action="append",
        dest="traces",
        metavar="NAME",
        help=f"trace to measure (repeatable; default: {', '.join(DEFAULT_TRACES)})",
    )
    parser.add_argument(
        "--machine",
        action="append",
        dest="machines",
        choices=sorted(PERF_MACHINES),
        metavar="NAME",
        help="machine row to measure (repeatable; default: both)",
    )
    parser.add_argument("--repeats", type=int, default=3, metavar="N")
    parser.add_argument(
        "--profile",
        nargs="?",
        const=25,
        default=None,
        type=int,
        metavar="N",
        help="run the matrix under cProfile and print the top N rows "
        "(default 25); profiled timings are skewed, so --check is refused "
        "and the payload is marked non-comparable",
    )
    parser.add_argument(
        "--profile-sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="cProfile sort key for the printed rows",
    )
    parser.add_argument(
        "--profile-dump",
        metavar="PATH",
        help="save the raw pstats file (snakeviz/pstats spelunking)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help=f"inner loop to measure (default: ${ENGINE_ENV} or batch); "
        "recorded in the payload so the gate refuses cross-engine comparisons",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the measurement payload as JSON"
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="gate on a committed BENCH_PERF.json (exit 1: regression, 2: unreadable)",
    )
    parser.add_argument(
        "--section",
        default="bench",
        metavar="NAME",
        help="matrix section of the baseline file to gate against (default: bench)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        metavar="FRAC",
        help="allowed fractional slowdown before the gate fails (default: 0.30)",
    )


def run(args) -> int:
    """Execute a parsed ``repro perf`` invocation."""
    from repro.sim.config import PRESETS

    preset = PRESETS[args.preset]
    traces = tuple(args.traces) if args.traces else DEFAULT_TRACES
    machines = (
        tuple(PERF_MACHINES[name] for name in args.machines)
        if getattr(args, "machines", None)
        else DEFAULT_MACHINES
    )
    profile_top = getattr(args, "profile", None)
    if profile_top is not None and args.check:
        print(
            "--profile skews every timing; refusing to gate a profiled run",
            file=sys.stderr,
        )
        return 2
    baseline: dict | None = None
    if args.check:
        # A bad baseline is a usage error (exit 2) found before measuring,
        # never a regression (exit 1) after a full run.
        try:
            baseline = load_baseline(Path(args.check), args.section)
        except (OSError, ValueError, KeyError) as exc:
            # str() of an OSError repeats the path; of a KeyError, quotes it.
            reason = (exc.strerror if isinstance(exc, OSError)
                      else exc.args[0] if isinstance(exc, KeyError) else exc)
            print(f"error: baseline {args.check}: {reason}", file=sys.stderr)
            return 2

    def progress(done: int, total: int, label: str) -> None:
        """Render an in-place progress line on stderr."""
        print(f"\r  measured {done}/{total}  {label[:60]:<60s}", end="",
              file=sys.stderr, flush=True)
        if done == total:
            print(file=sys.stderr)

    profiler = None
    if profile_top is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    payload = measure_matrix(
        preset,
        machines=machines,
        trace_names=traces,
        repeats=args.repeats,
        progress=progress,
        engine=args.engine,
    )
    if profiler is not None:
        profiler.disable()
        # Poisons the payload for check_regression: profiled rates are
        # systematically low and must never become (or beat) a baseline.
        payload["profiled"] = True
    print(format_report(payload))
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler)
        stats.sort_stats(args.profile_sort).print_stats(profile_top)
        if args.profile_dump:
            stats.dump_stats(args.profile_dump)
            print(f"raw pstats written to {args.profile_dump}")

    if args.output:
        Path(args.output).write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.output}")

    if baseline is not None:
        problems = check_regression(payload, baseline, args.max_regression)
        if problems:
            print("PERF REGRESSION:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(
            f"perf gate OK: {aggregate_rate(payload):,.0f} accesses/sec vs "
            f"baseline {aggregate_rate(baseline):,.0f} "
            f"(allowance -{args.max_regression:.0%})"
        )
    return 0

