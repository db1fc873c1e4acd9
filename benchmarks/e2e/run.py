"""End-to-end benchmark of the Base-Victim reproduction.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload fig8-cold --seed 0 --seconds 15 --trace 0

One run byte-compiles the program, measures set-up time as the median
of four fresh-process set-ups, then measures the workload in a fresh
worker process (see ``worker.py``).  It prints every metric as
``workload metric value unit`` and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer ones instead and the spans
are written under ``.bench_work/spans/``.

Exit status: 0 when every checked result equals the committed
reference, 1 when any differs (the result line is still printed), 2
when the program or its reference cache is missing or a run fails.
Everything a run writes stays under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from oracle import default_reference  # noqa: E402

#: Fresh-process set-ups whose median is ``setup_s`` (the last one is the
#: measuring worker's own).
SETUPS = 4

#: Hard limit for one run: a run that takes longer is killed and fails.
RUN_LIMIT_S = 170.0

WORKLOADS = ("fig8-cold", "fig13-mix", "figs-warm", "serve-hit", "serve-miss")


class RunFailed(Exception):
    """A worker crashed, timed out or printed no result."""


def _env() -> dict[str, str]:
    """The environment of every child: no inherited ``REPRO_*`` settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _spawn(args: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and its set-up time (spawn -> READY).

    The time is scaled to the reference host speed by samples taken
    while this process waits (see hostspeed.py).
    """
    with hostspeed.HostClock() as clock:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        assert proc.stdout is not None
        line = proc.stdout.readline()
        end = time.perf_counter()
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise RunFailed(f"worker failed during set-up (exit {proc.returncode})")
    return proc, clock.scaled(start, end)


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker (killing its whole group past the deadline)."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed("run exceeded its time limit") from None
    return out


def _declared() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> spec from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, reference: Path):
    """One run; returns (metrics, attempted, failed, info)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    # Workers run on the first CPU (this process samples it while they
    # set up); a server runs on the last.
    cpus = hostspeed.cpus()
    hostspeed.pin(cpus[0])
    common = [
        "--workload", workload, "--seed", str(seed), "--reference", str(reference),
        "--server-cpu", str(cpus[-1]),
    ]
    try:
        # The program's "build": byte-compile it once, outside any timing.
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            check=True,
            stdout=subprocess.DEVNULL,
            env=_env(),
        )
        setups = []
        for index in range(0 if trace else SETUPS - 1):
            workdir = work / f"setup-{index}"
            workdir.mkdir(parents=True)
            proc, ready = _spawn(
                [*common, "--seconds", "0", "--setup-only", "--workdir", str(workdir)],
                deadline,
            )
            _finish(proc, deadline)
            if proc.returncode != 0:
                raise RunFailed(f"set-up run exited {proc.returncode}")
            setups.append(ready)
        workdir = work / "measure"
        workdir.mkdir(parents=True)
        extra = ["--trace"] if trace else []
        proc, ready = _spawn(
            [*common, "--seconds", str(seconds), "--workdir", str(workdir), *extra],
            deadline,
        )
        setups.append(ready)
        out = _finish(proc, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"measuring worker exited {proc.returncode} without a result")
    payload = json.loads(lines[-1][len("RESULT ") :])
    metrics = payload["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    for problem in payload["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    return metrics, payload["attempted"], payload["failed"], payload["info"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="OUT", help="also write the result here")
    parser.add_argument(
        "--reference",
        metavar="FILE",
        help="results to check against (default: the committed bench cache)",
    )
    args = parser.parse_args(argv)

    reference = Path(args.reference) if args.reference else default_reference(ROOT)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or reference is None:
        print("error: the program (src/repro) or its result cache is missing",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = _declared()
    declared = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), reference
        )
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if set(metrics) != set(declared):
        print(
            "error: emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}",
            file=sys.stderr,
        )
        return 2
    for name, value in info.items():
        print(f"{args.workload} info.{name} {value}")
    for name in sorted(metrics):
        print(f"{args.workload} {name} {metrics[name]} {declared[name]['unit']}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": declared[name]["unit"]}
            for name in sorted(metrics)
        },
    }
    if args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
