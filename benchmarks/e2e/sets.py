"""Run sets of benchmark runs and summarise them (the committed baseline).

Usage (from the root of the checkout to measure)::

    python3 benchmarks/e2e/sets.py --sets 2 --seeds 10 --out baseline.json

Each set runs every workload once per seed (seeds 0..N-1, untraced).
For each (workload, metric) the summary gives each set's median and
quartiles, the spread (quartile distance over the median) and how far
the second set's median moved from the first's.  One traced run per
workload (seed 0) adds the per-layer numbers.  The host fingerprint and
the wall time of each set are recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One ``run.py`` invocation's result object (raises if it failed)."""
    out = ROOT / ".bench_work" / f"sets-{os.getpid()}.json"
    out.parent.mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--json", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def host() -> dict:
    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets: list[dict] = []
    set_seconds = []
    for _ in range(args.sets):
        start = time.perf_counter()
        values: dict = {}
        for workload in workloads:
            for seed in range(args.seeds):
                result = one_run(workload, seed, seconds, 0)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect results")
                for name, metric in result["metrics"].items():
                    values.setdefault(workload, {}).setdefault(name, []).append(
                        metric["value"]
                    )
                print(f"set {len(sets) + 1} {workload} seed {seed} done", flush=True)
        sets.append(values)
        set_seconds.append(time.perf_counter() - start)

    start = time.perf_counter()
    traced = {
        workload: {
            name: metric["value"]
            for name, metric in one_run(workload, 0, seconds, 1)["metrics"].items()
        }
        for workload in workloads
    }
    traced_seconds = time.perf_counter() - start

    end_to_end: dict = {}
    for workload in workloads:
        for name in sets[0][workload]:
            per_set = [summary(s[workload][name]) for s in sets]
            row = {"bound": bounds[name], "sets": per_set}
            if len(per_set) > 1:
                row["median_shift"] = per_set[1]["median"] / per_set[0]["median"] - 1
            end_to_end.setdefault(workload, {})[name] = row
    baseline = {
        "host": host(),
        "run_seconds": seconds,
        "seeds": list(range(args.seeds)),
        "set_wall_s": set_seconds,
        "traced_wall_s": traced_seconds,
        "end_to_end": end_to_end,
        "per_layer_seed0": traced,
    }
    Path(args.out).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
