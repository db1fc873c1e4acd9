"""End-to-end dispatch tests through real worker subprocesses.

The tentpole invariant with workers dying under it: a dispatch sharded
across a fleet of ``repro serve --worker`` processes — including one
the ``worker-lost`` fault kills mid-dispatch — leaves a cache
byte-identical to a canonicalized serial ``repro sweep`` of the same
matrix, and the loss is visible in ``repro stats``.  CI's tier-1 job
runs it on every supported Python.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.sim.experiment import CACHE_DIR_ENV
from repro.sim.faultinject import FAULTS_DIR_ENV, FAULTS_ENV
from repro.sim.resultcache import scan_cache_file

TIMEOUT = 300
TRACES = ("mcf.1", "sjeng.1", "astar.1")


def _env(cache_dir: Path, **extra: str) -> dict[str, str]:
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_DIR_ENV] = str(cache_dir)
    env.pop(FAULTS_ENV, None)
    env.pop(FAULTS_DIR_ENV, None)
    env.update(extra)
    return env


def _repro(args: tuple[str, ...], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def _trace_flags(traces: tuple[str, ...]) -> list[str]:
    flags: list[str] = []
    for trace in traces:
        flags += ["--trace", trace]
    return flags


def _serial_reference(cache_dir: Path) -> Path:
    """A canonicalized serial sweep of the matrix: the golden bytes."""
    env = _env(cache_dir)
    sweep = _repro(
        ("sweep", "--preset", "test", *_trace_flags(TRACES), "--jobs", "1"), env
    )
    assert sweep.returncode == 0, sweep.stderr
    canon = _repro(("cache", "canonicalize", "--cache-dir", str(cache_dir)), env)
    assert canon.returncode == 0, canon.stderr
    [path] = cache_dir.glob("results-v*.jsonl")
    return path


def test_dispatch_with_worker_death_is_byte_identical_to_serial(tmp_path):
    serial = _serial_reference(tmp_path / "serial")

    # Three workers, worker-1 killed by the injected fault on its first
    # lease; its jobs must reassign to the survivors.
    dist_dir = tmp_path / "dist"
    env = _env(
        dist_dir,
        **{
            FAULTS_ENV: "worker-lost:1:1",
            FAULTS_DIR_ENV: str(tmp_path / "fault-stamps"),
        },
    )
    dispatch = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            *_trace_flags(TRACES),
            "--workers",
            "3",
            "--lease-size",
            "2",
            "--json",
        ),
        env,
    )
    assert dispatch.returncode == 0, dispatch.stderr
    report = json.loads(dispatch.stdout)
    assert report["total"] == 2 * len(TRACES)
    assert report["completed"] == 2 * len(TRACES)
    assert report["failures"] == []
    assert report["workers_lost"] >= 1
    assert report["reassigned"] >= 1
    assert "worker-1 lost" in dispatch.stderr
    lost = next(w for w in report["workers"] if w["name"] == "worker-1")
    assert lost["losses"] >= 1

    # The point of the whole exercise: byte identity despite the death.
    [dist_cache] = dist_dir.glob("results-v*.jsonl")
    assert dist_cache.read_bytes() == serial.read_bytes()
    assert scan_cache_file(dist_cache).clean
    # Clean fold: the staging directory was removed.
    assert list(dist_dir.glob("*.dist-*")) == []

    # The loss is observable after the fact through repro stats.
    stats = _repro(
        (
            "stats",
            "--preset",
            "test",
            "--trace",
            TRACES[0],
            "--json",
        ),
        _env(dist_dir),
    )
    assert stats.returncode == 0, stats.stderr
    counters = json.loads(stats.stdout)["dist"]["counters"]
    assert counters["dist/workers_lost"]["value"] >= 1
    assert counters["dist/jobs_reassigned"]["value"] >= 1


def test_redispatch_is_fully_cached_and_touches_nothing(tmp_path):
    """A second dispatch of the same matrix resolves entirely from cache."""
    cache_dir = tmp_path / "cache"
    env = _env(cache_dir)
    first = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            "--trace",
            "sjeng.1",
            "--workers",
            "2",
            "--json",
        ),
        env,
    )
    assert first.returncode == 0, first.stderr
    [cache_file] = cache_dir.glob("results-v*.jsonl")
    before = cache_file.read_bytes()

    second = _repro(
        ("dispatch", "--preset", "test", "--trace", "sjeng.1", "--json"), env
    )
    assert second.returncode == 0, second.stderr
    report = json.loads(second.stdout)
    assert report["cached"] == 2 and report["dispatched"] == 0
    assert cache_file.read_bytes() == before


def test_coordinator_crash_then_resume_is_byte_identical(tmp_path):
    """kill -9 mid-dispatch: --resume salvages staged cells, finishes, matches serial.

    The injected ``coordinator-crash`` fault hard-exits the coordinator
    (``os._exit(88)``) right after its first partial fold, leaving the
    journal, the staged-shard dir and the orphaned workers behind —
    exactly the wreckage a real SIGKILL leaves.  The resumed dispatch
    must salvage, adopt or reclaim all of it and still produce the
    golden bytes.
    """
    serial = _serial_reference(tmp_path / "serial")

    dist_dir = tmp_path / "dist"
    crash_env = _env(
        dist_dir,
        **{
            FAULTS_ENV: "coordinator-crash:1:1",
            FAULTS_DIR_ENV: str(tmp_path / "fault-stamps"),
        },
    )
    crashed = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            *_trace_flags(TRACES),
            "--workers",
            "2",
            "--lease-size",
            "2",
        ),
        crash_env,
    )
    assert crashed.returncode == 88, crashed.stderr
    [journal] = dist_dir.glob("dispatch-journal-*.ndjson")
    assert journal.exists()

    # Resume with the fault disarmed (its one-shot stamp also remains).
    resume_env = _env(dist_dir)
    resumed = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            *_trace_flags(TRACES),
            "--workers",
            "2",
            "--lease-size",
            "2",
            "--resume",
            "--json",
        ),
        resume_env,
    )
    assert resumed.returncode == 0, resumed.stderr
    report = json.loads(resumed.stdout)
    assert report["total"] == 2 * len(TRACES)
    assert report["completed"] + report["cached"] == 2 * len(TRACES)
    assert report["cached"] >= 1  # salvaged cells resolve as cached
    assert report["resumes"] == 1
    assert report["failures"] == []
    assert "resuming after coordinator crash" in resumed.stderr

    [dist_cache] = dist_dir.glob("results-v*.jsonl")
    assert dist_cache.read_bytes() == serial.read_bytes()
    assert scan_cache_file(dist_cache).clean
    assert list(dist_dir.glob("dispatch-journal-*")) == []
    assert list(dist_dir.glob("*.dist-*")) == []

    stats = _repro(
        ("stats", "--preset", "test", "--trace", TRACES[0], "--json"),
        _env(dist_dir),
    )
    assert stats.returncode == 0, stats.stderr
    counters = json.loads(stats.stdout)["dist"]["counters"]
    assert counters["dist/resumes"]["value"] >= 1
    assert counters["dist/folds_partial"]["value"] >= 1


def test_net_partition_dispatch_converges_byte_identical(tmp_path):
    """A partitioned worker is retired and its jobs reassigned; bytes match."""
    serial = _serial_reference(tmp_path / "serial")

    dist_dir = tmp_path / "dist"
    env = _env(
        dist_dir,
        **{
            FAULTS_ENV: "net-partition:1:1",
            FAULTS_DIR_ENV: str(tmp_path / "fault-stamps"),
        },
    )
    dispatch = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            *_trace_flags(TRACES),
            "--workers",
            "3",
            "--lease-size",
            "2",
            "--json",
        ),
        env,
    )
    assert dispatch.returncode == 0, dispatch.stderr
    report = json.loads(dispatch.stdout)
    assert report["completed"] == 2 * len(TRACES)
    assert report["failures"] == []
    assert report["workers_lost"] >= 1
    assert "injected net-partition fault" in dispatch.stderr

    [dist_cache] = dist_dir.glob("results-v*.jsonl")
    assert dist_cache.read_bytes() == serial.read_bytes()
    assert scan_cache_file(dist_cache).clean


def test_slow_worker_is_caught_by_heartbeat_deadline(tmp_path):
    """A SIGSTOPped worker misses pings; the deadline retires it mid-lease."""
    serial = _serial_reference(tmp_path / "serial")

    dist_dir = tmp_path / "dist"
    env = _env(
        dist_dir,
        **{
            FAULTS_ENV: "slow-worker:0:1",
            FAULTS_DIR_ENV: str(tmp_path / "fault-stamps"),
        },
    )
    dispatch = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            *_trace_flags(TRACES),
            "--workers",
            "2",
            "--lease-size",
            "2",
            "--heartbeat",
            "0.3",
            "--heartbeat-deadline",
            "1",
            "--json",
        ),
        env,
    )
    assert dispatch.returncode == 0, dispatch.stderr
    report = json.loads(dispatch.stdout)
    assert report["completed"] == 2 * len(TRACES)
    assert report["failures"] == []
    assert report["heartbeats_missed"] >= 1
    assert "missed the heartbeat deadline" in dispatch.stderr
    assert "injected slow-worker fault (stalled)" in dispatch.stderr

    [dist_cache] = dist_dir.glob("results-v*.jsonl")
    assert dist_cache.read_bytes() == serial.read_bytes()
    assert scan_cache_file(dist_cache).clean


def test_dispatch_with_jobs_but_no_workers_exits_2(tmp_path):
    result = _repro(
        ("dispatch", "--preset", "test", "--trace", "sjeng.1"), _env(tmp_path)
    )
    assert result.returncode == 2
    assert "no workers" in result.stderr
    assert "Traceback" not in result.stderr


def test_dispatch_rejects_mixing_worker_flag_styles(tmp_path):
    result = _repro(
        (
            "dispatch",
            "--preset",
            "test",
            "--trace",
            "sjeng.1",
            "--workers",
            "2",
            "--worker",
            "/tmp/x.sock",
        ),
        _env(tmp_path),
    )
    assert result.returncode == 2
    assert "not both" in result.stderr
