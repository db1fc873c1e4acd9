"""Multi-process concurrency tests for the shared result cache.

The tentpole invariant: any number of ``repro`` processes may share one
cache directory, and however their sweeps overlap, the surviving cache
file is byte-identical to what one clean serial run would have written.
These tests drive real subprocesses through the real CLI — the same
code path two terminals or two CI jobs would take.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.experiment import CACHE_DIR_ENV
from repro.sim.faultinject import FAULTS_DIR_ENV, FAULTS_ENV, LOCK_HOLDER_EXIT
from repro.sim.resultcache import scan_cache_file

#: Tiny sweep (2 traces x 2 machines on the test preset) — the CI box
#: may have a single CPU, so keep every subprocess cheap.
SWEEP = ("sweep", "--preset", "test", "--trace", "sjeng.1", "--trace", "mcf.1")


def _env(cache_dir: Path, **extra: str) -> dict[str, str]:
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_DIR_ENV] = str(cache_dir)
    env.pop(FAULTS_ENV, None)
    env.pop(FAULTS_DIR_ENV, None)
    env.update(extra)
    return env


def _repro(args: tuple[str, ...], env: dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _cache_file(directory: Path) -> Path:
    [path] = directory.glob("results-v*.jsonl")
    return path


class TestConcurrentSweeps:
    def test_two_overlapping_sweeps_match_serial_byte_for_byte(self, tmp_path):
        serial_dir = tmp_path / "serial"
        shared_dir = tmp_path / "shared"

        reference = _repro(SWEEP + ("--jobs", "1"), _env(serial_dir))
        _, reference_err = reference.communicate(timeout=300)
        assert reference.returncode == 0, reference_err

        first = _repro(SWEEP + ("--jobs", "2"), _env(shared_dir))
        second = _repro(SWEEP + ("--jobs", "2"), _env(shared_dir))
        out_first = first.communicate(timeout=300)
        out_second = second.communicate(timeout=300)
        assert first.returncode == 0, out_first[1]
        assert second.returncode == 0, out_second[1]

        serial_bytes = _cache_file(serial_dir).read_bytes()
        assert _cache_file(shared_dir).read_bytes() == serial_bytes
        assert scan_cache_file(_cache_file(shared_dir)).clean

    def test_serial_and_parallel_writers_interleave_safely(self, tmp_path):
        """A --jobs 1 appender and a --jobs 2 merger sharing one cache."""
        serial_dir = tmp_path / "serial"
        shared_dir = tmp_path / "shared"

        reference = _repro(SWEEP + ("--jobs", "1"), _env(serial_dir))
        reference.communicate(timeout=300)
        assert reference.returncode == 0

        first = _repro(SWEEP + ("--jobs", "1"), _env(shared_dir))
        second = _repro(SWEEP + ("--jobs", "2"), _env(shared_dir))
        _, first_err = first.communicate(timeout=300)
        _, second_err = second.communicate(timeout=300)
        assert first.returncode == 0, first_err
        assert second.returncode == 0, second_err

        # No line may be torn or checksum-broken, and the entries must
        # match the serial reference.  A serial appender that started
        # before the merger landed may legitimately re-append keys it
        # computed before the other writer's results hit disk — those
        # duplicates are benign (simulations are deterministic, so the
        # values are identical and last-wins changes nothing) and the
        # next merge or `repro cache canonicalize` scrubs them.
        from repro.sim.resultcache import canonicalize_cache_file, load_cache_entries

        report = scan_cache_file(_cache_file(shared_dir))
        assert report.clean
        assert load_cache_entries(_cache_file(shared_dir)) == load_cache_entries(
            _cache_file(serial_dir)
        )
        canonicalize_cache_file(_cache_file(shared_dir))
        report = scan_cache_file(_cache_file(shared_dir))
        assert report.clean and report.duplicate_keys == 0


class TestLockHolderDeath:
    def test_killed_lock_holder_does_not_wedge_the_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run = ("run", "--trace", "sjeng.1", "--preset", "test")

        victim = _repro(
            run,
            _env(
                cache_dir,
                **{
                    FAULTS_ENV: "lock-holder-dies:0:1",
                    FAULTS_DIR_ENV: str(tmp_path / "stamps"),
                },
            ),
        )
        victim.communicate(timeout=300)
        assert victim.returncode == LOCK_HOLDER_EXIT  # died holding the lock

        # The kernel released the flock with the process; a clean rerun
        # must acquire it promptly (no stale-pidfile wedge) and succeed.
        rerun = _repro(run, _env(cache_dir, REPRO_LOCK_TIMEOUT="30"))
        out, err = rerun.communicate(timeout=300)
        assert rerun.returncode == 0, err
        assert "IPC" in out
        assert scan_cache_file(_cache_file(cache_dir)).clean


@pytest.mark.parametrize(
    "command", [("cache", "verify"), ("cache", "canonicalize")]
)
def test_cache_tools_run_via_module_entrypoint(tmp_path, command):
    """`repro cache ...` works end to end against an empty directory."""
    proc = _repro(command + ("--cache-dir", str(tmp_path)), _env(tmp_path))
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "no cache files" in out
