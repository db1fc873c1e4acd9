"""End-to-end service tests through real ``repro serve`` subprocesses.

The tentpole invariant, now with a server in the middle: any mix of
concurrent clients leaves the shared cache byte-identical to a clean
serial run of the union of their jobs.  These tests drive the same code
path two real terminals would take; the dedupe test also reads its
counter back the way an operator does, through ``repro stats --json``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.protocol import SOCKET_ENV
from repro.serve.scheduler import BATCH_DELAY_ENV
from repro.serve.server import READY_PREFIX
from repro.sim.experiment import CACHE_DIR_ENV
from repro.sim.resultcache import scan_cache_file

TIMEOUT = 300


def _env(cache_dir: Path, **extra: str) -> dict[str, str]:
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env[CACHE_DIR_ENV] = str(cache_dir)
    env.pop(SOCKET_ENV, None)
    env.pop(BATCH_DELAY_ENV, None)
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


class _Server:
    """A real ``repro serve`` subprocess, ready once entered."""

    def __init__(self, cache_dir: Path, *args: str, **env: str):
        self.cache_dir = cache_dir
        self.args = args
        self.env = _env(cache_dir, **env)
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "_Server":
        self.proc = _repro(
            ("serve", "--preset", "test", "--jobs", "2") + self.args, self.env
        )
        assert self.proc.stdout is not None
        ready = self.proc.stdout.readline()
        assert ready.startswith(READY_PREFIX), self.proc.stderr.read()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=TIMEOUT)

    def stop(self) -> int:
        """SIGTERM drain; returns the exit code."""
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        self.proc.communicate(timeout=TIMEOUT)
        return self.proc.returncode


def _submit(cache_dir: Path, traces: list[str], *extra: str, **env: str):
    args = ["submit"]
    for trace in traces:
        args += ["--trace", trace]
    return _repro(tuple(args) + ("--sweep", "--wait", *extra), _env(cache_dir, **env))


class TestByteIdentity:
    def test_concurrent_clients_match_serial_byte_for_byte(self, tmp_path):
        shared = tmp_path / "shared"
        serial = tmp_path / "serial"

        # Three concurrent clients, overlapping job sets, one duplicate
        # sweep, with the dedupe window widened so overlap lands while
        # jobs are still in flight.
        with _Server(shared, **{BATCH_DELAY_ENV: "0.5"}) as server:
            clients = [
                _submit(shared, ["sjeng.1", "mcf.1"], "--json"),
                _submit(shared, ["sjeng.1", "astar.1"], "--json"),
                _submit(shared, ["sjeng.1", "mcf.1"], "--json"),
            ]
            for client in clients:
                out, err = client.communicate(timeout=TIMEOUT)
                assert client.returncode == 0, err
                summary = json.loads(out)
                assert summary["done"]["failed"] == 0
            assert server.stop() == 0

        # Serial reference: one client, the union of the jobs, served
        # sequentially through a fresh server.
        with _Server(serial) as server:
            client = _submit(serial, ["sjeng.1", "mcf.1", "astar.1"])
            _, err = client.communicate(timeout=TIMEOUT)
            assert client.returncode == 0, err
            assert server.stop() == 0

        assert (
            _cache_file(shared).read_bytes() == _cache_file(serial).read_bytes()
        )
        assert scan_cache_file(_cache_file(shared)).clean

        # The duplicate sweep must have been coalesced, not recomputed.
        stats = json.loads((shared / "serve-stats.json").read_text())
        counters = stats["counters"]
        deduped = counters.get("serve/jobs_deduped", {}).get("value", 0)
        cache_hits = counters.get("serve/jobs_cache_hit", {}).get("value", 0)
        assert deduped + cache_hits > 0

    def test_dedupe_against_in_flight_jobs(self, tmp_path):
        """With the batch delayed, a duplicate submit coalesces in flight."""
        cache_dir = tmp_path / "cache"
        with _Server(cache_dir, **{BATCH_DELAY_ENV: "2.0"}) as server:
            first = _submit(cache_dir, ["sjeng.1"])
            time.sleep(0.5)  # let the first submit land and start its delay
            second = _submit(cache_dir, ["sjeng.1"])
            for client in (first, second):
                _, err = client.communicate(timeout=TIMEOUT)
                assert client.returncode == 0, err
            assert server.stop() == 0
        stats = json.loads((cache_dir / "serve-stats.json").read_text())
        assert stats["counters"]["serve/jobs_deduped"]["value"] == 2
        assert stats["counters"]["serve/jobs_enqueued"]["value"] == 2

        # The same counter, read back through repro stats.
        report = _repro(
            ("stats", "--preset", "test", "--trace", "sjeng.1", "--json"),
            _env(cache_dir),
        )
        out, err = report.communicate(timeout=TIMEOUT)
        assert report.returncode == 0, err
        counters = json.loads(out)["serve"]["counters"]
        assert counters["serve/jobs_deduped"]["value"] == 2


class TestAdmissionAndDrain:
    def test_quota_rejection_is_structured(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with _Server(cache_dir, "--client-quota", "1", **{BATCH_DELAY_ENV: "2.0"}):
            # 2 jobs (the sweep pair) against a quota of 1.
            client = _submit(cache_dir, ["sjeng.1"], "--json")
            out, err = client.communicate(timeout=TIMEOUT)
            assert client.returncode == 1
            assert "rejected" in err
            assert json.loads(out)["rejected"]["reason"] == "quota-exceeded"

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with _Server(cache_dir) as server:
            client = _submit(cache_dir, ["sjeng.1"])
            _, err = client.communicate(timeout=TIMEOUT)
            assert client.returncode == 0, err
            assert server.stop() == 0
        assert not (cache_dir / "serve.sock").exists()  # socket removed
        stats = json.loads((cache_dir / "serve-stats.json").read_text())
        assert stats["final"] is True
        assert stats["counters"]["serve/jobs_completed"]["value"] == 2

    def test_stale_socket_is_reclaimed_on_startup(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        import socket as socketlib

        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(str(cache_dir / "serve.sock"))
        stale.close()  # simulates a killed server's leftover
        with _Server(cache_dir) as server:
            client = _submit(cache_dir, ["sjeng.1"])
            _, err = client.communicate(timeout=TIMEOUT)
            assert client.returncode == 0, err
            assert server.stop() == 0


class TestClientErrors:
    def test_submit_without_server_exits_2_clean(self, tmp_path):
        client = _submit(tmp_path, ["sjeng.1"])
        out, err = client.communicate(timeout=60)
        assert client.returncode == 2
        assert "no server socket" in err
        assert "Traceback" not in err

    def test_submit_against_stale_socket_exits_2_clean(self, tmp_path):
        import socket as socketlib

        stale = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        stale.bind(str(tmp_path / "serve.sock"))
        stale.close()
        client = _submit(tmp_path, ["sjeng.1"])
        out, err = client.communicate(timeout=60)
        assert client.returncode == 2
        assert "stale socket" in err
        assert "Traceback" not in err

    def test_serve_refuses_live_socket_exits_2(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with _Server(cache_dir):
            rival = _repro(("serve", "--preset", "test"), _env(cache_dir))
            _, err = rival.communicate(timeout=60)
            assert rival.returncode == 2
            assert "already listening" in err
            assert "Traceback" not in err

    def test_serve_status_without_server_exits_2(self, tmp_path):
        proc = _repro(("serve-status",), _env(tmp_path))
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert "no server socket" in err
