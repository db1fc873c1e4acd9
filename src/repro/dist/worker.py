"""Worker endpoints and the local subprocess pool for ``repro dispatch``.

A dispatch *worker* is nothing new: it is a ``repro serve --worker``
process — same wire protocol, same deduplicating scheduler, same locked
v5 result cache — reached over TCP or a unix socket (which an operator
typically forwards from a remote host with ``ssh -L``).  This module
owns the two ways a coordinator finds its fleet:

* :func:`parse_worker_spec` — explicit ``--worker`` endpoints
  (``tcp:HOST:PORT`` or a unix-socket path) for real multi-host runs.
* :class:`LocalWorkerPool` — ``--workers N`` spawns N serve
  subprocesses on private sockets and cache directories under the
  coordinator's cache dir; the differential tests, the chaos dispatch
  in CI's sweep-smoke job and single-box scale-out all use it.

Spawned workers deliberately do *not* inherit ``$REPRO_FAULTS`` /
``$REPRO_FAULTS_DIR``: ``worker-lost`` and ``remote-torn-merge`` are
coordinator-side faults, and letting a ``crash`` spec leak into every
worker would fire it once per process instead of once per sweep.
"""

from __future__ import annotations

import os
import signal
import socket as socketlib
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.serve.client import Address, ServeClient, ServeClientError
from repro.serve.protocol import SOCKET_ENV, ServeError, parse_tcp
from repro.sim.experiment import CACHE_DIR_ENV
from repro.sim.faultinject import FAULTS_DIR_ENV, FAULTS_ENV
from repro.sim.locking import _pid_alive

#: Seconds a spawned worker gets to start accepting connections.
STARTUP_TIMEOUT = 60.0

#: Seconds a SIGTERM'd worker gets to drain before SIGKILL.
_DRAIN_GRACE = 15.0

#: Socket timeout for the adoption probe's hello handshake.
_ADOPT_TIMEOUT = 5.0


class WorkerPoolError(RuntimeError):
    """A spawned worker failed to come up, with a clean one-line message."""


@dataclass(frozen=True)
class WorkerEndpoint:
    """One dispatch worker the coordinator can lease jobs to."""

    index: int
    name: str
    address: Address

    def describe(self) -> str:
        """Human-readable endpoint for logs and reports."""
        return f"{self.name} ({self.address.describe()})"


def parse_worker_spec(spec: str, index: int) -> WorkerEndpoint:
    """Parse one ``--worker`` value into a :class:`WorkerEndpoint`.

    ``tcp:HOST:PORT`` connects over TCP; anything else is a unix-socket
    path (the natural target of an ``ssh -L`` forward).  Raises
    :class:`ValueError` on malformed specs so the CLI exits 2 with a
    clean message instead of a traceback.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("--worker spec must not be empty")
    if spec.startswith("tcp:"):
        try:
            host, port = parse_tcp(spec[len("tcp:") :])
        except ServeError as exc:
            raise ValueError(f"--worker {spec!r}: {exc}") from None
        return WorkerEndpoint(
            index=index, name=f"worker-{index}", address=Address(host=host, port=port)
        )
    return WorkerEndpoint(
        index=index, name=f"worker-{index}", address=Address(path=Path(spec))
    )


class _WorkerHandle:
    """One pool slot: a spawned subprocess, or an adopted running worker.

    Adoption is the crash-recovery case — a coordinator killed by
    ``SIGKILL`` (or a ``coordinator-crash`` fault) orphans its spawned
    workers, which keep serving on their private sockets.  A resumed
    dispatch finds them accepting and adopts them by pid instead of
    failing to bind a second server on the same socket; from then on
    kill/stall/stop treat both shapes identically through ``os.kill``.
    """

    def __init__(self, proc: subprocess.Popen | None, pid: int) -> None:
        self.proc = proc
        self.pid = pid
        self.stalled = False

    @property
    def adopted(self) -> bool:
        """Whether this worker was inherited from a dead coordinator."""
        return self.proc is None

    def alive(self) -> bool:
        """Whether the worker process still exists."""
        if self.proc is not None:
            return self.proc.poll() is None
        return _pid_alive(self.pid)

    def signal(self, signum: int) -> bool:
        """Send ``signum``; False if the process is already gone."""
        try:
            os.kill(self.pid, signum)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def wait(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for death; True once dead.

        Adopted workers are not our children, so there is nothing to
        reap — liveness polling is the only portable wait.
        """
        if self.proc is not None:
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                return False
            return True
        deadline = time.monotonic() + timeout
        while _pid_alive(self.pid):
            if time.monotonic() > deadline:
                return False
            time.sleep(0.05)
        return True


class LocalWorkerPool:
    """N ``repro serve --worker`` subprocesses on private sockets.

    Each worker gets its own cache directory (``dist-worker-<i>`` under
    ``root``), its own unix socket inside it, and a ``serve.log``
    capturing stdout+stderr — the failure artifact the CI smoke job
    uploads.  Worker cache directories persist across dispatches on
    purpose: a re-dispatch finds warm workers whose local caches answer
    repeated leases without re-simulating — and if a previous
    coordinator died without stopping its fleet, the still-running
    workers are *adopted* rather than clobbered (see
    :class:`_WorkerHandle`).
    """

    def __init__(
        self,
        count: int,
        preset_name: str,
        root: Path,
        *,
        jobs: int | None = None,
        retries: int | None = None,
        job_timeout: float | None = None,
        lock_timeout: float | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"--workers must be >= 1, got {count}")
        self.count = count
        self.preset_name = preset_name
        self.root = root
        self.jobs = jobs
        self.retries = retries
        self.job_timeout = job_timeout
        self.lock_timeout = lock_timeout
        self.endpoints: list[WorkerEndpoint] = []
        self._handles: list[_WorkerHandle] = []
        self._logs: list[IO[bytes]] = []

    def __enter__(self) -> "LocalWorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def worker_dir(self, index: int) -> Path:
        """The cache directory (and log home) of worker ``index``."""
        return self.root / f"dist-worker-{index}"

    def start(self) -> list[WorkerEndpoint]:
        """Spawn (or adopt) every worker; wait until each accepts.

        A socket that already accepts connections belongs to a live
        worker orphaned by a dead coordinator — spawning over it would
        fail startup (``a server is already listening``), so the pool
        adopts it instead: same endpoint, same warm cache, managed by
        pid from here on.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        for index in range(self.count):
            directory = self.worker_dir(index)
            directory.mkdir(parents=True, exist_ok=True)
            socket_path = directory / "serve.sock"
            endpoint = WorkerEndpoint(
                index=index,
                name=f"worker-{index}",
                address=Address(path=socket_path),
            )
            adopted_pid = self._try_adopt(endpoint.address)
            if adopted_pid is not None:
                self._handles.append(_WorkerHandle(None, adopted_pid))
                self.endpoints.append(endpoint)
                print(
                    f"repro dispatch: adopted running {endpoint.name} "
                    f"(pid {adopted_pid}) from a previous coordinator",
                    file=sys.stderr,
                    flush=True,
                )
                continue
            command = [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--worker",
                "--preset",
                self.preset_name,
                "--socket",
                str(socket_path),
            ]
            for flag, value in (
                ("--jobs", self.jobs),
                ("--retries", self.retries),
                ("--job-timeout", self.job_timeout),
                ("--lock-timeout", self.lock_timeout),
            ):
                if value is not None:
                    command += [flag, str(value)]
            env = dict(os.environ)
            env[CACHE_DIR_ENV] = str(directory)
            for name in (SOCKET_ENV, FAULTS_ENV, FAULTS_DIR_ENV):
                env.pop(name, None)
            log = (directory / "serve.log").open("ab")
            self._logs.append(log)
            proc = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
            self._handles.append(_WorkerHandle(proc, proc.pid))
            self.endpoints.append(endpoint)
        self._await_ready()
        return list(self.endpoints)

    @staticmethod
    def _try_adopt(address: Address) -> int | None:
        """Probe a worker socket; the live server's pid, or ``None``.

        Mirrors ``reclaim_stale_socket``'s live/stale distinction from
        the client side: a refused connect means a stale file the
        spawned server will reclaim itself, an accepted one means a
        running worker whose ``hello`` tells us the pid to manage.
        """
        assert address.path is not None
        if not address.path.exists():
            return None
        try:
            with ServeClient(address, timeout=_ADOPT_TIMEOUT) as client:
                hello = client.handshake()
        except ServeClientError:
            return None
        pid = hello.get("pid")
        return pid if isinstance(pid, int) and pid > 0 else None

    def _await_ready(self) -> None:
        """Block until every worker accepts, or fail with its log path."""
        deadline = time.monotonic() + STARTUP_TIMEOUT
        for index, (handle, endpoint) in enumerate(
            zip(self._handles, self.endpoints)
        ):
            if handle.adopted:
                continue  # adoption only happens to accepting workers
            proc = handle.proc
            assert proc is not None
            while not self._accepting(endpoint.address):
                if proc.poll() is not None:
                    self.stop()
                    raise WorkerPoolError(
                        f"{endpoint.name} exited with status {proc.returncode} "
                        f"during startup (see {self.worker_dir(index)}/serve.log)"
                    )
                if time.monotonic() > deadline:
                    self.stop()
                    raise WorkerPoolError(
                        f"{endpoint.name} did not accept connections within "
                        f"{STARTUP_TIMEOUT:g}s (see "
                        f"{self.worker_dir(index)}/serve.log)"
                    )
                time.sleep(0.05)

    @staticmethod
    def _accepting(address: Address) -> bool:
        """Probe whether a worker's unix socket accepts connections."""
        assert address.path is not None
        if not address.path.exists():
            return False
        probe = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(str(address.path))
        except OSError:
            return False
        else:
            return True
        finally:
            probe.close()

    def alive(self, index: int) -> bool:
        """Whether worker ``index`` is still running."""
        return self._handles[index].alive()

    def kill(self, index: int) -> bool:
        """SIGKILL one worker (the ``worker-lost`` fault's teeth).

        Returns True if the worker was alive; no cleanup happens on the
        worker side — its socket file, logs and partial cache stay put,
        exactly like a host dropping off the network.
        """
        handle = self._handles[index]
        if not handle.alive():
            return False
        handle.signal(signal.SIGKILL)
        handle.wait(_DRAIN_GRACE)
        return True

    def stall(self, index: int) -> bool:
        """SIGSTOP one worker (the ``slow-worker`` fault's teeth).

        The process keeps its socket open but stops answering anything —
        including heartbeat pings — which is indistinguishable, from the
        coordinator's side, from a hung host or a one-way partition.
        Returns True if the worker was alive to stall.
        """
        handle = self._handles[index]
        if not handle.alive():
            return False
        if handle.signal(signal.SIGSTOP):
            handle.stalled = True
            return True
        return False

    def stop(self) -> None:
        """Drain every surviving worker: SIGTERM, bounded wait, SIGKILL.

        Stalled (``SIGSTOP``'d) workers are hung by definition, so they
        get SIGKILL directly — a SIGTERM would sit undelivered for the
        whole drain grace.
        """
        for handle in self._handles:
            if not handle.alive():
                continue
            if handle.stalled:
                handle.signal(signal.SIGKILL)
            else:
                handle.signal(signal.SIGTERM)
        deadline = time.monotonic() + _DRAIN_GRACE
        for handle in self._handles:
            if handle.alive():
                if not handle.wait(max(0.1, deadline - time.monotonic())):
                    handle.signal(signal.SIGKILL)
                    handle.wait(_DRAIN_GRACE)
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        self._logs.clear()
