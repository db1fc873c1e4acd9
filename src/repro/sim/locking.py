"""Cross-process advisory file locks for the result cache.

Any number of ``repro`` processes (overlapping sweeps, ``repro stats``,
prewarms, CI jobs) may share one ``.repro_cache/`` directory.  Every
read-modify-write of a cache file therefore happens under an advisory
``fcntl.flock`` on a ``<cache>.lock`` sibling, so two writers can never
interleave appends or race an atomic rewrite.

Design points:

* **flock, not lockfiles** — the kernel releases a ``flock`` the instant
  its holder dies, so a SIGKILLed sweep can never wedge the cache the
  way a stale pidfile would.  The lock file itself carries owner
  metadata (pid, hostname, acquisition time) purely for diagnostics:
  a timeout names the holder, and taking over from a dead owner is
  counted as a stale-lock detection.
* **Bounded, seeded waiting** — acquisition polls with the same seeded
  exponential backoff the sweep retry layer uses
  (:class:`~repro.sim.retry.RetryPolicy`), bounded by a timeout
  (``--lock-timeout`` / ``$REPRO_LOCK_TIMEOUT``, default
  :data:`DEFAULT_LOCK_TIMEOUT` seconds).  Exhausting it raises
  :class:`LockTimeoutError` naming the current owner instead of
  deadlocking the sweep.
* **Accounted contention** — each :class:`FileLock` counts its own
  waits, timeouts and stale takeovers.  The cache writes in
  :mod:`repro.sim.resultcache` return their lock's waits, and a
  :class:`LockTimeoutError` carries the waits spent before it, so the
  experiment runner adds them to ``cache/lock_waits`` and
  ``cache/lock_timeouts`` in its registry.

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op:
single-process use stays correct, and the CRC-checked cache format
still *detects* any corruption concurrent writers would cause.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.sim import faultinject
from repro.sim.retry import RetryPolicy, _env_float

#: Environment variable overriding the default lock timeout (seconds).
LOCK_TIMEOUT_ENV = "REPRO_LOCK_TIMEOUT"

#: Default seconds to wait for the cache lock before giving up.  Long
#: enough to ride out another sweep's merge, short enough that a wedged
#: NFS mount surfaces as an error instead of a silent hang.
DEFAULT_LOCK_TIMEOUT = 120.0

#: Suffix appended to the protected file's name to form its lock file.
LOCK_SUFFIX = ".lock"


class LockTimeoutError(RuntimeError):
    """The cache lock could not be acquired within the timeout."""

    #: Backoff sleeps the acquisition spent before giving up.
    waits = 0


def resolve_lock_timeout(
    timeout: float | None = None, default: float = DEFAULT_LOCK_TIMEOUT
) -> float:
    """Lock timeout: explicit value > ``$REPRO_LOCK_TIMEOUT`` > default.

    Zero or negative values mean "do not wait": a contended lock raises
    :class:`LockTimeoutError` on the first failed attempt.
    """
    if timeout is None:
        resolved = _env_float(LOCK_TIMEOUT_ENV, default)
        assert resolved is not None  # default is never None here
        timeout = resolved
    return timeout


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    return True


class FileLock:
    """Advisory exclusive lock on a file, with timeout and diagnostics.

    Usable as a context manager::

        with FileLock.for_target(cache_path, timeout=30):
            ...read-modify-write the cache...

    ``waits`` / ``timeouts`` / ``stale_owners`` count this instance's
    contention events.
    """

    def __init__(
        self,
        path: Path,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.path = Path(path)
        self.timeout = resolve_lock_timeout(timeout)
        # Fast, capped backoff: lock holds are short (one merge), so
        # poll often but never busy-spin.
        self._policy = policy or RetryPolicy(backoff_base=0.005, backoff_cap=0.1)
        self._fd: int | None = None
        self.waits = 0
        self.timeouts = 0
        self.stale_owners = 0

    @classmethod
    def for_target(cls, target: Path, timeout: float | None = None) -> "FileLock":
        """The lock protecting ``target`` (a ``<target>.lock`` sibling)."""
        return cls(target.with_name(target.name + LOCK_SUFFIX), timeout)

    @property
    def held(self) -> bool:
        """Whether this instance currently holds the lock."""
        return self._fd is not None

    def _read_owner(self, fd: int) -> dict | None:
        """Parse the owner metadata currently in the lock file, if any."""
        try:
            os.lseek(fd, 0, os.SEEK_SET)
            raw = os.read(fd, 4096)
            owner = json.loads(raw) if raw.strip() else None
        except (OSError, ValueError):
            return None
        return owner if isinstance(owner, dict) else None

    def _write_owner(self, fd: int) -> None:
        """Stamp this process's identity into the held lock file."""
        payload = json.dumps(
            {"pid": os.getpid(), "host": socket.gethostname(), "acquired": time.time()}
        ).encode()
        try:
            os.ftruncate(fd, 0)
            os.lseek(fd, 0, os.SEEK_SET)
            os.write(fd, payload)
        except OSError:  # diagnostics only; never fail an acquired lock
            pass

    def _describe_owner(self, owner: dict | None) -> str:
        """Human-readable holder description for timeout errors."""
        if not owner:
            return "unknown owner"
        pid = owner.get("pid")
        host = owner.get("host", "?")
        state = ""
        if isinstance(pid, int) and host == socket.gethostname():
            state = " (alive)" if _pid_alive(pid) else " (dead)"
        return f"pid {pid} on {host}{state}"

    def acquire(self) -> "FileLock":
        """Take the lock, waiting up to ``timeout`` seconds.

        Raises :class:`LockTimeoutError` (naming the current holder)
        when the wait budget runs out.  Taking over a lock whose
        recorded owner is a dead same-host process counts as a stale
        detection — with ``flock`` the kernel has already released it,
        so the takeover is immediate and safe.
        """
        assert self._fd is None, "lock is not reentrant"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        if fcntl is None:  # pragma: no cover - non-POSIX degradation
            self._fd = fd
            self._write_owner(fd)
            faultinject.on_lock_acquired(self.path)
            return self
        deadline = time.monotonic() + max(0.0, self.timeout)
        attempt = 0
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                break
            except OSError:
                attempt += 1
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    owner = self._describe_owner(self._read_owner(fd))
                    os.close(fd)
                    self.timeouts += 1
                    error = LockTimeoutError(
                        f"{self.path}: lock held by {owner}; gave up after "
                        f"{self.timeout:g}s (raise --lock-timeout / "
                        f"${LOCK_TIMEOUT_ENV} if the sweep is just slow)"
                    )
                    error.waits = self.waits
                    raise error from None
                self.waits += 1
                delay = self._policy.delay(str(self.path), attempt)
                time.sleep(min(delay, remaining))
        previous = self._read_owner(fd)
        if previous is not None:
            pid = previous.get("pid")
            if (
                isinstance(pid, int)
                and previous.get("host") == socket.gethostname()
                and not _pid_alive(pid)
            ):
                self.stale_owners += 1
        self._fd = fd
        self._write_owner(fd)
        faultinject.on_lock_acquired(self.path)
        return self

    def release(self) -> None:
        """Drop the lock.  Owner metadata is left behind for diagnostics."""
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()
