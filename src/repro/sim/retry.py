"""Retry policies, per-job timeouts and structured failure records.

A multi-hour sweep must not die because one job hit a transient error or
wedged itself: the sweep engine wraps every job in a
:class:`RetryPolicy` — bounded re-attempts with exponential backoff and
*seeded* jitter — and an optional per-attempt watchdog
(:func:`deadline`) that turns a hung job into an ordinary
:class:`JobTimeoutError` the policy can retry.

Determinism rules this module obeys:

* Backoff delays are a pure function of ``(seed, job key, attempt)`` —
  no global RNG state, no wall-clock reads — so two runs of the same
  faulty sweep retry on the same schedule.
* Nothing here ever enters the result cache.  A job that eventually
  succeeds produces exactly the bytes a never-failing run would have
  produced; a job that exhausts its attempts is reported as a
  :class:`FailedCell` (exception type, attempts, elapsed wall time)
  in the sweep report, which is process-local by design.

Configuration mirrors the worker-count plumbing in
:mod:`repro.sim.parallel`: explicit arguments beat the ``$REPRO_RETRIES``
and ``$REPRO_JOB_TIMEOUT`` environment variables, which beat the
defaults (no retries, no timeout).
"""

from __future__ import annotations

import os
import random
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Environment variable: extra attempts per job after the first (int >= 0).
RETRIES_ENV = "REPRO_RETRIES"

#: Environment variable: per-attempt watchdog in seconds (<= 0 disables).
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"


class JobTimeoutError(Exception):
    """A job attempt exceeded its watchdog deadline."""


class SweepFailedError(RuntimeError):
    """A strict sweep had jobs that exhausted their retry budget.

    Carries the structured :class:`FailedCell` records so callers that
    catch it can still account for every cell of the sweep matrix.
    """

    def __init__(self, failures: list["FailedCell"]) -> None:
        self.failures = failures
        cells = ", ".join(f.key for f in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{len(failures)} sweep job(s) failed after retries: {cells}{more}"
        )


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"${name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float | None) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"${name} must be a number, got {raw!r}") from None


def resolve_retries(retries: int | None = None, default: int = 0) -> int:
    """Retry budget: explicit value > ``$REPRO_RETRIES`` > ``default``.

    Negative values clamp to zero (the first attempt always runs).
    """
    if retries is None:
        retries = _env_int(RETRIES_ENV, default)
    return max(0, retries)


def resolve_job_timeout(
    timeout: float | None = None, default: float | None = None
) -> float | None:
    """Watchdog seconds: explicit value > ``$REPRO_JOB_TIMEOUT`` > default.

    ``None`` or any value <= 0 disables the watchdog.
    """
    if timeout is None:
        timeout = _env_float(JOB_TIMEOUT_ENV, default)
    if timeout is not None and timeout <= 0:
        return None
    return timeout


@dataclass(frozen=True)
class RetryPolicy:
    """How a sweep job is re-attempted after a failure.

    ``retries`` is the number of *extra* attempts after the first (0
    preserves fail-fast behaviour); ``timeout`` is the per-attempt
    watchdog in seconds (``None`` disables it).  Backoff before attempt
    ``n+1`` is ``min(cap, base * 2**(n-1))`` scaled by a jitter factor
    drawn from a :class:`random.Random` seeded with ``(seed, key, n)``,
    so the schedule is deterministic per job without synchronising
    retries across workers.
    """

    retries: int = 0
    timeout: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    @classmethod
    def from_env(
        cls, retries: int | None = None, timeout: float | None = None
    ) -> "RetryPolicy":
        """Build a policy from explicit values with environment fallback."""
        return cls(
            retries=resolve_retries(retries),
            timeout=resolve_job_timeout(timeout),
        )

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to sleep before re-attempting ``key`` after ``attempt``."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1)))
        rng = random.Random(f"{self.seed}|{key}|{attempt}")
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class FailedCell:
    """One sweep cell that exhausted its retry budget.

    ``error`` is the exception type name (exceptions themselves may not
    pickle across the process pool), ``attempts`` counts every attempt
    made (first try included), and ``elapsed`` is the wall-clock seconds
    the job burned across all attempts — diagnostic only, never cached.
    """

    key: str
    index: int
    error: str
    message: str
    attempts: int
    elapsed: float

    def to_dict(self) -> dict:
        """Serialisable form for reports and ``--json`` payloads."""
        return {
            "key": self.key,
            "index": self.index,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


@dataclass
class JobOutcome:
    """What one job's execution (with retries) produced.

    Exactly one of ``result`` / ``failure`` is set.  ``retries`` counts
    re-attempts actually performed (0 for a first-try success), so the
    parent can aggregate a ``sweep/retries`` counter without trusting
    wall time.  A pool worker's cache append of the result reports its
    ``lock_waits`` and whether it gave up on the lock (``lock_timed_out``).
    """

    index: int
    key: str
    result: dict | None = None
    failure: FailedCell | None = None
    retries: int = 0
    lock_waits: int = 0
    lock_timed_out: bool = False

    # Results a crashed pool had appended, read back from the cache, are
    # flagged so reports can distinguish "recomputed" from "recovered".
    from_cache: bool = field(default=False, compare=False)


@contextmanager
def deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the body runs past ``seconds``.

    Implemented with ``SIGALRM`` (interval timer), which interrupts even
    a hung ``time.sleep`` or a tight pure-Python loop.  Degrades to a
    no-op when ``seconds`` is falsy, the platform has no ``SIGALRM``
    (Windows), or the caller is not the main thread (signals can only be
    installed there).  Pool workers run jobs on their main thread, and
    :meth:`~repro.sim.experiment.ExperimentRunner.prewarm` called off
    the main thread with a timeout hands even one job to a pool worker;
    a job run on any other thread is not watched.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise JobTimeoutError(f"job attempt exceeded {seconds:g}s watchdog")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
