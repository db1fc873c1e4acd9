"""Fault-tolerant parallel sweep execution engine.

Every figure in the paper is an embarrassingly parallel sweep of
(machine configuration x trace) plus a handful of multi-program mixes.
This module fans the *uncached* jobs of such a sweep across a process
pool with chunked work distribution while keeping three guarantees the
experiment cache depends on:

* **Determinism** — results are returned in submission order, and each
  simulation is a pure function of (preset, machine, trace/mix), so a
  parallel sweep is bit-identical to a serial one (locked down by
  ``tests/sim/test_parallel.py``), *even when jobs are retried or
  workers crash* (``tests/sim/test_faults.py``).
* **Cooperating writers** — each worker appends every result it
  finishes straight to the main ``results-v*.jsonl`` cache, under the
  cache's advisory lock, as the serial path does.  The batch then ends
  in :meth:`~repro.sim.experiment.ExperimentRunner.prewarm` with one
  locked, atomic rewrite sorted by key
  (:func:`~repro.sim.resultcache.canonicalize_cache_file`), so any
  number of overlapping sweeps sharing one cache directory cooperate
  instead of clobbering each other, and converge on the serial bytes.
* **Crash tolerance** — each append (:func:`~repro.sim.resultcache
  .append_cache_entries`) is written and synced per job, so the cache
  is the sweep's only crash record: a killed sweep's finished cells are
  cached for its rerun, and a line torn by a crash is never glued onto
  the next one.  The tolerant reader in :mod:`repro.sim.resultcache` skips
  any torn line and the batch end scrubs and counts it.  A worker whose
  append gives up on the lock still returns its result, and the batch
  end writes it.

On top of the scheduling layer sits a fault-tolerance layer in the
shape of a production job runner:

* every job attempt runs under a :class:`~repro.sim.retry.RetryPolicy`
  (seeded exponential backoff) and an optional ``SIGALRM`` watchdog
  (:func:`~repro.sim.retry.deadline`), so transient errors and hangs
  become retries instead of sweep aborts;
* a worker crash breaks the pool, which the parent *rebuilds* — jobs
  the dead pool already appended are looked up in the cache, the rest
  are re-sharded across the fresh pool (bounded by
  :data:`MAX_WORKER_RECOVERIES`);
* jobs that exhaust their retry budget degrade gracefully into
  structured :class:`~repro.sim.retry.FailedCell` records inside the
  returned :class:`SweepOutcome` — the sweep itself completes.

Worker processes build one :class:`~repro.workloads.suite.TraceSuite`
each (in the pool initializer) so generated traces are reused across all
jobs a worker executes; a pool lives for one sweep, so its memo does
too.  All callables handed to the pool are picklable
top-level functions.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from repro.sim import faultinject
from repro.sim.config import MachineConfig, Preset
from repro.sim.locking import LockTimeoutError
from repro.sim.multi_core import simulate_mix
from repro.sim.resultcache import append_cache_entries, load_cache_entries
from repro.sim.retry import FailedCell, JobOutcome, RetryPolicy, deadline
from repro.sim.single_core import simulate_trace
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import TraceSuite

#: Environment variable overriding the worker count (0 = all CPUs).
JOBS_ENV = "REPRO_JOBS"

#: Job kinds.
SINGLE = "single"
MIX = "mix"

#: How many broken-pool rebuilds a single sweep tolerates before the
#: crash is considered systematic and re-raised.
MAX_WORKER_RECOVERIES = 5

#: Progress callback signature: (done, total, key-of-last-finished-job).
ProgressFn = Callable[[int, int, str], None]


def resolve_jobs(jobs: int | None = None, default: int = 1) -> int:
    """Resolve a worker count: explicit value > $REPRO_JOBS > ``default``.

    Zero or negative values (from any source) mean "one worker per CPU".
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"${JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = default
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


@dataclass(frozen=True)
class SweepJob:
    """One pending simulation: a cache key plus what to simulate."""

    key: str
    kind: str  # SINGLE or MIX
    machine: MachineConfig
    trace_name: str = ""
    mix: MixSpec | None = None


@dataclass
class SweepOutcome:
    """Everything a fault-tolerant sweep produced, success or not.

    ``results`` is in submission order; an entry is ``None`` exactly
    when the matching job appears in ``failures``.  The counters feed
    the ``sweep/*`` and ``cache/*`` observability metrics: ``retries``
    (re-attempts across all jobs), ``recovered_workers`` (pool rebuilds
    after worker crashes), ``cache_recovered`` (results a dead pool had
    appended, taken from the cache instead of recomputed), and
    ``lock_waits`` and ``lock_timeouts`` (backoff sleeps on the cache
    lock, and appends that gave up on it, in the workers' appends).
    """

    results: list[dict | None] = field(default_factory=list)
    failures: list[FailedCell] = field(default_factory=list)
    retries: int = 0
    recovered_workers: int = 0
    cache_recovered: int = 0
    lock_waits: int = 0
    lock_timeouts: int = 0

    @property
    def ok(self) -> bool:
        """True when every job produced a result."""
        return not self.failures


def simulate_job(job: SweepJob, preset: Preset, suite: TraceSuite) -> dict:
    """Run one sweep job to its serialised result dict.

    Shared by the serial path (:class:`~repro.sim.experiment
    .ExperimentRunner`) and the pool workers so both produce identical
    results by construction.
    """
    if job.kind == SINGLE:
        trace = suite.trace(job.trace_name)
        data = suite.data_model(job.trace_name)
        return simulate_trace(trace, data, job.machine, preset).to_dict()
    if job.kind == MIX:
        assert job.mix is not None
        return simulate_mix(job.mix, job.machine, preset, suite).to_dict()
    raise ValueError(f"unknown job kind {job.kind!r}")


def execute_job(
    index: int,
    job: SweepJob,
    preset: Preset,
    suite: TraceSuite,
    policy: RetryPolicy,
) -> JobOutcome:
    """Run one job under the retry policy, watchdog and fault hooks.

    The single execution primitive shared by pool workers and the serial
    path, so ``jobs=1`` and ``jobs=N`` sweeps retry, time out and fail
    identically.  Never raises for job errors: retry exhaustion returns
    a :class:`~repro.sim.retry.FailedCell` outcome instead.
    """
    attempt = 0
    started = time.perf_counter()
    while True:
        attempt += 1
        try:
            with deadline(policy.timeout):
                faultinject.before_attempt(index, attempt)
                result = simulate_job(job, preset, suite)
            return JobOutcome(index=index, key=job.key, result=result, retries=attempt - 1)
        except Exception as exc:  # noqa: BLE001 — the retry boundary
            if attempt > policy.retries:
                failure = FailedCell(
                    key=job.key,
                    index=index,
                    error=type(exc).__name__,
                    message=str(exc),
                    attempts=attempt,
                    elapsed=time.perf_counter() - started,
                )
                return JobOutcome(
                    index=index, key=job.key, failure=failure, retries=attempt - 1
                )
            time.sleep(policy.delay(job.key, attempt))


# ----------------------------------------------------------------------
# Worker-process side.  State lives in a module-level dict set up by the
# pool initializer; with the spawn start method the module is re-imported
# in each worker, so nothing here may depend on parent-process state.
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(
    preset: Preset,
    cache_path: Path | None,
    lock_timeout: float | None,
    policy: RetryPolicy,
) -> None:
    """Pool initializer: build the per-process suite, cache target, policy."""
    _WORKER["preset"] = preset
    _WORKER["suite"] = TraceSuite(preset.reference_llc_lines, preset.trace_length)
    _WORKER["policy"] = policy
    _WORKER["cache_path"] = cache_path
    _WORKER["lock_timeout"] = lock_timeout


def _run_chunk(chunk: Sequence[tuple[int, SweepJob]]) -> list[JobOutcome]:
    """Execute a chunk of jobs in a worker; append successes to the cache."""
    outcomes: list[JobOutcome] = []
    cache_path: Path | None = _WORKER["cache_path"]
    for index, job in chunk:
        outcome = execute_job(
            index, job, _WORKER["preset"], _WORKER["suite"], _WORKER["policy"]
        )
        # Append per job, as the serial path does, so a later crash
        # loses at most the line being written.
        if outcome.result is not None and cache_path is not None:
            try:
                outcome.lock_waits = append_cache_entries(
                    cache_path,
                    [(job.key, outcome.result)],
                    lock_timeout=_WORKER["lock_timeout"],
                    after=partial(faultinject.after_cache_append, index, cache_path),
                ).lock_waits
            except LockTimeoutError as error:
                outcome.lock_waits = error.waits
                outcome.lock_timed_out = True
        outcomes.append(outcome)
    return outcomes


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork where available (fast start, no import tax).

    ``import repro`` leaves NumPy unloaded, so before a fork the parent
    imports the two modules that need it; every worker inherits them
    instead of importing NumPy at its first trace.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    import repro.compression.kernels  # noqa: F401
    import repro.workloads.generators  # noqa: F401

    return multiprocessing.get_context("fork")


# ----------------------------------------------------------------------
# Parent-process side.
# ----------------------------------------------------------------------


def run_sweep(
    preset: Preset,
    jobs_list: Sequence[SweepJob],
    *,
    jobs: int,
    cache_path: Path | None = None,
    progress: ProgressFn | None = None,
    chunksize: int | None = None,
    policy: RetryPolicy | None = None,
    lock_timeout: float | None = None,
) -> SweepOutcome:
    """Simulate ``jobs_list`` across ``jobs`` workers; results in job order.

    When ``cache_path`` is given, each worker appends every result it
    finishes to it, under the cache's advisory lock with
    ``lock_timeout`` bounding the wait; the caller ends the batch with
    the sorted rewrite.  Keys in ``jobs_list`` must be unique.

    The sweep survives worker faults: per-job retries/timeouts are
    governed by ``policy`` (default: no retries, no timeout), a crashed
    pool is rebuilt with the jobs it had appended taken from the cache,
    and jobs that exhaust their retries surface as
    :attr:`SweepOutcome.failures` rather than exceptions.  Only a
    systematic crash (more than :data:`MAX_WORKER_RECOVERIES` pool
    rebuilds) propagates as :class:`BrokenProcessPool`.
    """
    policy = policy or RetryPolicy()
    total = len(jobs_list)
    outcome = SweepOutcome(results=[None] * total)
    if total == 0:
        return outcome
    workers = max(1, min(jobs, total))
    finished: set[int] = set()

    def record(job_outcome: JobOutcome) -> None:
        """Fold one job outcome into the sweep, once per index."""
        if job_outcome.index in finished:
            return
        finished.add(job_outcome.index)
        outcome.retries += job_outcome.retries
        outcome.lock_waits += job_outcome.lock_waits
        outcome.lock_timeouts += job_outcome.lock_timed_out
        if job_outcome.failure is not None:
            outcome.failures.append(job_outcome.failure)
        else:
            outcome.results[job_outcome.index] = job_outcome.result
            if job_outcome.from_cache:
                outcome.cache_recovered += 1
        if progress is not None:
            progress(len(finished), total, job_outcome.key)

    remaining = list(range(total))
    recoveries_left = MAX_WORKER_RECOVERIES
    while remaining:
        pending = [(index, jobs_list[index]) for index in remaining]
        chunk = chunksize or max(1, math.ceil(len(pending) / (workers * 4)))
        chunks = [
            pending[start : start + chunk] for start in range(0, len(pending), chunk)
        ]
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(preset, cache_path, lock_timeout, policy),
            ) as pool:
                for future in as_completed(
                    [pool.submit(_run_chunk, part) for part in chunks]
                ):
                    for job_outcome in future.result():
                        record(job_outcome)
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault, os._exit).  What
            # the dead pool finished is already in the cache: take it
            # from there, then rebuild and re-shard the rest.
            if recoveries_left == 0:
                raise
            recoveries_left -= 1
            outcome.recovered_workers += 1
            if cache_path is not None:
                cached = load_cache_entries(cache_path)
                for index in remaining:
                    key = jobs_list[index].key
                    if index not in finished and key in cached:
                        recovered = JobOutcome(index, key, cached[key], from_cache=True)
                        record(recovered)
        remaining = [index for index in range(total) if index not in finished]
    return outcome
