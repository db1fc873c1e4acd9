"""Experiment runner with persistent result caching and parallel sweeps.

Every figure in the paper is a sweep of (machine configuration x trace
set); many machines recur across figures (the 2MB baseline appears in all
of them).  The runner memoises each (preset, machine, trace) run both in
memory and on disk (JSON-lines under ``.repro_cache/``), so the bench
suite shares work across files and across invocations.

Sweeps fan out across worker processes when ``jobs > 1`` (see
:mod:`repro.sim.parallel`): :meth:`ExperimentRunner.prewarm` collects the
uncached jobs of a sweep and shards them over a process pool.  Serial or
parallel, the process that computes a cell appends it to the cache file
under the cache lock, so the cache is a sweep's only crash record, and
every batch that produced a result ends with one locked rewrite that
leaves the file sorted by key.  Both paths produce bit-identical results
and cache files (enforced by ``tests/sim/test_parallel.py``).

Sweeps are *fault tolerant*: per-job retries/timeouts come from a
:class:`~repro.sim.retry.RetryPolicy` (``retries=``/``job_timeout=``
arguments, ``$REPRO_RETRIES``/``$REPRO_JOB_TIMEOUT`` environment
fallbacks), crashed workers are recovered by the sweep engine, and jobs
that exhaust their retries become :class:`~repro.sim.retry.FailedCell`
records — raised as one :class:`~repro.sim.retry.SweepFailedError` in
``strict`` mode (the default, preserving library fail-fast semantics)
or accumulated on :attr:`ExperimentRunner.failed_cells` otherwise.
Sweep-level health counters (``sweep/retries``, ``sweep/failures``,
``sweep/recovered_workers``…) are published to
:attr:`ExperimentRunner.registry`; they are process-local and never
enter the result cache.

Results are invalidated by bumping
:data:`~repro.sim.resultcache.CACHE_VERSION` whenever the simulator's
behaviour (or the on-disk format) changes; the runner reads only the
current version's file.

The persistence layer is multi-process safe: every disk write happens
under the cache's advisory lock (:mod:`repro.sim.locking`), a batch's
rewrite folds into — never clobbers — whatever concurrent writers
already persisted, and lock/integrity health is published as ``cache/*``
counters alongside the ``sweep/*`` ones.  Those counts come from what
each cache read and write returns (a
:class:`~repro.sim.resultcache.CacheFileReport` or
:class:`~repro.sim.resultcache.MergeStats`), so a runner counts its
own reads and writes and nothing else the process does; a rejected
line counts once per runner.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.obs.registry import CounterRegistry
from repro.sim import resultcache
from repro.sim.config import MachineConfig, Preset
from repro.sim.locking import LockTimeoutError
# Bound for benchmarks/e2e/spans.py, which wraps simulate_mix/_trace here.
from repro.sim.multi_core import MixRunResult, simulate_mix  # noqa: F401
from repro.sim.parallel import (
    MIX,
    SINGLE,
    SweepJob,
    SweepOutcome,
    execute_job,
    resolve_jobs,
    run_sweep,
)
from repro.sim.resultcache import (
    CACHE_VERSION,
    MergeStats,
    ResultStore,
    cache_file_name,
)
# Called by these names, which benchmarks/e2e/spans.py wraps in this module.
from repro.sim.resultcache import append_cache_entries, load_cache_entries
from repro.sim.retry import FailedCell, RetryPolicy, SweepFailedError
from repro.sim.single_core import RunResult, simulate_trace  # noqa: F401
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import SUITE_VERSION, TraceSuite
from repro.workloads.tracecache import process_cache

__all__ = ["CACHE_VERSION", "ExperimentRunner", "default_cache_dir"]

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """Cache location: $REPRO_CACHE_DIR or .repro_cache under the CWD."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.cwd() / ".repro_cache"


class ExperimentRunner:
    """Caches single-trace and mix runs for one preset.

    ``jobs`` controls sweep parallelism: ``None`` falls back to
    ``$REPRO_JOBS`` (default 1 = serial), ``0`` means one worker per CPU,
    ``N > 1`` uses N worker processes.  ``progress`` (if given) is called
    as ``progress(done, total, key)`` while a parallel sweep drains.

    ``cache_hits`` / ``cache_misses`` count, per requested run, whether
    it was served from the (memory or disk) cache or had to be simulated.

    ``retries`` / ``job_timeout`` configure the per-job
    :class:`~repro.sim.retry.RetryPolicy` (``None`` defers to
    ``$REPRO_RETRIES`` / ``$REPRO_JOB_TIMEOUT``; defaults: no retries,
    no timeout).  With ``strict=True`` (default) a sweep whose jobs
    exhaust their retries raises :class:`~repro.sim.retry
    .SweepFailedError` after caching every successful cell; with
    ``strict=False`` failures accumulate on ``failed_cells`` and the
    sweep completes — the CLI's graceful-degradation mode.

    ``lock_timeout`` bounds how long any cache write waits for the
    advisory cache lock (``None`` defers to ``$REPRO_LOCK_TIMEOUT``).
    Exhaustion counts in ``cache/lock_timeouts``; it raises
    :class:`~repro.sim.locking.LockTimeoutError`, except in a pool
    worker's append, whose result the batch end then writes.  The
    backoff sleeps of this runner's writes, its workers' appends
    included, are ``cache/lock_waits``.
    """

    def __init__(
        self,
        preset: Preset,
        cache_dir: Path | None = None,
        use_disk_cache: bool = True,
        jobs: int | None = None,
        progress=None,
        retries: int | None = None,
        job_timeout: float | None = None,
        strict: bool = True,
        lock_timeout: float | None = None,
    ) -> None:
        self.preset = preset
        self.suite = TraceSuite(preset.reference_llc_lines, preset.trace_length)
        self.use_disk_cache = use_disk_cache
        self.jobs = resolve_jobs(jobs)
        # Resolve $REPRO_TRACE_CACHE_ENTRIES here: a malformed value must
        # fail the command, not turn each job that first needs a trace
        # into a failed cell.
        process_cache()
        self.progress = progress
        self.fault_policy = RetryPolicy.from_env(retries, job_timeout)
        self.strict = strict
        self.lock_timeout = lock_timeout
        self.cache_hits = 0
        self.cache_misses = 0
        #: Jobs that exhausted their retry budget (strict=False mode).
        self.failed_cells: list[FailedCell] = []
        #: Process-local sweep health counters (``sweep/*``, ``cache/*``);
        #: never cached.
        self.registry = CounterRegistry()
        self._cache_path: Path | None = None
        if use_disk_cache:
            directory = cache_dir or default_cache_dir()
            directory.mkdir(parents=True, exist_ok=True)
            self._cache_path = directory / cache_file_name(preset.name)
        #: Every lookup goes through the store: disk results are read back
        #: and decoded on first use, and a line that fails its re-check or
        #: its decode reads as a miss.
        self._memory = ResultStore(self._cache_path)
        self._memory.on_reject = partial(self.registry.inc, "sweep/corrupt_lines")
        #: Rejected lines (all, CRC failures) this runner counted that the
        #: cache file still holds: a later read or scrub of the same lines
        #: counts only what exceeds them.
        self._unscrubbed = (0, 0)
        self.reload_disk_cache()

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def reload_disk_cache(self) -> None:
        """Fold the cache file's current lines into this runner's store.

        The constructor's load, and the refresh after another writer
        (a dispatch salvage) changed the file.  Results already decoded
        here are kept; a line whose decode already failed here is not
        taken again, so it is never counted twice.
        """
        if self._cache_path is None:
            return
        # Tolerant load: lines torn by an interrupted worker are skipped
        # (with a CorruptCacheLineWarning) instead of poisoning the cache.
        loaded = load_cache_entries(self._cache_path)
        self._memory.absorb(loaded)
        report = loaded.report
        assert report is not None  # a load always carries its census
        counted = (report.skipped, report.crc_failures)
        self._count_rejected(*counted, unscrubbed=counted)

    def _count_rejected(
        self, skipped: int, crc_failures: int, *, unscrubbed: tuple[int, int]
    ) -> None:
        """Count the rejected lines one read or rewrite of the cache saw.

        ``skipped`` lines were rejected, ``crc_failures`` of them on
        their CRC, and only what exceeds the lines this runner already
        counted and the file still held goes to ``sweep/corrupt_lines``
        and ``cache/crc_failures``.  Lines are known by count, not by
        identity.  ``unscrubbed`` is what the file holds afterwards:
        every rejected line after a load, none after a rewrite.
        """
        counted, counted_crc = self._unscrubbed
        if skipped > counted:
            self.registry.inc("sweep/corrupt_lines", skipped - counted)
        if crc_failures > counted_crc:
            self.registry.inc("cache/crc_failures", crc_failures - counted_crc)
        self._unscrubbed = unscrubbed

    def cache_write(
        self, write: Callable[..., MergeStats], *args: object
    ) -> MergeStats:
        """``write(cache_path, *args)`` under this runner's lock timeout.

        Every locked write of the cache file goes through here, so its
        lock waits and a :class:`~repro.sim.locking.LockTimeoutError`
        land in ``cache/lock_waits`` and ``cache/lock_timeouts``.
        """
        try:
            stats = write(self._cache_path, *args, lock_timeout=self.lock_timeout)
        except LockTimeoutError as error:
            self.registry.inc("cache/lock_timeouts")
            if error.waits:
                self.registry.inc("cache/lock_waits", error.waits)
            raise
        if stats.lock_waits:
            self.registry.inc("cache/lock_waits", stats.lock_waits)
        return stats

    def _store(self, key: str, result: dict) -> None:
        self._memory[key] = result
        if self._cache_path is not None:
            # Locked single-line append: serialises against concurrent
            # appenders and batch-end rewrites sharing this cache directory.
            self.cache_write(append_cache_entries, [(key, result)])

    @staticmethod
    def _single_key(machine: MachineConfig, trace_name: str, length: int) -> str:
        return f"single|s{SUITE_VERSION}|{machine.label}|{trace_name}|{length}"

    @staticmethod
    def _mix_key(machine: MachineConfig, mix: MixSpec, length: int) -> str:
        traces = ",".join(mix.trace_names)
        return f"mix|s{SUITE_VERSION}|{machine.label}|{mix.name}:{traces}|{length}"

    # ------------------------------------------------------------------
    # Sweep fan-out
    # ------------------------------------------------------------------

    def prewarm(
        self,
        pairs: Iterable[tuple[MachineConfig, str]] = (),
        mixes: Iterable[tuple[MachineConfig, MixSpec]] = (),
    ) -> int:
        """Ensure every requested run is cached; returns runs simulated.

        Cached (or duplicate) requests count as cache hits; the unique
        uncached remainder is simulated — across ``self.jobs`` worker
        processes when more than one job is pending, serially otherwise.
        Off the main thread, a runner with a job timeout sends even one
        job to a worker process: the watchdog
        (:func:`~repro.sim.retry.deadline`) can only be armed on a
        process's main thread.  Either way the process that computes a
        cell appends it to the cache file at once, and a batch that
        produced a result ends with one locked rewrite that folds in
        its results and sorts the file by key
        (:func:`~repro.sim.resultcache.canonicalize_cache_file`), so
        serial and parallel sweeps produce byte-identical cache files.

        Jobs that exhaust their retry budget are excluded from the
        returned count; in strict mode they raise
        :class:`~repro.sim.retry.SweepFailedError` (after every
        successful cell is cached), otherwise they land on
        ``failed_cells`` and the corresponding runs stay uncached.

        A call is one batch: it generates each trace it needs once,
        through the process trace memo
        (:func:`~repro.workloads.tracecache.process_cache`), and empties
        that memo when it ends, raising or not.
        """
        length = self.preset.trace_length
        pending: list[SweepJob] = []
        seen: set[str] = set()

        def consider(key: str, job: SweepJob) -> None:
            """Queue the cell unless memory, disk or this batch has it."""
            if key in self._memory or key in seen:
                self.cache_hits += 1
                return
            seen.add(key)
            pending.append(job)

        for machine, trace_name in pairs:
            key = self._single_key(machine, trace_name, length)
            consider(
                key,
                SweepJob(key=key, kind=SINGLE, machine=machine, trace_name=trace_name),
            )
        for machine, mix in mixes:
            key = self._mix_key(machine, mix, length)
            consider(key, SweepJob(key=key, kind=MIX, machine=machine, mix=mix))

        try:
            if not pending:
                return 0
            self.cache_misses += len(pending)
            unwatched = (
                self.fault_policy.timeout is not None
                and threading.current_thread() is not threading.main_thread()
            )
            if unwatched or (self.jobs > 1 and len(pending) > 1):
                outcome = run_sweep(
                    self.preset,
                    pending,
                    jobs=self.jobs,
                    cache_path=self._cache_path,
                    progress=self.progress,
                    policy=self.fault_policy,
                    lock_timeout=self.lock_timeout,
                )
                for job, result in zip(pending, outcome.results):
                    if result is not None:
                        self._memory[job.key] = result
            else:
                # Serial path: same execution primitive (retries, watchdog,
                # fault hooks) as the workers, one job at a time.
                outcome = SweepOutcome(results=[None] * len(pending))
                for index, job in enumerate(pending):
                    job_outcome = execute_job(
                        index, job, self.preset, self.suite, self.fault_policy
                    )
                    outcome.retries += job_outcome.retries
                    if job_outcome.failure is not None:
                        outcome.failures.append(job_outcome.failure)
                    else:
                        outcome.results[index] = job_outcome.result
                        self._store(job.key, job_outcome.result)
            try:
                self._end_batch(pending, outcome.results)
            finally:
                # A batch end that gives up on the lock still reports the
                # batch's retries, failures and workers' lock timeouts.
                self._note_outcome(outcome)
            if outcome.failures and self.strict:
                raise SweepFailedError(list(outcome.failures))
            return len(pending) - len(outcome.failures)
        finally:
            # The batch generated each trace it needed once; nothing it
            # built is read after it ends.
            process_cache().clear()

    def _end_batch(
        self, pending: Sequence[SweepJob], results: Sequence[dict | None]
    ) -> None:
        """End a batch that produced a result with one sorted rewrite.

        The batch's own results ride along, so one whose appended line
        a tear lost, or whose append gave up on the lock, is written
        back; the rewrite scrubs what it rejects, and counts the lines
        this runner had not counted yet.  It is called through the
        module, where ``benchmarks/e2e/spans.py`` times it.
        """
        batch = [
            (job.key, result)
            for job, result in zip(pending, results)
            if result is not None
        ]
        if self._cache_path is None or not batch:
            return
        stats = self.cache_write(resultcache.canonicalize_cache_file, batch)
        self._count_rejected(
            stats.corrupt_lines, stats.crc_failures, unscrubbed=(0, 0)
        )

    def _note_outcome(self, outcome: SweepOutcome) -> None:
        """Fold one sweep's health counters into the runner's registry."""
        self.failed_cells.extend(outcome.failures)
        for name, amount in (
            ("sweep/retries", outcome.retries),
            ("sweep/failures", len(outcome.failures)),
            ("sweep/recovered_workers", outcome.recovered_workers),
            ("sweep/cache_recovered", outcome.cache_recovered),
            ("cache/lock_waits", outcome.lock_waits),
            ("cache/lock_timeouts", outcome.lock_timeouts),
        ):
            if amount:
                self.registry.inc(name, amount)

    @property
    def cache_path(self) -> Path | None:
        """The on-disk cache file this runner reads and writes (if any)."""
        return self._cache_path

    @property
    def corrupt_lines_skipped(self) -> int:
        """Corrupt cache lines skipped so far: the ``sweep/corrupt_lines`` count.

        Lines rejected at load, at a result's first use, or by a batch
        end's rewrite.
        """
        metric = self.registry.as_dict().get("sweep/corrupt_lines")
        return metric["value"] if metric else 0

    def job_key(self, machine: MachineConfig, trace_name: str) -> str:
        """Public cache key for one (machine, trace) run at this preset.

        The key the experiment service dedupes on: identical keys mean
        identical simulations, so a submission matching a cached or
        in-flight key never reaches a worker.
        """
        return self._single_key(machine, trace_name, self.preset.trace_length)

    def cached_payload(self, key: str) -> dict | None:
        """The cached serialised result for ``key``, or ``None`` (no accounting)."""
        return self._memory.get(key)

    def _single_result(self, machine: MachineConfig, trace_name: str) -> RunResult:
        """Fetch a prewarmed single run from memory (no accounting)."""
        key = self._single_key(machine, trace_name, self.preset.trace_length)
        return RunResult.from_dict(self._prewarmed(key))

    def _prewarmed(self, key: str) -> dict:
        """The result a prewarm cached for ``key``.

        A cell that failed in a non-strict runner has none: its
        :class:`~repro.sim.retry.FailedCell` is raised as a
        :class:`~repro.sim.retry.SweepFailedError`, never a bare
        ``KeyError``.
        """
        try:
            return self._memory[key]
        except KeyError:
            failures = [f for f in self.failed_cells if f.key == key]
            raise SweepFailedError(failures) from None

    def has_cached(self, machine: MachineConfig, trace_name: str) -> bool:
        """Whether a (machine, trace) run is already cached (no accounting)."""
        key = self._single_key(machine, trace_name, self.preset.trace_length)
        return key in self._memory

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run_single(self, machine: MachineConfig, trace_name: str) -> RunResult:
        """One (machine, trace) run, cached; a miss is a one-cell prewarm."""
        key = self._single_key(machine, trace_name, self.preset.trace_length)
        cached = self._memory.get(key)
        if cached is None:
            self.prewarm([(machine, trace_name)])
            cached = self._prewarmed(key)
        else:
            self.cache_hits += 1
        return RunResult.from_dict(cached)

    def run_many(
        self, machine: MachineConfig, trace_names: Iterable[str]
    ) -> list[RunResult]:
        """Run a machine across a list of traces (parallel when jobs > 1)."""
        names = list(trace_names)
        self.prewarm((machine, name) for name in names)
        return [self._single_result(machine, name) for name in names]

    def run_mix(self, machine: MachineConfig, mix: MixSpec) -> MixRunResult:
        """One multi-program mix run, cached; a miss is a one-cell prewarm."""
        key = self._mix_key(machine, mix, self.preset.trace_length)
        cached = self._memory.get(key)
        if cached is None:
            self.prewarm(mixes=[(machine, mix)])
            cached = self._prewarmed(key)
        else:
            self.cache_hits += 1
        return MixRunResult.from_dict(cached)

    def run_mixes(
        self, machine: MachineConfig, mixes: Sequence[MixSpec]
    ) -> list[MixRunResult]:
        """Run a machine across mixes (parallel when jobs > 1)."""
        self.prewarm(mixes=((machine, mix) for mix in mixes))
        length = self.preset.trace_length
        return [
            MixRunResult.from_dict(self._prewarmed(self._mix_key(machine, mix, length)))
            for mix in mixes
        ]

    def run_pair(
        self,
        baseline: MachineConfig,
        candidate: MachineConfig,
        trace_names: Sequence[str],
    ) -> list[tuple[RunResult, RunResult]]:
        """(baseline, candidate) runs per trace, for ratio metrics."""
        names = list(trace_names)
        self.prewarm(
            [(baseline, name) for name in names]
            + [(candidate, name) for name in names]
        )
        return [
            (self._single_result(baseline, name), self._single_result(candidate, name))
            for name in names
        ]
