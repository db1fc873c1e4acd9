"""Experiment runner with persistent result caching and parallel sweeps.

Every figure in the paper is a sweep of (machine configuration x trace
set); many machines recur across figures (the 2MB baseline appears in all
of them).  The runner memoises each (preset, machine, trace) run both in
memory and on disk (JSON-lines under ``.repro_cache/``), so the bench
suite shares work across files and across invocations.

Sweeps fan out across worker processes when ``jobs > 1`` (see
:mod:`repro.sim.parallel`): :meth:`ExperimentRunner.prewarm` collects the
uncached jobs of a sweep, shards them over a process pool, and merges the
per-worker result shards back into the main cache file.  ``jobs=1``
preserves the strictly serial path, and both paths produce bit-identical
results and cache files (enforced by ``tests/sim/test_parallel.py``).

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
under the cache's advisory lock (:mod:`repro.sim.locking`), sweep
merges fold into — never clobber — whatever concurrent writers already
persisted, and lock/integrity health is published as ``cache/*``
counters alongside the ``sweep/*`` ones.  Those counts come from what
each cache read and write returns (a
:class:`~repro.sim.resultcache.CacheFileReport` or
:class:`~repro.sim.resultcache.MergeStats`), so a runner counts its
own reads and writes and nothing else the process does.
"""

from __future__ import annotations

import os
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.obs.registry import CounterRegistry
from repro.sim.config import MachineConfig, Preset
from repro.sim.locking import LockTimeoutError, _pid_alive
from repro.sim.multi_core import MixRunResult, simulate_mix
from repro.sim.parallel import (
    MIX,
    SINGLE,
    SweepJob,
    SweepOutcome,
    _remove_shards,
    execute_job,
    resolve_jobs,
    run_sweep,
)
from repro.sim.resultcache import (
    CACHE_VERSION,
    MergeStats,
    ResultStore,
    append_cache_entries,
    cache_file_name,
    load_cache_entries,
    merge_cache_entries,
    read_cache_entries,
)
from repro.sim.retry import FailedCell, RetryPolicy, SweepFailedError
from repro.sim.single_core import RunResult, simulate_trace
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


def _owner_is_alive(shard_dir: Path) -> bool:
    """Whether the process that owns ``<stem>.shards-<pid>`` still runs.

    Shard directories encode their sweep's parent pid; one from a live
    process (including ours) belongs to an in-flight sweep and must not
    be salvaged.  An unparseable suffix is treated as dead — better to
    salvage a stray directory than to leak results forever.
    """
    try:
        pid = int(shard_dir.name.rsplit("-", 1)[-1])
    except ValueError:
        return False
    return pid == os.getpid() or _pid_alive(pid)


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
    advisory cache lock (``None`` defers to ``$REPRO_LOCK_TIMEOUT``;
    exhaustion raises :class:`~repro.sim.locking.LockTimeoutError`,
    counted in ``cache/lock_timeouts``; the backoff sleeps of this
    runner's writes are ``cache/lock_waits``).
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
        #: Every lookup goes through the store: disk results are decoded
        #: on first use, and a line that fails to decode reads as a miss.
        self._memory = ResultStore(self._cache_path)
        self._memory.on_reject = partial(self.registry.inc, "sweep/corrupt_lines")
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
        if report.skipped:
            self.registry.inc("sweep/corrupt_lines", report.skipped)
        if report.crc_failures:
            self.registry.inc("cache/crc_failures", report.crc_failures)

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
            self._note_timeout(error)
            raise
        if stats.lock_waits:
            self.registry.inc("cache/lock_waits", stats.lock_waits)
        return stats

    def _note_timeout(self, error: LockTimeoutError) -> None:
        """Count a write that gave up on the cache lock, and its waits."""
        self.registry.inc("cache/lock_timeouts")
        if error.waits:
            self.registry.inc("cache/lock_waits", error.waits)

    def resume_orphan_shards(self) -> list[str]:
        """Salvage shard files a killed sweep left behind; returns their keys.

        A parent SIGKILLed mid-sweep never reaches the shard merge, so
        completed cells survive only in ``<cache>.shards-<pid>/`` files.
        This folds every entry from shard directories whose owning
        process is dead into the cache (memory and disk), deletes the
        directories, and reports the recovered keys — the
        ``repro sweep --resume`` path.  Entries already cached are not
        duplicated.
        """
        if self._cache_path is None:
            return []
        recovered: dict[str, dict] = {}
        orphans: list[Path] = []
        pattern = f"{self._cache_path.stem}.shards-*"
        for shard_dir in sorted(self._cache_path.parent.glob(pattern)):
            if _owner_is_alive(shard_dir):
                continue  # an in-flight sweep owns it; not ours to touch
            orphans.append(shard_dir)
            for shard in sorted(shard_dir.glob("shard-*.jsonl")):
                for key, result in read_cache_entries(shard)[0].items():
                    if key not in self._memory and key not in recovered:
                        recovered[key] = result
        if recovered:
            # Fold-in merge (not append): if a concurrent process resumed
            # the same orphans first, its entries win and nothing is
            # duplicated.
            self.cache_write(merge_cache_entries, recovered.items())
            self._memory.update(recovered)
            self.registry.inc("sweep/resumed_cells", len(recovered))
        for shard_dir in orphans:
            _remove_shards(shard_dir)
        return sorted(recovered)

    def _store(self, key: str, result: dict) -> None:
        self._memory[key] = result
        if self._cache_path is not None:
            # Locked single-line append: serialises against concurrent
            # appenders and sweep merges sharing this cache directory.
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
        Pending jobs enter the cache (memory and disk) in request order
        either way, so serial and parallel sweeps produce byte-identical
        cache files.

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
            if self.jobs > 1 and len(pending) > 1:
                try:
                    outcome = run_sweep(
                        self.preset,
                        pending,
                        jobs=self.jobs,
                        cache_path=self._cache_path,
                        progress=self.progress,
                        policy=self.fault_policy,
                        lock_timeout=self.lock_timeout,
                    )
                except LockTimeoutError as error:
                    self._note_timeout(error)
                    raise
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
            self._note_outcome(outcome)
            if outcome.failures and self.strict:
                raise SweepFailedError(list(outcome.failures))
            return len(pending) - len(outcome.failures)
        finally:
            # The batch generated each trace it needed once; nothing it
            # built is read after it ends.
            process_cache().clear()

    def _note_outcome(self, outcome: SweepOutcome) -> None:
        """Fold one sweep's health counters into the runner's registry."""
        self.failed_cells.extend(outcome.failures)
        for name, amount in (
            ("sweep/retries", outcome.retries),
            ("sweep/failures", len(outcome.failures)),
            ("sweep/recovered_workers", outcome.recovered_workers),
            ("sweep/shard_recovered", outcome.shard_recovered),
            ("sweep/corrupt_lines", outcome.corrupt_lines),
            ("cache/crc_failures", outcome.crc_failures),
            ("cache/lock_waits", outcome.lock_waits),
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

        Lines rejected at load, at a result's first use, or by a sweep
        merge.
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
        return RunResult.from_dict(self._memory[key])

    def has_cached(self, machine: MachineConfig, trace_name: str) -> bool:
        """Whether a (machine, trace) run is already cached (no accounting)."""
        key = self._single_key(machine, trace_name, self.preset.trace_length)
        return key in self._memory

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------

    def run_single(self, machine: MachineConfig, trace_name: str) -> RunResult:
        """One (machine, trace) run, cached."""
        key = self._single_key(machine, trace_name, self.preset.trace_length)
        cached = self._memory.get(key)
        if cached is not None:
            self.cache_hits += 1
            return RunResult.from_dict(cached)
        self.cache_misses += 1
        trace = self.suite.trace(trace_name)
        data = self.suite.data_model(trace_name)
        result = simulate_trace(trace, data, machine, self.preset)
        self._store(key, result.to_dict())
        return result

    def run_many(
        self, machine: MachineConfig, trace_names: Iterable[str]
    ) -> list[RunResult]:
        """Run a machine across a list of traces (parallel when jobs > 1)."""
        names = list(trace_names)
        self.prewarm((machine, name) for name in names)
        return [self._single_result(machine, name) for name in names]

    def run_mix(self, machine: MachineConfig, mix: MixSpec) -> MixRunResult:
        """One multi-program mix run, cached."""
        key = self._mix_key(machine, mix, self.preset.trace_length)
        cached = self._memory.get(key)
        if cached is not None:
            self.cache_hits += 1
            return MixRunResult.from_dict(cached)
        self.cache_misses += 1
        result = simulate_mix(mix, machine, self.preset, self.suite)
        self._store(key, result.to_dict())
        return result

    def run_mixes(
        self, machine: MachineConfig, mixes: Sequence[MixSpec]
    ) -> list[MixRunResult]:
        """Run a machine across mixes (parallel when jobs > 1)."""
        self.prewarm(mixes=((machine, mix) for mix in mixes))
        length = self.preset.trace_length
        return [
            MixRunResult.from_dict(self._memory[self._mix_key(machine, mix, length)])
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
