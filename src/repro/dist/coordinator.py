"""The ``repro dispatch`` coordinator: shard one sweep across serve workers.

One coordinator owns one preset, one result cache and one job matrix.
It drops every cell the local cache already answers, shards the
remainder into batch leases (serve-protocol ``lease`` frames) over any
mix of TCP and unix-socket workers, and folds the pulled-back results
into its cache so the distributed sweep is indistinguishable — byte for
byte — from a serial one.

Fault model, in the order the machinery engages:

* **Worker loss / partition** — any transport error, rejected lease,
  severed stream or injected ``worker-lost``/``net-partition`` fault
  marks the worker lost.  Its unfinished jobs are requeued and
  *reassigned* to surviving workers after a seeded backoff
  (:class:`~repro.sim.retry.RetryPolicy` — deterministic per (job key,
  attempt), like every sweep retry).  A worker that keeps failing
  retires after ``worker_retries`` losses.
* **Hung workers** — mid-lease silence is probed with ``ping``/``pong``
  heartbeats; a worker that answers nothing for the heartbeat deadline
  (the ``slow-worker`` fault's target) is declared lost *proactively*,
  instead of blocking until a transport error.
* **Duplicate completion** — a partitioned worker may still finish jobs
  the coordinator has meanwhile reassigned; whichever result arrives
  first wins the fold-in and the loser is a counted no-op
  (``dist/duplicate_results``), never a second write.
* **Torn pulls** — results stream back per job and are staged into
  local checksummed shard files (one per worker).  The fold reads the
  staged bytes tolerantly: a CRC-failed line (the ``remote-torn-merge``
  fault) is rejected and the entry recovered from the in-memory copy,
  so corruption in transit cannot reach the cache.
* **Coordinator death** — every decision is journaled write-ahead
  (:mod:`repro.dist.journal`) and staged shards fold into the cache
  every ``fold_every`` completed leases, so a ``kill -9`` (the
  ``coordinator-crash`` fault) loses at most one fold window of work.
  ``repro dispatch --resume`` replays the journal, salvages
  staged-but-unfolded results from the dead coordinator's shards, and
  re-leases only the remainder; stale shard directories and orphaned
  journals from dead coordinators are reclaimed on startup (live ones
  are never touched — the stale-socket discipline).

Byte-determinism: the fold is the existing locked, atomic
:func:`~repro.sim.resultcache.merge_cache_entries` (existing keys win)
followed by :func:`~repro.sim.resultcache.canonicalize_cache_file`, so
the final cache is a pure function of the set of jobs — identical to a
canonicalized serial ``repro sweep`` of the same matrix, no matter how
many workers ran, died, or answered twice.

Every decision lands in ``dist/*`` counters on the runner's registry,
snapshotted to ``dist-stats.json`` for ``repro stats``.
"""

from __future__ import annotations

import os
import shutil
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.dist.journal import (
    DispatchJournal,
    JournalReplay,
    journal_path,
    replay_journal,
)
from repro.dist.worker import LocalWorkerPool, WorkerEndpoint
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeClientError, ServeTimeout
from repro.sim import faultinject
from repro.sim.config import MachineConfig, PRESETS
from repro.sim.experiment import ExperimentRunner, default_cache_dir
from repro.sim.locking import _pid_alive
from repro.sim.resultcache import (
    canonicalize_cache_file,
    corrupt_line_count,
    crc_failure_count,
    encode_entry,
    iter_cache_entries,
    merge_cache_entries,
)
from repro.sim.retry import RetryPolicy

#: Default jobs per lease: small enough that a lost worker forfeits
#: little work, large enough to amortise the per-lease handshake.
DEFAULT_LEASE_SIZE = 8

#: Default losses a worker survives before the coordinator retires it.
DEFAULT_WORKER_RETRIES = 2

#: Default completed leases per streaming partial fold-in.  1 = fold
#: after every lease (the tightest crash window); 0 disables partial
#: folds and restores the fold-only-at-the-end behaviour.
DEFAULT_FOLD_EVERY = 1

#: Default seconds of mid-lease silence before the coordinator pings a
#: worker.  0/None disables heartbeats entirely.
DEFAULT_HEARTBEAT_INTERVAL = 5.0

#: Default heartbeat deadline as a multiple of the interval: a worker
#: silent (no events, no pongs) for this long is declared lost.
HEARTBEAT_DEADLINE_FACTOR = 3.0


class DispatchError(RuntimeError):
    """A coordinator-level failure with a clean one-line message."""


@dataclass(frozen=True)
class DispatchJob:
    """One uncached matrix cell, pinned to its submission order."""

    index: int
    key: str
    spec: protocol.JobSpec


@dataclass
class WorkerHealth:
    """Per-worker liveness and accounting the coordinator tracks."""

    endpoint: WorkerEndpoint
    leases: int = 0
    completed: int = 0
    failed: int = 0
    losses: int = 0
    heartbeats_missed: int = 0
    retired: bool = False

    def to_dict(self) -> dict:
        """Serialisable form for reports and the stats snapshot."""
        return {
            "name": self.endpoint.name,
            "address": self.endpoint.address.describe(),
            "leases": self.leases,
            "completed": self.completed,
            "failed": self.failed,
            "losses": self.losses,
            "heartbeats_missed": self.heartbeats_missed,
            "retired": self.retired,
        }


@dataclass
class DispatchReport:
    """What one dispatch did, cell by cell and worker by worker."""

    total: int
    cached: int
    dispatched: int
    completed: int = 0
    reassigned: int = 0
    duplicates: int = 0
    workers_lost: int = 0
    leases: int = 0
    merged_new: int = 0
    merged_existing: int = 0
    canonical_entries: int = 0
    recovered_from_memory: int = 0
    shard_crc_rejected: int = 0
    folds_partial: int = 0
    heartbeats_missed: int = 0
    resumes: int = 0
    salvaged: int = 0
    stale_shards_reclaimed: int = 0
    failures: list[dict] = field(default_factory=list)
    workers: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Serialisable form for ``--json`` and the stats snapshot."""
        return {
            "total": self.total,
            "cached": self.cached,
            "dispatched": self.dispatched,
            "completed": self.completed,
            "reassigned": self.reassigned,
            "duplicates": self.duplicates,
            "workers_lost": self.workers_lost,
            "leases": self.leases,
            "merged_new": self.merged_new,
            "merged_existing": self.merged_existing,
            "canonical_entries": self.canonical_entries,
            "recovered_from_memory": self.recovered_from_memory,
            "shard_crc_rejected": self.shard_crc_rejected,
            "folds_partial": self.folds_partial,
            "heartbeats_missed": self.heartbeats_missed,
            "resumes": self.resumes,
            "salvaged": self.salvaged,
            "stale_shards_reclaimed": self.stale_shards_reclaimed,
            "failures": list(self.failures),
            "workers": list(self.workers),
        }


class DispatchCoordinator:
    """Lease assignment, health tracking and fold-in for one job matrix.

    ``cells`` is the (machine, trace) matrix in submission order — the
    same order ``repro sweep`` would run it.  Construction resolves the
    matrix against the local cache (duplicate keys collapse, cached
    cells drop out); :attr:`pending_jobs` then tells the caller whether
    spawning workers is worth it at all, and :meth:`run` does the rest.
    """

    def __init__(
        self,
        preset_name: str,
        cells: Sequence[tuple[MachineConfig, str]],
        *,
        cache_dir: Path | None = None,
        lease_size: int = DEFAULT_LEASE_SIZE,
        worker_retries: int = DEFAULT_WORKER_RETRIES,
        retry_policy: RetryPolicy | None = None,
        lock_timeout: float | None = None,
        timeout: float | None = None,
        progress: Callable[[int, int, str], None] | None = None,
        fold_every: int = DEFAULT_FOLD_EVERY,
        heartbeat_interval: float | None = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_deadline: float | None = None,
        resume: bool = False,
        carry_counters: dict[str, int] | None = None,
    ) -> None:
        self.preset_name = preset_name
        self.cache_dir = cache_dir or default_cache_dir()
        self.runner = ExperimentRunner(
            PRESETS[preset_name],
            cache_dir=self.cache_dir,
            jobs=1,
            strict=False,
            lock_timeout=lock_timeout,
        )
        self.registry = self.runner.registry
        self.lease_size = max(1, lease_size)
        self.worker_retries = max(0, worker_retries)
        self.policy = retry_policy or RetryPolicy.from_env()
        self.lock_timeout = lock_timeout
        self.timeout = timeout
        self.progress = progress
        self.fold_every = max(0, fold_every)
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval and heartbeat_interval > 0
            else None
        )
        if heartbeat_deadline is not None and heartbeat_deadline > 0:
            self.heartbeat_deadline: float | None = heartbeat_deadline
        elif self.heartbeat_interval is not None:
            self.heartbeat_deadline = (
                self.heartbeat_interval * HEARTBEAT_DEADLINE_FACTOR
            )
        else:
            self.heartbeat_deadline = None
        self.resume = resume

        # Stable counter shape: the crash-safety counters exist (at 0)
        # in every dist-stats snapshot, fired or not.
        for name in (
            "dist/folds_partial",
            "dist/heartbeats_missed",
            "dist/resumes",
            "dist/jobs_salvaged",
            "dist/stale_shards_reclaimed",
        ):
            self.registry.inc(name, 0)
        # A redispatch loop threads history counters (losses, folds,
        # resumes...) from round to round so the final snapshot is
        # cumulative; resolution counters are per-round by design.
        for name, value in (carry_counters or {}).items():
            self.registry.inc(name, value)

        cache_path_early = self.runner.cache_path
        self._journal_path: Path | None = (
            journal_path(cache_path_early.parent, preset_name)
            if cache_path_early is not None
            else None
        )
        self._journal: DispatchJournal | None = (
            DispatchJournal(self._journal_path, lock_timeout=lock_timeout)
            if self._journal_path is not None
            else None
        )
        # Crash recovery happens *before* matrix resolution so salvaged
        # cells resolve as cached and never re-lease.
        self._recover_previous()
        self._reclaim_stale_shards()

        self.jobs: list[DispatchJob] = []
        seen: set[str] = set()
        cached = 0
        for machine, trace in cells:
            key = self.runner.job_key(machine, trace)
            if key in seen:
                continue
            seen.add(key)
            if self.runner.cached_payload(key) is not None:
                cached += 1
                continue
            self.jobs.append(
                DispatchJob(
                    index=len(self.jobs),
                    key=key,
                    spec=protocol.JobSpec(trace=trace, machine=machine),
                )
            )
        self.total_cells = len(seen)
        self.cached_cells = cached
        self.registry.inc("dist/jobs_total", self.total_cells)
        self.registry.inc("dist/jobs_cached", cached)
        self.registry.inc("dist/jobs_dispatched", len(self.jobs))

        self._cond = threading.Condition()
        self._pending: deque[DispatchJob] = deque(self.jobs)
        self._inflight: dict[str, str] = {}
        self._attempts: dict[str, int] = {}
        self._results: dict[str, dict] = {}
        self._failures: dict[str, dict] = {}
        self._lease_serial = 0
        self._workers: list[WorkerHealth] = []
        self._pool: LocalWorkerPool | None = None
        cache_path = self.runner.cache_path
        self._shard_dir: Path | None = (
            cache_path.parent / f"{cache_path.name}.dist-{os.getpid()}"
            if cache_path is not None
            else None
        )
        self._folded: set[str] = set()
        self._fold_lock = threading.Lock()
        self._fold_serial = 0
        self._leases_since_fold = 0
        self._canonical_entries = 0
        # Per-shard torn-line watermarks: partial folds re-read shard
        # files, and the cache's CRC/corruption counters are global
        # accumulators — these dedupe so each torn line counts once.
        self._shard_crc_seen: dict[Path, int] = {}
        self._shard_corrupt_seen: dict[Path, int] = {}

    # ------------------------------------------------------------------
    # Crash recovery (constructor-time, before matrix resolution)
    # ------------------------------------------------------------------

    def _recover_previous(self) -> None:
        """Replay (and clear) a journal left behind by an earlier dispatch.

        Three cases, in the stale-socket discipline:

        * ended journal — a finished dispatch kept it for post-mortem;
          silently removed.
        * un-ended journal, owner pid alive — a live dispatch owns this
          preset's cache; refuse to race it.
        * un-ended journal, owner dead — a crashed coordinator.  With
          ``resume``, staged-but-unfolded results are salvaged from its
          shard files *before* the matrix resolves (so they count as
          cached and never re-lease); without, the journal is discarded
          and every unfolded cell recomputes.
        """
        self._resumed = False
        path = self._journal_path
        if path is None or not path.exists():
            return
        replay = replay_journal(path)
        if not replay.ended:
            pid = replay.pid
            if pid is not None and pid != os.getpid() and _pid_alive(pid):
                raise DispatchError(
                    f"another dispatch (pid {pid}) is live on this cache — "
                    f"journal {path.name} is still open"
                )
            if self.resume:
                self._salvage(replay)
                self._resumed = True
                self.registry.inc("dist/resumes")
                self._log(
                    f"resuming after coordinator crash (pid {pid}): "
                    f"{len(replay.staged)} staged, {len(replay.folded)} "
                    f"folded, {replay.torn_lines} torn journal line(s)"
                )
            else:
                self._log(
                    f"discarding crashed dispatch journal {path.name} "
                    f"(pid {pid}); pass --resume to salvage staged results"
                )
        assert self._journal is not None
        self._journal.remove()

    def _salvage(self, replay: JournalReplay) -> None:
        """Fold a dead coordinator's staged shards into the cache.

        Everything readable in the shard files is merged — including
        results staged just before the crash whose journal record never
        landed — then the cache is canonicalized, so salvage order can
        never perturb the final bytes.  Torn shard lines fail their CRC
        and are skipped; those cells simply recompute.
        """
        cache_path = self.runner.cache_path
        shard_dir = replay.shard_dir
        if cache_path is None or shard_dir is None or not shard_dir.exists():
            return
        entries: dict[str, dict] = {}
        for shard in sorted(shard_dir.glob("worker-*.jsonl")):
            entries.update(dict(iter_cache_entries(shard)))
        if not entries:
            return
        with self.registry.timer("phase/salvage"):
            stats = merge_cache_entries(
                cache_path, sorted(entries.items()),
                lock_timeout=self.lock_timeout,
            )
            canonicalize_cache_file(cache_path, lock_timeout=self.lock_timeout)
        self.registry.inc("dist/jobs_salvaged", stats.new_entries)
        # The runner snapshotted the disk cache before salvage existed;
        # reload so resolution sees the salvaged cells as cached.
        self.runner.reload_disk_cache()
        self._log(
            f"salvaged {stats.new_entries} staged result(s) from "
            f"{shard_dir.name}"
        )

    def _reclaim_stale_shards(self) -> None:
        """Remove shard directories abandoned by dead coordinators.

        Mirrors the serve server's stale-socket reclaim: a directory
        named for a live pid is left alone (that dispatch may still
        fold it); one named for a dead pid can never be folded by its
        owner again, and salvage (when asked for) has already read it.
        """
        cache_path = self.runner.cache_path
        if cache_path is None:
            return
        reclaimed = 0
        for stale in sorted(cache_path.parent.glob(f"{cache_path.name}.dist-*")):
            if not stale.is_dir():
                continue
            suffix = stale.name.rsplit(".dist-", 1)[-1]
            if not suffix.isdigit():
                continue
            pid = int(suffix)
            if pid == os.getpid() or _pid_alive(pid):
                continue
            shutil.rmtree(stale, ignore_errors=True)
            reclaimed += 1
            self._log(
                f"reclaimed stale shard directory {stale.name} (pid {pid})"
            )
        if reclaimed:
            self.registry.inc("dist/stale_shards_reclaimed", reclaimed)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def pending_jobs(self) -> int:
        """Uncached, deduplicated jobs the dispatch must actually run."""
        return len(self.jobs)

    def run(
        self,
        endpoints: Sequence[WorkerEndpoint] = (),
        *,
        pool: LocalWorkerPool | None = None,
    ) -> DispatchReport:
        """Dispatch every pending job, fold the results in, snapshot stats.

        An empty matrix (everything cached, or no cells) never contacts
        a worker and leaves the cache file byte-untouched.  Jobs that no
        surviving worker could run are reported as structured failures,
        mirroring the sweep's graceful-degradation mode — the caller
        decides whether that is fatal (``--strict``).
        """
        self._pool = pool
        self._workers = [WorkerHealth(endpoint=endpoint) for endpoint in endpoints]
        if self.jobs:
            if not self._workers:
                raise DispatchError("dispatch needs at least one worker")
            if self._shard_dir is not None:
                self._shard_dir.mkdir(parents=True, exist_ok=True)
            if self._journal is not None:
                # Written only when there is work: an empty or fully
                # cached matrix must leave the cache directory untouched.
                self._journal.begin(
                    preset=self.preset_name,
                    total=self.total_cells,
                    cached=self.cached_cells,
                    keys=[job.key for job in self.jobs],
                    shard_dir=self._shard_dir,
                    resumed=self._resumed,
                )
            with self.registry.timer("phase/dispatch"):
                threads = [
                    threading.Thread(
                        target=self._worker_loop,
                        args=(health,),
                        name=f"dispatch-{health.endpoint.name}",
                        daemon=True,
                    )
                    for health in self._workers
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            for job in self.jobs:
                if job.key not in self._results and job.key not in self._failures:
                    self._failures[job.key] = {
                        "key": job.key,
                        "error": "NoWorkersLeft",
                        "message": (
                            "every worker was lost or retired before "
                            "this job could run"
                        ),
                    }
                    self.registry.inc("dist/jobs_unrunnable")
        report = self._fold()
        if self._journal is not None and self.jobs:
            self._journal.end(
                completed=len(self._results), failed=len(self._failures)
            )
            if not self._failures:
                # Clean dispatch: nothing left to post-mortem.  Kept on
                # failures; the next startup removes an ended journal.
                self._journal.remove()
        self._write_stats(report, final=True)
        return report

    # ------------------------------------------------------------------
    # Worker threads
    # ------------------------------------------------------------------

    def _worker_loop(self, health: WorkerHealth) -> None:
        """One worker's thread: take leases until the matrix resolves."""
        while not health.retired:
            batch = self._take_batch(health)
            if batch is None:
                return
            self._backoff(batch)
            try:
                self._run_lease(health, batch)
            except Exception as exc:  # noqa: BLE001 — any failure = worker lost
                self._on_worker_lost(health, batch, exc)
            else:
                self._reconcile(health, batch)
                self._maybe_fold()

    def _take_batch(self, health: WorkerHealth) -> list[DispatchJob] | None:
        """Claim up to ``lease_size`` unresolved jobs; ``None`` when done.

        Blocks while other workers hold the remaining in-flight jobs —
        if one of them is lost, its jobs land back on the queue and this
        worker picks them up (the reassignment path).
        """
        with self._cond:
            while True:
                batch: list[DispatchJob] = []
                while self._pending and len(batch) < self.lease_size:
                    job = self._pending.popleft()
                    if job.key in self._results or job.key in self._failures:
                        continue  # resolved while queued
                    self._inflight[job.key] = health.endpoint.name
                    batch.append(job)
                if batch:
                    return batch
                if not self._unresolved():
                    return None
                # The 0.5s timeout is belt and braces against a lost
                # notify; correctness only needs the wake-ups.
                self._cond.wait(timeout=0.5)

    def _unresolved(self) -> bool:
        """Whether any job still lacks a result or a structured failure."""
        return any(
            job.key not in self._results and job.key not in self._failures
            for job in self.jobs
        )

    def _backoff(self, batch: list[DispatchJob]) -> None:
        """Seeded backoff before re-leasing reassigned jobs.

        The delay is the max of the per-job schedules — the same
        deterministic ``(seed, key, attempt)`` function sweep retries
        use, so a re-run of the same faulty dispatch sleeps the same.
        """
        delays = [
            self.policy.delay(job.key, self._attempts[job.key])
            for job in batch
            if self._attempts.get(job.key, 0) > 0
        ]
        if delays:
            time.sleep(max(delays))

    def _run_lease(self, health: WorkerHealth, batch: list[DispatchJob]) -> None:
        """One lease conversation; raises on any sign of a lost worker."""
        index = health.endpoint.index
        if faultinject.dispatch_worker_lost(index):
            self._sever(health)
            raise ServeClientError(
                f"{health.endpoint.name}: injected worker-lost fault (pre-lease)"
            )
        if faultinject.dispatch_net_partition(index):
            # A partition severs the conversation without killing the
            # worker — it may finish the lease into its own cache and
            # later produce the duplicate-completion case.
            raise ServeClientError(
                f"{health.endpoint.name}: injected net-partition fault "
                "(pre-lease)"
            )
        with self._cond:
            self._lease_serial += 1
            lease_id = f"lease-{os.getpid()}-{self._lease_serial}"
        health.leases += 1
        self.registry.inc("dist/leases")
        self.registry.observe("dist/lease_jobs", len(batch))
        # The handshake happens before heartbeats are armed, so a hung
        # worker (say, one the slow-worker fault just stalled) must not
        # be able to block it forever: the heartbeat deadline bounds the
        # connect/handshake reads whenever no explicit timeout is set.
        connect_timeout = (
            self.timeout if self.timeout is not None else self.heartbeat_deadline
        )
        with ServeClient(
            health.endpoint.address, timeout=connect_timeout
        ) as client:
            client.handshake()
            heartbeat = self.heartbeat_interval is not None
            if self._journal is not None:
                self._journal.lease(
                    lease_id, health.endpoint.name, [job.key for job in batch]
                )
            client.request(
                {
                    "op": "lease",
                    "id": lease_id,
                    "jobs": [job.spec.to_wire() for job in batch],
                }
            )
            if faultinject.dispatch_slow_worker(index):
                # Stall the worker mid-lease and keep listening:
                # detection must come from the heartbeat deadline
                # (unanswered pings), not from the injection site.
                self._stall(health)
            if heartbeat:
                client.settimeout(self.heartbeat_interval)
            else:
                # Heartbeats disabled: restore the caller's timeout —
                # long jobs must not trip the handshake bound mid-lease.
                client.settimeout(self.timeout)
            done = False
            last_traffic = time.monotonic()
            ping_serial = 0
            ping_outstanding = False
            while True:
                try:
                    event = client.poll_event()
                except ServeTimeout:
                    if not heartbeat:
                        raise
                    silent = time.monotonic() - last_traffic
                    if (
                        self.heartbeat_deadline is not None
                        and silent >= self.heartbeat_deadline
                    ):
                        health.heartbeats_missed += 1
                        self.registry.inc("dist/heartbeats_missed")
                        raise ServeClientError(
                            f"{health.endpoint.name} missed the heartbeat "
                            f"deadline ({silent:.1f}s silent)"
                        ) from None
                    if ping_outstanding:
                        # The previous ping went unanswered for a full
                        # interval — that is a missed heartbeat; a busy
                        # but healthy worker answers between frames.
                        health.heartbeats_missed += 1
                        self.registry.inc("dist/heartbeats_missed")
                    ping_serial += 1
                    client.request(
                        {"op": "ping", "id": f"{lease_id}-hb-{ping_serial}"}
                    )
                    ping_outstanding = True
                    continue
                if event is None:
                    break
                last_traffic = time.monotonic()
                ping_outstanding = False
                kind = event.get("event")
                if kind == "result":
                    self._record_result(health, event)
                    if faultinject.dispatch_worker_lost(index):
                        self._sever(health)
                        raise ServeClientError(
                            f"{health.endpoint.name}: injected worker-lost "
                            "fault (mid-lease)"
                        )
                    if faultinject.dispatch_net_partition(index):
                        raise ServeClientError(
                            f"{health.endpoint.name}: injected net-partition "
                            "fault (mid-lease)"
                        )
                elif kind == "failed":
                    self._record_failure(health, event)
                elif kind == "lease-done":
                    done = True
                    break
                elif kind == "pong":
                    continue  # heartbeat answered; traffic already noted
                elif kind == "rejected":
                    raise ServeClientError(
                        f"{health.endpoint.name} rejected lease {lease_id} "
                        f"({event.get('reason')}): {event.get('detail')}"
                    )
                elif kind == "error":
                    raise ServeClientError(
                        f"{health.endpoint.name}: protocol error: "
                        f"{event.get('message')}"
                    )
                # "leased" and "progress" are advisory; ignore.
            if not done:
                raise ServeClientError(
                    f"{health.endpoint.name} closed the stream mid-lease "
                    f"({lease_id})"
                )

    def _stall(self, health: WorkerHealth) -> None:
        """Give an injected ``slow-worker`` fault its teeth (SIGSTOP).

        Only locally spawned workers can be stalled; the lease then
        proceeds normally and the heartbeat deadline does the detecting.
        """
        if self._pool is not None and self._pool.stall(health.endpoint.index):
            self._log(
                f"{health.endpoint.name}: injected slow-worker fault (stalled)"
            )

    def _sever(self, health: WorkerHealth) -> None:
        """Give an injected ``worker-lost`` fault its teeth.

        Locally spawned workers are hard-killed so the loss is real
        (socket dead, process gone); for remote endpoints the
        coordinator simply abandons the connection — a partition, under
        which the worker may finish the lease anyway and produce the
        duplicate-completion case.
        """
        if self._pool is not None:
            self._pool.kill(health.endpoint.index)

    def _record_result(self, health: WorkerHealth, event: dict) -> str:
        """Fold one streamed result into coordinator state; first wins.

        Returns ``"stored"`` or ``"duplicate"`` — the duplicate branch
        is the both-workers-finished-the-same-job race, resolved as a
        counted no-op.
        """
        key = event.get("key")
        payload = event.get("result")
        if not isinstance(key, str) or not isinstance(payload, dict):
            raise ServeClientError(
                f"{health.endpoint.name}: garbled result event"
            )
        with self._cond:
            if key in self._results:
                self.registry.inc("dist/duplicate_results")
                self._cond.notify_all()
                return "duplicate"
            self._results[key] = payload
            self._inflight.pop(key, None)
            health.completed += 1
            self.registry.inc("dist/jobs_completed")
            resolved = len(self._results) + len(self._failures)
            self._cond.notify_all()
        self._stage(health, key, payload)
        if self._journal is not None:
            # WAL order: the staged shard line is durable first, then
            # the journal claims it — a crash between the two leaves a
            # stageable-but-unclaimed result that salvage still reads.
            self._journal.result(key, health.endpoint.name)
        if self.progress is not None:
            self.progress(resolved, len(self.jobs), key)
        return "stored"

    def _record_failure(self, health: WorkerHealth, event: dict) -> None:
        """Record one permanent per-job failure (worker retries exhausted)."""
        key = event.get("key")
        if not isinstance(key, str):
            return
        recorded = False
        with self._cond:
            if key not in self._failures and key not in self._results:
                self._failures[key] = {
                    "key": key,
                    "error": str(event.get("error")),
                    "message": str(event.get("message")),
                    "worker": health.endpoint.name,
                }
                self._inflight.pop(key, None)
                health.failed += 1
                self.registry.inc("dist/jobs_failed")
                recorded = True
            self._cond.notify_all()
        if recorded and self._journal is not None:
            self._journal.failed(key, str(event.get("error")))

    def _stage(self, health: WorkerHealth, key: str, payload: dict) -> None:
        """Append one pulled result to the worker's staged shard file.

        The shard is the durable copy of what came off the wire (and
        the ``remote-torn-merge`` fault's target); each worker thread
        owns its own file, so no locking is needed.
        """
        if self._shard_dir is None:
            return
        shard = self._shard_dir / f"worker-{health.endpoint.index}.jsonl"
        with shard.open("a") as handle:
            handle.write(encode_entry(key, payload) + "\n")
        faultinject.after_remote_pull(health.endpoint.index, shard)

    def _on_worker_lost(
        self, health: WorkerHealth, batch: list[DispatchJob], exc: Exception
    ) -> None:
        """Requeue a lost worker's unfinished jobs; retire repeat offenders."""
        health.losses += 1
        self.registry.inc("dist/workers_lost")
        requeued = 0
        with self._cond:
            for job in batch:
                if job.key in self._results or job.key in self._failures:
                    continue
                self._attempts[job.key] = self._attempts.get(job.key, 0) + 1
                self._inflight.pop(job.key, None)
                self._pending.append(job)
                requeued += 1
            if requeued:
                self.registry.inc("dist/jobs_reassigned", requeued)
            if health.losses > self.worker_retries:
                health.retired = True
                self.registry.inc("dist/workers_retired")
            self._cond.notify_all()
        message = str(exc) or type(exc).__name__
        suffix = "; retiring worker" if health.retired else ""
        self._log(
            f"{health.endpoint.name} lost ({message}); "
            f"requeued {requeued} job(s){suffix}"
        )

    def _reconcile(self, health: WorkerHealth, batch: list[DispatchJob]) -> None:
        """Safety net: requeue any batch job a clean lease left unresolved.

        A well-behaved worker resolves every leased job before
        ``lease-done``; this guards the coordinator's liveness against
        one that does not.
        """
        with self._cond:
            requeued = 0
            for job in batch:
                if job.key in self._results or job.key in self._failures:
                    continue
                self._attempts[job.key] = self._attempts.get(job.key, 0) + 1
                self._inflight.pop(job.key, None)
                self._pending.append(job)
                requeued += 1
            if requeued:
                self.registry.inc("dist/jobs_reassigned", requeued)
                self._log(
                    f"{health.endpoint.name} finished a lease without "
                    f"resolving {requeued} job(s); requeued"
                )
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Fold-in and reporting
    # ------------------------------------------------------------------

    def _maybe_fold(self) -> None:
        """Run a streaming partial fold when the lease window fills.

        Called by worker threads after each clean lease; ``fold_every``
        completed leases trigger one fold of everything staged so far,
        bounding a coordinator crash to at most one window of rework.
        """
        if not self.fold_every:
            return
        with self._fold_lock:
            self._leases_since_fold += 1
            if self._leases_since_fold < self.fold_every:
                return
            self._leases_since_fold = 0
            self._fold_window(final=False)

    def _fold_window(self, *, final: bool) -> None:
        """Fold every staged-but-unfolded result into the cache.

        Caller holds ``_fold_lock``.  The fold is merge (existing keys
        win) + canonicalize, so any sequence of windows — in any order,
        interleaved with crashes and salvages — converges on the same
        bytes as one big final fold.  Each window is journaled after
        the cache write, then offered to the ``coordinator-crash``
        fault hook.
        """
        cache_path = self.runner.cache_path
        if cache_path is None or not self.jobs:
            return  # empty dispatch: the cache is never touched
        with self._cond:
            snapshot = dict(self._results)
        pending = [
            job
            for job in self.jobs  # matrix submission order, like a sweep merge
            if job.key in snapshot and job.key not in self._folded
        ]
        if not pending and not final:
            return
        staged = self._read_staged()
        items: list[tuple[str, dict]] = []
        recovered = 0
        for job in pending:
            payload = staged.get(job.key)
            if payload is None:
                # The staged copy was torn (or never flushed); the
                # in-memory copy from the wire is just as authoritative.
                payload = snapshot[job.key]
                recovered += 1
            items.append((job.key, payload))
        if recovered:
            self.registry.inc("dist/recovered_from_memory", recovered)
        if items:
            with self.registry.timer("phase/fold"):
                stats = merge_cache_entries(
                    cache_path, items, lock_timeout=self.lock_timeout
                )
            self.registry.inc("dist/merged_new_entries", stats.new_entries)
            self.registry.inc(
                "dist/merged_existing_entries", stats.existing_entries
            )
        if items or final:
            with self.registry.timer("phase/canonicalize"):
                self._canonical_entries = canonicalize_cache_file(
                    cache_path, lock_timeout=self.lock_timeout
                )
        self._folded.update(job.key for job in pending)
        self._fold_serial += 1
        if not final:
            self.registry.inc("dist/folds_partial")
        if self._journal is not None:
            self._journal.fold(
                self._fold_serial,
                [job.key for job in pending],
                partial=not final,
            )
        faultinject.dispatch_after_fold(self._fold_serial)
        if not final:
            # Keep the on-disk snapshot current between windows so a
            # post-crash `repro stats` shows how far the dispatch got.
            self._write_stats(self._build_report(), final=False)

    def _read_staged(self) -> dict[str, dict]:
        """Read every staged shard tolerantly; count *new* torn lines.

        The cache module's CRC/corruption counters accumulate per read,
        and windows re-read shards — the per-shard watermarks charge
        each torn line to the counters exactly once.
        """
        staged: dict[str, dict] = {}
        if self._shard_dir is None or not self._shard_dir.exists():
            return staged
        crc_new = corrupt_new = 0
        for shard in sorted(self._shard_dir.glob("worker-*.jsonl")):
            before_crc = crc_failure_count(shard)
            before_corrupt = corrupt_line_count(shard)
            staged.update(dict(iter_cache_entries(shard)))
            read_crc = crc_failure_count(shard) - before_crc
            read_corrupt = corrupt_line_count(shard) - before_corrupt
            crc_new += max(0, read_crc - self._shard_crc_seen.get(shard, 0))
            corrupt_new += max(
                0, read_corrupt - self._shard_corrupt_seen.get(shard, 0)
            )
            self._shard_crc_seen[shard] = read_crc
            self._shard_corrupt_seen[shard] = read_corrupt
        if crc_new:
            self.registry.inc("dist/shard_crc_rejected", crc_new)
        if corrupt_new:
            self.registry.inc("dist/shard_corrupt_lines", corrupt_new)
        return staged

    def _fold(self) -> DispatchReport:
        """Final fold: everything unfolded, then the end-of-run report."""
        with self._fold_lock:
            self._fold_window(final=True)
        report = self._build_report()
        if (
            self._shard_dir is not None
            and self._shard_dir.exists()
            and not self._failures
        ):
            # Shards are only diagnostic once folded; keep them around
            # when something failed, for the post-mortem.
            shutil.rmtree(self._shard_dir, ignore_errors=True)
        return report

    def _build_report(self) -> DispatchReport:
        """Assemble the report from coordinator state and the counters."""
        return DispatchReport(
            total=self.total_cells,
            cached=self.cached_cells,
            dispatched=len(self.jobs),
            completed=len(self._results),
            reassigned=self._counter("dist/jobs_reassigned"),
            duplicates=self._counter("dist/duplicate_results"),
            workers_lost=self._counter("dist/workers_lost"),
            leases=self._counter("dist/leases"),
            merged_new=self._counter("dist/merged_new_entries"),
            merged_existing=self._counter("dist/merged_existing_entries"),
            canonical_entries=self._canonical_entries,
            recovered_from_memory=self._counter("dist/recovered_from_memory"),
            shard_crc_rejected=self._counter("dist/shard_crc_rejected"),
            folds_partial=self._counter("dist/folds_partial"),
            heartbeats_missed=self._counter("dist/heartbeats_missed"),
            resumes=self._counter("dist/resumes"),
            salvaged=self._counter("dist/jobs_salvaged"),
            stale_shards_reclaimed=self._counter("dist/stale_shards_reclaimed"),
            failures=sorted(self._failures.values(), key=lambda f: f["key"]),
            workers=[health.to_dict() for health in self._workers],
        )

    def _counter(self, name: str) -> int:
        """Current value of one counter (0 if never incremented)."""
        metric = self.registry.as_dict().get(name)
        return int(metric["value"]) if metric else 0

    def _write_stats(self, report: DispatchReport, final: bool) -> None:
        """Snapshot ``dist/*`` counters to ``dist-stats.json`` (atomic)."""
        self.registry.write_snapshot(
            self.cache_dir,
            "dist",
            pid=os.getpid(),
            preset=self.preset_name,
            protocol=protocol.PROTOCOL_VERSION,
            final=final,
            lease_size=self.lease_size,
            worker_retries=self.worker_retries,
            fold_every=self.fold_every,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_deadline=self.heartbeat_deadline,
            resumed=self._resumed,
            report=report.to_dict(),
        )

    @staticmethod
    def _log(message: str) -> None:
        """One coordinator log line (stderr, flushed)."""
        print(f"repro dispatch: {message}", file=sys.stderr, flush=True)


def sweep_cells(
    traces: Iterable[str], machines: Sequence[MachineConfig]
) -> list[tuple[MachineConfig, str]]:
    """The (machine, trace) matrix in ``repro sweep`` submission order."""
    return [(machine, trace) for machine in machines for trace in traces]
