"""Deduplicating job scheduler behind the ``repro serve`` front end.

One scheduler owns one :class:`~repro.sim.experiment.ExperimentRunner`
(and therefore one preset, one result cache and one worker-pool budget)
and multiplexes any number of client submissions onto it.  Its whole
job is to make sure *work is never done twice*:

* **Cache-hit fast path** — a job whose key is already in the runner's
  (memory + disk) result cache resolves immediately: a hot result is a
  dict lookup, not a simulation.
* **In-flight dedupe** — a job identical to one already queued or
  running attaches its submission as an extra waiter on the existing
  entry; when the one simulation finishes, every waiter gets the
  result.
* **Batching** — the queued remainder is drained in batches onto the
  existing :mod:`repro.sim.parallel` pool/retry/locking machinery via
  :meth:`~repro.sim.experiment.ExperimentRunner.prewarm`, so the
  service inherits every fault-tolerance and crash-safety property the
  one-shot CLI already proved.

Admission control is enforced *before* anything is queued: a bounded
queue (``max_queue`` unique pending+running jobs) and a per-client
quota (``client_quota`` unresolved jobs per connection) turn overload
into a structured ``rejected`` event instead of unbounded memory.

Byte-determinism: after every batch (and once more at drain) the cache
file is canonicalised — rewritten under its advisory lock with entries
sorted by job key (:func:`~repro.sim.resultcache
.canonicalize_cache_file`).  The final cache is therefore a pure
function of the *set* of jobs served, never of client arrival order:
any mix of concurrent clients leaves the cache byte-identical to a
clean serial run of the union of their jobs.

Every decision is accounted in ``serve/*`` counters on the runner's
:class:`~repro.obs.registry.CounterRegistry` (jobs submitted / cache
hits / deduped / enqueued / completed / failed / rejected, queue-depth
and batch-size histograms, per-phase timers), which flow into
``serve-stats.json`` and ``repro stats``.

Testing hook: ``$REPRO_SERVE_BATCH_DELAY`` (seconds, float) delays each
batch before it executes, widening the window in which concurrent
submissions dedupe against in-flight work — the serve integration tests
use it to make "dedupe against in-flight" deterministic.  It is read once,
when the scheduler is built, so a malformed value fails the server's
startup rather than its first batch.
"""

from __future__ import annotations

import asyncio
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.serve import protocol
from repro.serve.protocol import DEFAULT_CLIENT_QUOTA, DEFAULT_MAX_QUEUE, JobSpec
from repro.sim.experiment import ExperimentRunner
from repro.sim.resultcache import canonicalize_cache_file
from repro.sim.retry import FailedCell, _env_float

#: Testing hook: seconds to sleep before executing each batch.
BATCH_DELAY_ENV = "REPRO_SERVE_BATCH_DELAY"

#: Callback that delivers one server->client event dict.
EmitFn = Callable[[dict], None]


def _noop_emit(event: dict) -> None:
    """Emit sink for detached (disconnected) submissions."""


class SubmitRejected(Exception):
    """A submission failed admission control (structured reason + detail)."""

    def __init__(self, reason: str, detail: str) -> None:
        assert reason in protocol.REJECT_REASONS
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


@dataclass
class _Submission:
    """One accepted submit request and its delivery state."""

    request_id: str
    client: str
    wait: bool
    emit: EmitFn
    total: int
    remaining: int
    completed: int = 0
    failed: int = 0
    #: Progress events delivered so far (advisory stream, never load-bearing).
    progressed: int = 0
    detached: bool = False


@dataclass
class _InFlight:
    """One unique queued-or-running job and the submissions awaiting it."""

    key: str
    spec: JobSpec
    waiters: list[_Submission] = field(default_factory=list)
    running: bool = False


class JobScheduler:
    """Admission control, dedupe and batch execution for one runner.

    The scheduler is single-threaded on the event loop: ``submit``,
    ``detach`` and ``status`` must be called from the loop thread, and
    only batch execution (a blocking sweep) runs on the private
    one-thread executor.  ``runner`` must be built with
    ``strict=False`` — job failures become structured ``failed`` events
    per waiter, never exceptions that would take the service down.
    """

    def __init__(
        self,
        runner: ExperimentRunner,
        *,
        max_queue: int = DEFAULT_MAX_QUEUE,
        client_quota: int = DEFAULT_CLIENT_QUOTA,
    ) -> None:
        assert not runner.strict, "serve requires a strict=False runner"
        self.runner = runner
        self.registry = runner.registry
        self.max_queue = max(1, max_queue)
        self.client_quota = max(1, client_quota)
        #: Seconds slept before each batch (``$REPRO_SERVE_BATCH_DELAY``).
        self.batch_delay = _env_float(BATCH_DELAY_ENV, 0.0)
        self._inflight: dict[str, _InFlight] = {}
        self._queue: list[_InFlight] = []
        self._outstanding: dict[str, int] = {}
        self._by_client: dict[str, list[_Submission]] = {}
        self._draining = False
        self._wake = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        #: Called after every finished batch (the server snapshots stats).
        self.on_batch_done: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    # Submission side (event-loop thread)
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether drain has been requested (new submissions rejected)."""
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Unique jobs queued but not yet handed to a batch."""
        return len(self._queue)

    @property
    def inflight_jobs(self) -> int:
        """Unique jobs queued or running."""
        return len(self._inflight)

    @property
    def idle(self) -> bool:
        """True when nothing is queued or running."""
        return not self._inflight

    def submit(
        self,
        client: str,
        request: protocol.SubmitRequest,
        emit: EmitFn,
    ) -> None:
        """Admit one submission, or raise :class:`SubmitRejected`.

        On acceptance the ``accepted`` event (and any immediate
        cache-hit ``result`` events, and ``done`` if nothing is left to
        simulate) are delivered through ``emit`` before this returns.
        """
        jobs = request.jobs
        if self._draining:
            self._reject(client, len(jobs))
            raise SubmitRejected(
                protocol.REJECT_DRAINING,
                "server is draining and no longer accepts submissions",
            )
        held = self._outstanding.get(client, 0)
        if held + len(jobs) > self.client_quota:
            self._reject(client, len(jobs))
            raise SubmitRejected(
                protocol.REJECT_QUOTA,
                f"client holds {held} unresolved job(s); submitting "
                f"{len(jobs)} more would exceed the quota of "
                f"{self.client_quota}",
            )
        keys = [self.runner.job_key(job.machine, job.trace) for job in jobs]
        new_keys = {
            key
            for key, job in zip(keys, jobs)
            if key not in self._inflight
            and self.runner.cached_payload(key) is None
        }
        if len(self._inflight) + len(new_keys) > self.max_queue:
            self._reject(client, len(jobs))
            raise SubmitRejected(
                protocol.REJECT_QUEUE_FULL,
                f"{len(self._inflight)} job(s) already queued or running; "
                f"admitting {len(new_keys)} more would exceed the queue "
                f"bound of {self.max_queue}",
            )

        submission = _Submission(
            request_id=request.request_id,
            client=client,
            wait=request.wait,
            emit=emit,
            total=len(jobs),
            remaining=len(jobs),
        )
        self._by_client.setdefault(client, []).append(submission)
        cache_hits = deduped = enqueued = 0
        immediate: list[dict] = []
        for key, job in zip(keys, jobs):
            payload = self.runner.cached_payload(key)
            if payload is not None:
                cache_hits += 1
                submission.completed += 1
                submission.remaining -= 1
                if submission.wait:
                    immediate.append(self._result_event(submission, key, job, payload))
                continue
            entry = self._inflight.get(key)
            if entry is not None:
                deduped += 1
            else:
                entry = _InFlight(key=key, spec=job)
                self._inflight[key] = entry
                self._queue.append(entry)
                enqueued += 1
            entry.waiters.append(submission)
            self._outstanding[client] = self._outstanding.get(client, 0) + 1

        self.registry.inc("serve/submissions_accepted")
        self.registry.inc("serve/jobs_submitted", len(jobs))
        for name, amount in (
            ("serve/jobs_cache_hit", cache_hits),
            ("serve/jobs_deduped", deduped),
            ("serve/jobs_enqueued", enqueued),
        ):
            if amount:
                self.registry.inc(name, amount)

        emit(
            {
                "event": "accepted",
                "id": request.request_id,
                "protocol": protocol.PROTOCOL_VERSION,
                "jobs": len(jobs),
                "cache_hits": cache_hits,
                "deduped": deduped,
                "enqueued": enqueued,
            }
        )
        for event in immediate:
            emit(event)
        if submission.remaining == 0:
            self._finish_submission(submission)
        if enqueued:
            self._wake.set()

    def _reject(self, client: str, jobs: int) -> None:
        """Account one rejected submission."""
        self.registry.inc("serve/submissions_rejected")
        self.registry.inc("serve/jobs_rejected", jobs)

    def detach(self, client: str) -> None:
        """Forget a disconnected client.

        Its submissions stop emitting (the jobs themselves keep running
        — other waiters, and the shared cache, still want the results)
        and its quota is released immediately so a reconnecting client
        is not locked out by its own ghost.
        """
        for submission in self._by_client.pop(client, []):
            submission.detached = True
            submission.emit = _noop_emit
        self._outstanding.pop(client, None)

    def status(self) -> dict:
        """Live counters and queue state for ``status`` events."""
        return {
            "event": "status",
            "protocol": protocol.PROTOCOL_VERSION,
            "preset": self.runner.preset.name,
            "pid": os.getpid(),
            "draining": self._draining,
            "queue_depth": self.queue_depth,
            "inflight_jobs": self.inflight_jobs,
            "jobs": self.runner.jobs,
            "counters": {
                name: metric["value"]
                for name, metric in self.registry.as_dict().items()
                if name.startswith("serve/") and metric.get("kind") == "counter"
            },
        }

    def drain(self) -> None:
        """Stop admitting work; :meth:`run` returns once in-flight drains."""
        self._draining = True
        self._wake.set()

    # ------------------------------------------------------------------
    # Execution side
    # ------------------------------------------------------------------

    async def run(self) -> None:
        """Drain the queue in batches until :meth:`drain` + empty queue.

        The scheduling loop of the service: collect everything queued,
        hand it to the runner on the private executor thread (the event
        loop stays responsive for new submissions, which dedupe against
        the running batch), deliver per-waiter events, canonicalise the
        cache, repeat.
        """
        loop = asyncio.get_running_loop()
        try:
            while True:
                if not self._queue:
                    if self._draining:
                        break
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                batch = list(self._queue)
                self._queue.clear()
                for entry in batch:
                    entry.running = True
                self.registry.observe("serve/queue_depth", len(batch))
                self.registry.observe("serve/batch_jobs", len(batch))
                if self.batch_delay > 0:
                    await asyncio.sleep(self.batch_delay)
                try:
                    failures = await loop.run_in_executor(
                        self._executor, self._execute_batch, batch
                    )
                except Exception as exc:  # noqa: BLE001 — service boundary
                    # A batch-level fault (e.g. a wedged cache lock) must
                    # degrade into per-job failures, not kill the service.
                    failures = {
                        entry.key: FailedCell(
                            key=entry.key,
                            index=index,
                            error=type(exc).__name__,
                            message=str(exc),
                            attempts=1,
                            elapsed=0.0,
                        )
                        for index, entry in enumerate(batch)
                    }
                self._finish_batch(batch, failures)
                if self.on_batch_done is not None:
                    self.on_batch_done()
        finally:
            self._executor.shutdown(wait=True)

    def _execute_batch(self, batch: list[_InFlight]) -> dict[str, FailedCell]:
        """Run one batch on the executor thread; returns failures by key.

        Delegates to ``runner.prewarm`` — the exact code path one-shot
        sweeps take — then canonicalises the cache file so on-disk
        bytes stay arrival-order independent even mid-service.
        """
        failed_before = len(self.runner.failed_cells)
        with self.registry.timer("phase/simulate"):
            self.runner.prewarm(
                (entry.spec.machine, entry.spec.trace) for entry in batch
            )
        failures = {
            cell.key: cell
            for cell in self.runner.failed_cells[failed_before:]
        }
        with self.registry.timer("phase/canonicalize"):
            self.canonicalize()
        return failures

    def canonicalize(self) -> None:
        """Sort the on-disk cache by job key (locked, atomic, idempotent)."""
        path = self.runner.cache_path
        if path is not None:
            canonicalize_cache_file(path, lock_timeout=self.runner.lock_timeout)

    def on_progress(self, done: int, total: int, key: str) -> None:
        """Forward one in-batch job completion as advisory progress events.

        Wired to the runner's progress callback by the server (via
        ``call_soon_threadsafe`` — this must run on the loop thread).
        """
        entry = self._inflight.get(key)
        if entry is None:
            return
        for submission in entry.waiters:
            submission.progressed += 1
            if submission.wait:
                submission.emit(
                    {
                        "event": "progress",
                        "id": submission.request_id,
                        "key": key,
                        "done": min(
                            submission.completed + submission.progressed,
                            submission.total,
                        ),
                        "total": submission.total,
                    }
                )

    def _finish_batch(
        self, batch: list[_InFlight], failures: dict[str, FailedCell]
    ) -> None:
        """Resolve every waiter of a finished batch (loop thread)."""
        completed = failed = 0
        for entry in batch:
            self._inflight.pop(entry.key, None)
            payload = self.runner.cached_payload(entry.key)
            failure = failures.get(entry.key)
            for submission in entry.waiters:
                submission.remaining -= 1
                if not submission.detached:
                    held = self._outstanding.get(submission.client, 0)
                    if held:
                        self._outstanding[submission.client] = held - 1
                if payload is not None and failure is None:
                    submission.completed += 1
                    if submission.wait:
                        submission.emit(
                            self._result_event(
                                submission, entry.key, entry.spec, payload
                            )
                        )
                else:
                    submission.failed += 1
                    submission.emit(
                        {
                            "event": "failed",
                            "id": submission.request_id,
                            "key": entry.key,
                            "error": failure.error if failure else "MissingResult",
                            "message": failure.message if failure else (
                                "job produced no result"
                            ),
                        }
                    )
                if submission.remaining == 0:
                    self._finish_submission(submission)
            if payload is not None and failure is None:
                completed += 1
            else:
                failed += 1
        if completed:
            self.registry.inc("serve/jobs_completed", completed)
        if failed:
            self.registry.inc("serve/jobs_failed", failed)

    @staticmethod
    def _result_event(
        submission: _Submission, key: str, job: JobSpec, payload: dict
    ) -> dict:
        """Build one ``result`` event."""
        return {
            "event": "result",
            "id": submission.request_id,
            "key": key,
            "trace": job.trace,
            "machine": job.machine.label,
            "result": payload,
        }

    def _finish_submission(self, submission: _Submission) -> None:
        """Emit the terminal ``done`` event for a fully resolved submission."""
        submission.emit(
            {
                "event": "done",
                "id": submission.request_id,
                "jobs": submission.total,
                "completed": submission.completed,
                "failed": submission.failed,
            }
        )
        subs = self._by_client.get(submission.client)
        if subs is not None:
            try:
                subs.remove(submission)
            except ValueError:
                pass
