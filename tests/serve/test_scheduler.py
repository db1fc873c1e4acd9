"""Scheduler-level tests: dedupe, admission control, drain.

These drive a real JobScheduler over a real ExperimentRunner (test
preset, tmp cache dir, one worker) inside ``asyncio.run`` — no sockets,
so every admission decision is observed synchronously.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.protocol import JobSpec, SubmitRequest
from repro.serve.protocol import (
    REJECT_DRAINING,
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
)
from repro.serve.scheduler import JobScheduler, SubmitRejected
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, PRESETS
from repro.sim.experiment import ExperimentRunner
from repro.workloads.tracecache import process_cache


def _runner(tmp_path, **kwargs):
    return ExperimentRunner(
        PRESETS["test"], cache_dir=tmp_path, strict=False, jobs=1, **kwargs
    )


def _request(request_id, *jobs, wait=True):
    return SubmitRequest(request_id=request_id, jobs=tuple(jobs), wait=wait)


JOB_A = JobSpec(trace="sjeng.1", machine=BASE_VICTIM_2MB)
JOB_B = JobSpec(trace="mcf.1", machine=BASE_VICTIM_2MB)
JOB_C = JobSpec(trace="sjeng.1", machine=BASELINE_2MB)


def _events_of(events, kind):
    return [e for e in events if e["event"] == kind]


async def _run_to_drain(scheduler):
    """Serve everything queued, then drain and wait for the loop to exit."""
    task = asyncio.create_task(scheduler.run())
    scheduler.drain()
    await task


class TestDedupe:
    def test_strict_runner_refused(self, tmp_path):
        strict = ExperimentRunner(PRESETS["test"], cache_dir=tmp_path, jobs=1)
        with pytest.raises(AssertionError):
            JobScheduler(strict)

    def test_identical_queued_job_dedupes(self, tmp_path):
        """Two submissions of one job queue exactly one simulation."""
        scheduler = JobScheduler(_runner(tmp_path))
        first: list[dict] = []
        second: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A), first.append)
            scheduler.submit("c2", _request("r2", JOB_A), second.append)
            assert scheduler.inflight_jobs == 1  # one unique job, two waiters
            await _run_to_drain(scheduler)

        asyncio.run(scenario())
        assert _events_of(first, "accepted")[0]["enqueued"] == 1
        assert _events_of(second, "accepted")[0]["deduped"] == 1
        for events in (first, second):
            [result] = _events_of(events, "result")
            assert result["trace"] == "sjeng.1"
            [done] = _events_of(events, "done")
            assert done == {
                "event": "done",
                "id": done["id"],
                "jobs": 1,
                "completed": 1,
                "failed": 0,
            }
        registry = scheduler.registry.as_dict()
        assert registry["serve/jobs_deduped"]["value"] == 1
        assert registry["serve/jobs_enqueued"]["value"] == 1

    def test_cache_hit_fast_path(self, tmp_path):
        """A cached job resolves at submit time, without touching the queue."""
        runner = _runner(tmp_path)
        scheduler = JobScheduler(runner)
        warm: list[dict] = []
        hot: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("warm", JOB_A), warm.append)
            await _run_to_drain(scheduler)
            # The second submission happens after drain: were it queued,
            # it could never resolve — proving the fast path is a pure
            # cache lookup is exactly that it resolves anyway.
            scheduler._draining = False
            scheduler.submit("c2", _request("hot", JOB_A), hot.append)

        asyncio.run(scenario())
        accepted = _events_of(hot, "accepted")[0]
        assert accepted["cache_hits"] == 1
        assert accepted["enqueued"] == 0
        assert _events_of(hot, "result") and _events_of(hot, "done")
        assert scheduler.registry.as_dict()["serve/jobs_cache_hit"]["value"] == 1

    def test_served_batch_keeps_no_trace(self, tmp_path):
        """A batch's traces are dropped when it ends, not kept by the server."""
        scheduler = JobScheduler(_runner(tmp_path))
        events: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A, JOB_B), events.append)
            await _run_to_drain(scheduler)

        asyncio.run(scenario())
        assert len(_events_of(events, "result")) == 2
        assert len(process_cache()) == 0

    def test_no_wait_submission_gets_no_result_stream(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path))
        events: list[dict] = []

        async def scenario():
            scheduler.submit(
                "c1", _request("r1", JOB_A, wait=False), events.append
            )
            await _run_to_drain(scheduler)

        asyncio.run(scenario())
        assert _events_of(events, "accepted")
        assert not _events_of(events, "result")
        # The terminal done still arrives (cheap, lets --wait-less
        # clients that keep the socket open learn completion).
        assert _events_of(events, "done")


class TestAdmissionControl:
    def test_quota_rejection(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path), client_quota=2)
        events: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A, JOB_B), events.append)
            with pytest.raises(SubmitRejected) as excinfo:
                scheduler.submit("c1", _request("r2", JOB_C), events.append)
            assert excinfo.value.reason == REJECT_QUOTA
            # Another client still has headroom: quotas are per client.
            scheduler.submit("c2", _request("r3", JOB_C), events.append)
            await _run_to_drain(scheduler)

        asyncio.run(scenario())
        registry = scheduler.registry.as_dict()
        assert registry["serve/submissions_rejected"]["value"] == 1
        assert registry["serve/jobs_rejected"]["value"] == 1

    def test_queue_full_rejection(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path), max_queue=1)
        events: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A), events.append)
            with pytest.raises(SubmitRejected) as excinfo:
                scheduler.submit("c2", _request("r2", JOB_B), events.append)
            assert excinfo.value.reason == REJECT_QUEUE_FULL
            # A duplicate of the queued job adds no new work, so it is
            # admitted even at the queue bound.
            scheduler.submit("c3", _request("r3", JOB_A), events.append)
            await _run_to_drain(scheduler)

        asyncio.run(scenario())
        assert len(_events_of(events, "done")) == 2

    def test_draining_rejection(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path))
        scheduler.drain()
        with pytest.raises(SubmitRejected) as excinfo:
            scheduler.submit("c1", _request("r1", JOB_A), lambda e: None)
        assert excinfo.value.reason == REJECT_DRAINING

    def test_detach_releases_quota_and_silences_events(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path), client_quota=1)
        ghost: list[dict] = []
        fresh: list[dict] = []

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A), ghost.append)
            scheduler.detach("c1")
            before = len(ghost)
            # Quota released: the "reconnected" client is not locked out
            # by its own ghost...
            scheduler.submit("c1", _request("r2", JOB_B), fresh.append)
            await _run_to_drain(scheduler)
            # ...and the detached submission never emits again.
            assert len(ghost) == before

        asyncio.run(scenario())
        assert _events_of(fresh, "done")


class TestStatus:
    def test_status_reports_queue_and_counters(self, tmp_path):
        scheduler = JobScheduler(_runner(tmp_path))

        async def scenario():
            scheduler.submit("c1", _request("r1", JOB_A), lambda e: None)
            status = scheduler.status()
            assert status["queue_depth"] == 1
            assert status["inflight_jobs"] == 1
            assert status["draining"] is False
            assert status["counters"]["serve/jobs_enqueued"] == 1
            await _run_to_drain(scheduler)
            assert scheduler.status()["inflight_jobs"] == 0

        asyncio.run(scenario())
