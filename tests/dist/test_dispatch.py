"""Unit tests for the dispatch coordinator's edge cases.

The races a distributed sweep must get right without a server in
sight: a worker dying mid-batch (requeue, reassign, retire), a
partitioned worker completing a job the coordinator already reassigned
(first result wins, duplicate is a counted no-op), the degenerate
empty matrix (never touch a worker or the cache file), and the
crash-safety machinery — streaming partial folds, journal lifecycle,
stale-shard reclaim and crashed-coordinator salvage.  The
wire-in-the-middle versions of the same invariants live in
``test_dispatch_integration.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.dist.coordinator import (
    DispatchCoordinator,
    DispatchError,
    WorkerHealth,
    sweep_cells,
)
from repro.dist.journal import DispatchJournal, journal_path, replay_journal
from repro.dist.worker import WorkerEndpoint, parse_worker_spec
from repro.serve.client import Address, ServeClientError
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB
from repro.sim.resultcache import encode_entry, read_cache_entries


def _coordinator(tmp_path, traces=("sjeng.1",), **kwargs) -> DispatchCoordinator:
    return DispatchCoordinator(
        "test",
        sweep_cells(traces, [BASELINE_2MB, BASE_VICTIM_2MB]),
        cache_dir=tmp_path,
        **kwargs,
    )


def _health(index: int, tmp_path) -> WorkerHealth:
    endpoint = WorkerEndpoint(
        index=index,
        name=f"worker-{index}",
        address=Address(path=tmp_path / f"w{index}.sock"),
    )
    return WorkerHealth(endpoint=endpoint)


def _counter(coordinator: DispatchCoordinator, name: str) -> int:
    metric = coordinator.registry.as_dict().get(name)
    return int(metric["value"]) if metric else 0


class TestWorkerSpecs:
    def test_tcp_spec(self):
        endpoint = parse_worker_spec("tcp:127.0.0.1:9000", 3)
        assert endpoint.index == 3
        assert endpoint.name == "worker-3"
        assert endpoint.address.host == "127.0.0.1"
        assert endpoint.address.port == 9000

    def test_unix_path_spec(self):
        endpoint = parse_worker_spec("/tmp/remote/serve.sock", 0)
        assert endpoint.address.path is not None
        assert endpoint.address.path.name == "serve.sock"

    @pytest.mark.parametrize("spec", ["", "   ", "tcp:no-port", "tcp:"])
    def test_malformed_specs_raise_value_error(self, spec):
        # ValueError, not ServeError/traceback: the CLI turns it into a
        # clean exit-2 message.
        with pytest.raises(ValueError):
            parse_worker_spec(spec, 0)


class TestDuplicateCompletion:
    def test_first_result_wins_second_is_counted_noop(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        assert coordinator.pending_jobs == 2
        coordinator._shard_dir.mkdir(parents=True)
        first, second = _health(0, tmp_path), _health(1, tmp_path)
        job = coordinator.jobs[0]
        event = {"event": "result", "key": job.key, "result": {"ipc": 1.0}}
        rival = {"event": "result", "key": job.key, "result": {"ipc": 9.9}}

        assert coordinator._record_result(first, event) == "stored"
        assert coordinator._record_result(second, rival) == "duplicate"

        # First writer's payload is the one held; the rival never lands.
        assert coordinator._results[job.key] == {"ipc": 1.0}
        assert first.completed == 1
        assert second.completed == 0
        assert _counter(coordinator, "dist/jobs_completed") == 1
        assert _counter(coordinator, "dist/duplicate_results") == 1
        # Only the winning result was staged to a shard.
        staged = list(coordinator._shard_dir.glob("worker-*.jsonl"))
        assert [path.name for path in staged] == ["worker-0.jsonl"]
        assert len(staged[0].read_text().splitlines()) == 1

    def test_garbled_result_event_raises(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        health = _health(0, tmp_path)
        with pytest.raises(ServeClientError, match="garbled"):
            coordinator._record_result(health, {"event": "result", "key": 7})


class TestWorkerLoss:
    def test_lost_batch_requeues_and_counts_reassignment(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        health = _health(0, tmp_path)
        batch = coordinator._take_batch(health)
        assert batch is not None and len(batch) == 2
        assert not coordinator._pending  # both jobs claimed

        coordinator._on_worker_lost(health, batch, RuntimeError("socket died"))

        assert len(coordinator._pending) == 2  # back on the queue
        assert health.losses == 1 and not health.retired
        assert _counter(coordinator, "dist/workers_lost") == 1
        assert _counter(coordinator, "dist/jobs_reassigned") == 2
        for job in batch:
            assert coordinator._attempts[job.key] == 1
            assert job.key not in coordinator._inflight

    def test_completed_jobs_are_not_requeued_on_loss(self, tmp_path):
        # The duplicate-race setup: one job finished before the worker
        # died, so only the unfinished one reassigns.
        coordinator = _coordinator(tmp_path)
        coordinator._shard_dir.mkdir(parents=True)
        health = _health(0, tmp_path)
        batch = coordinator._take_batch(health)
        done = batch[0]
        coordinator._record_result(
            health, {"event": "result", "key": done.key, "result": {}}
        )
        coordinator._on_worker_lost(health, batch, RuntimeError("boom"))
        assert [job.key for job in coordinator._pending] == [batch[1].key]
        assert _counter(coordinator, "dist/jobs_reassigned") == 1

    def test_worker_retires_after_exhausting_retries(self, tmp_path):
        coordinator = _coordinator(tmp_path, worker_retries=0)
        health = _health(0, tmp_path)
        batch = coordinator._take_batch(health)
        coordinator._on_worker_lost(health, batch, RuntimeError("boom"))
        assert health.retired
        assert _counter(coordinator, "dist/workers_retired") == 1

    def test_run_with_jobs_but_no_workers_is_an_error(self, tmp_path):
        coordinator = _coordinator(tmp_path)
        with pytest.raises(DispatchError, match="at least one worker"):
            coordinator.run(())


class TestEmptyMatrix:
    def test_no_cells_never_touches_workers_or_cache(self, tmp_path):
        coordinator = DispatchCoordinator("test", [], cache_dir=tmp_path)
        assert coordinator.pending_jobs == 0
        report = coordinator.run(())  # zero endpoints: must not raise
        assert report.total == 0
        assert report.dispatched == 0 and report.completed == 0
        assert report.failures == []
        # No cache file, no shard directory, nothing created but stats.
        assert list(tmp_path.glob("results-v*.jsonl")) == []
        assert list(tmp_path.glob("*.dist-*")) == []
        assert (tmp_path / "dist-stats.json").exists()

    def test_fully_cached_matrix_leaves_cache_bytes_untouched(
        self, tmp_path, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 0
        [cache_file] = tmp_path.glob("results-v*.jsonl")
        before = cache_file.read_bytes()

        coordinator = DispatchCoordinator(
            "test", [(BASE_VICTIM_2MB, "sjeng.1")], cache_dir=tmp_path
        )
        assert coordinator.pending_jobs == 0
        assert coordinator.cached_cells == 1
        report = coordinator.run(())
        assert report.cached == 1 and report.dispatched == 0
        assert cache_file.read_bytes() == before

    def test_duplicate_cells_collapse(self, tmp_path):
        cells = sweep_cells(["sjeng.1", "sjeng.1"], [BASE_VICTIM_2MB])
        coordinator = DispatchCoordinator("test", cells, cache_dir=tmp_path)
        assert coordinator.total_cells == 1
        assert coordinator.pending_jobs == 1


def _dead_pid() -> int:
    """A pid guaranteed dead: a reaped child's."""
    import subprocess

    proc = subprocess.Popen(["true"])
    proc.wait()
    return proc.pid


class TestPartialFold:
    def test_fold_window_makes_results_durable_midflight(self, tmp_path):
        coordinator = _coordinator(tmp_path, fold_every=1)
        coordinator._shard_dir.mkdir(parents=True)
        health = _health(0, tmp_path)
        job = coordinator.jobs[0]
        coordinator._record_result(
            health, {"event": "result", "key": job.key, "result": {"ipc": 1.0}}
        )

        coordinator._maybe_fold()

        # The result is in the cache *now*, mid-dispatch: a kill -9
        # from here on cannot lose it.
        cache = coordinator.runner.cache_path
        assert read_cache_entries(cache)[0] == {job.key: {"ipc": 1.0}}
        assert _counter(coordinator, "dist/folds_partial") == 1
        replay = replay_journal(coordinator._journal.path)
        assert replay.completed == {job.key}
        assert replay.folded == {job.key}
        assert replay.staged == set()

    def test_empty_window_is_skipped(self, tmp_path):
        coordinator = _coordinator(tmp_path, fold_every=1)
        coordinator._maybe_fold()  # no results staged: nothing to fold
        assert _counter(coordinator, "dist/folds_partial") == 0
        assert coordinator.runner.cache_path.exists() is False

    def test_fold_every_zero_disables_partial_folds(self, tmp_path):
        coordinator = _coordinator(tmp_path, fold_every=0)
        coordinator._shard_dir.mkdir(parents=True)
        job = coordinator.jobs[0]
        coordinator._record_result(
            _health(0, tmp_path),
            {"event": "result", "key": job.key, "result": {"ipc": 1.0}},
        )
        coordinator._maybe_fold()
        assert _counter(coordinator, "dist/folds_partial") == 0
        assert coordinator.runner.cache_path.exists() is False

    def test_window_folds_only_new_results(self, tmp_path):
        coordinator = _coordinator(tmp_path, fold_every=1)
        coordinator._shard_dir.mkdir(parents=True)
        health = _health(0, tmp_path)
        first, second = coordinator.jobs
        coordinator._record_result(
            health, {"event": "result", "key": first.key, "result": {"a": 1}}
        )
        coordinator._maybe_fold()
        coordinator._record_result(
            health, {"event": "result", "key": second.key, "result": {"b": 2}}
        )
        coordinator._maybe_fold()
        replay = replay_journal(coordinator._journal.path)
        assert replay.folds == 2
        assert replay.folded == {first.key, second.key}
        cache = read_cache_entries(coordinator.runner.cache_path)[0]
        assert cache == {first.key: {"a": 1}, second.key: {"b": 2}}
        assert _counter(coordinator, "dist/merged_new_entries") == 2


class TestJournalLifecycle:
    def test_live_foreign_journal_refuses_to_race(self, tmp_path):
        # pid 1 is always alive (and never us): the coordinator must
        # refuse to dispatch over another live dispatch's journal.
        probe = _coordinator(tmp_path)
        journal = DispatchJournal(journal_path(tmp_path, "test"))
        journal._append(
            {"t": "begin", "pid": 1, "preset": "test", "shard_dir": ""}
        )
        del probe
        with pytest.raises(DispatchError, match="another dispatch \\(pid 1\\)"):
            _coordinator(tmp_path)

    def test_ended_journal_is_silently_removed(self, tmp_path):
        journal = DispatchJournal(journal_path(tmp_path, "test"))
        journal._append({"t": "begin", "pid": 1, "shard_dir": ""})
        journal._append({"t": "end", "completed": 2, "failed": 0})
        coordinator = _coordinator(tmp_path)
        assert not journal.path.exists()
        assert _counter(coordinator, "dist/resumes") == 0

    def test_dead_journal_without_resume_is_discarded(self, tmp_path):
        journal = DispatchJournal(journal_path(tmp_path, "test"))
        journal._append({"t": "begin", "pid": _dead_pid(), "shard_dir": ""})
        coordinator = _coordinator(tmp_path)
        assert not journal.path.exists()
        assert _counter(coordinator, "dist/resumes") == 0
        assert _counter(coordinator, "dist/jobs_salvaged") == 0

    def test_resume_salvages_staged_results_before_resolution(self, tmp_path):
        # Learn the real cache key the matrix will resolve, then fake a
        # crashed coordinator that staged exactly that cell.
        probe = _coordinator(tmp_path)
        assert probe.pending_jobs == 2
        key = probe.jobs[0].key
        payload = {"ipc": 1.25}
        cache_path = probe.runner.cache_path
        shard_dir = cache_path.parent / f"{cache_path.name}.dist-{_dead_pid()}"
        shard_dir.mkdir(parents=True)
        (shard_dir / "worker-0.jsonl").write_text(
            encode_entry(key, payload) + "\n"
        )
        journal = DispatchJournal(journal_path(tmp_path, "test"))
        journal.begin(
            preset="test",
            total=2,
            cached=0,
            keys=[job.key for job in probe.jobs],
            shard_dir=shard_dir,
            resumed=False,
        )
        journal.result(key, "worker-0")
        # Overwrite the pid with a dead one (begin() records ours).
        text = journal.path.read_text()
        journal.remove()
        from repro.dist.journal import decode_record, encode_record

        lines = []
        for line in text.splitlines():
            record = decode_record(line.encode())
            if record and record["t"] == "begin":
                record["pid"] = _dead_pid()
            lines.append(encode_record(record))
        journal.path.write_text("\n".join(lines) + "\n")

        coordinator = _coordinator(tmp_path, resume=True)

        # Salvage folded the staged cell in *before* resolution: it now
        # counts as cached and will never re-lease.
        assert coordinator.pending_jobs == 1
        assert coordinator.cached_cells == 1
        assert _counter(coordinator, "dist/resumes") == 1
        assert _counter(coordinator, "dist/jobs_salvaged") == 1
        assert read_cache_entries(cache_path)[0][key] == payload
        assert not journal.path.exists()
        # The dead coordinator's shard directory was reclaimed too.
        assert not shard_dir.exists()
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1


class TestStaleShardReclaim:
    def test_dead_pid_shards_reclaimed_live_and_own_kept(self, tmp_path):
        probe = _coordinator(tmp_path)
        cache_path = probe.runner.cache_path
        dead = cache_path.parent / f"{cache_path.name}.dist-{_dead_pid()}"
        live = cache_path.parent / f"{cache_path.name}.dist-1"
        own = cache_path.parent / f"{cache_path.name}.dist-{os.getpid()}"
        for path in (dead, live, own):
            path.mkdir(parents=True)
        odd = cache_path.parent / f"{cache_path.name}.dist-notapid"
        odd.mkdir()

        coordinator = _coordinator(tmp_path)

        assert not dead.exists()
        assert live.exists()  # pid 1 is alive: never touched
        assert own.exists()
        assert odd.exists()  # unparseable suffix: left alone
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1
