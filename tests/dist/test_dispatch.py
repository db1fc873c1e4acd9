"""Unit tests for the dispatch coordinator's edge cases.

The races a distributed sweep must get right without a server in
sight: a worker dying mid-batch (requeue, reassign, retire), a
partitioned worker completing a job the coordinator already reassigned
(first result wins, duplicate is a counted no-op), the degenerate
empty matrix (never touch a worker or the cache file), and the
crash-safety machinery — streaming partial folds, the staged-shard
directory's lifecycle, stale-shard reclaim and crashed-coordinator
salvage, fuzzed at every byte of a torn shard.  The wire-in-the-middle
versions of the same invariants live in ``test_dispatch_integration.py``.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings

import pytest

from repro.dist.coordinator import (
    DispatchCoordinator,
    DispatchError,
    WorkerHealth,
    sweep_cells,
)
from repro.dist.worker import WorkerEndpoint, parse_worker_spec
from repro.serve.client import Address, ServeClientError
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB
from repro.sim.resultcache import (
    CorruptCacheLineWarning,
    encode_entry,
    frame_line,
    read_cache_entries,
)


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
        assert coordinator._folded == {job.key}

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
        assert _counter(coordinator, "dist/folds_partial") == 2
        assert coordinator._folded == {first.key, second.key}
        cache = read_cache_entries(coordinator.runner.cache_path)[0]
        assert cache == {first.key: {"a": 1}, second.key: {"b": 2}}
        assert _counter(coordinator, "dist/merged_new_entries") == 2


def _shard_dir_of(coordinator: DispatchCoordinator, suffix: object):
    """``<cache>.dist-<suffix>`` next to ``coordinator``'s cache file."""
    cache_path = coordinator.runner.cache_path
    return cache_path.parent / f"{cache_path.name}.dist-{suffix}"


class TestShardDirectoryLifecycle:
    def test_live_foreign_shard_directory_refuses_to_race(self, tmp_path):
        # pid 1 is always alive (and never us): the coordinator must
        # refuse to dispatch over another live dispatch's shards.
        live = _shard_dir_of(_coordinator(tmp_path), 1)
        live.mkdir()
        with pytest.raises(DispatchError, match="another dispatch \\(pid 1\\)"):
            _coordinator(tmp_path, resume=True)
        assert live.exists()  # never touched

    def test_dead_directory_without_resume_is_discarded(self, tmp_path):
        probe = _coordinator(tmp_path)
        key = probe.jobs[0].key
        dead = _shard_dir_of(probe, _dead_pid())
        dead.mkdir()
        (dead / "worker-0.jsonl").write_text(encode_entry(key, {"ipc": 1.25}) + "\n")

        coordinator = _coordinator(tmp_path)

        assert not dead.exists()
        # Nothing was salvaged: the staged cell recomputes.
        assert coordinator.pending_jobs == 2
        assert key in [job.key for job in coordinator.jobs]
        assert not coordinator.runner.cache_path.exists()
        assert _counter(coordinator, "dist/resumes") == 0
        assert _counter(coordinator, "dist/jobs_salvaged") == 0
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1

    def test_resume_salvages_staged_results_before_resolution(self, tmp_path):
        # Learn the real cache key the matrix will resolve, then fake a
        # crashed coordinator that staged exactly that cell.
        probe = _coordinator(tmp_path)
        assert probe.pending_jobs == 2
        key = probe.jobs[0].key
        payload = {"ipc": 1.25}
        shard_dir = _shard_dir_of(probe, _dead_pid())
        shard_dir.mkdir()
        (shard_dir / "worker-0.jsonl").write_text(
            encode_entry(key, payload) + "\n"
        )

        coordinator = _coordinator(tmp_path, resume=True)

        # Salvage folded the staged cell in *before* resolution: it now
        # counts as cached and will never re-lease.
        assert coordinator.pending_jobs == 1
        assert coordinator.cached_cells == 1
        assert _counter(coordinator, "dist/resumes") == 1
        assert _counter(coordinator, "dist/jobs_salvaged") == 1
        assert read_cache_entries(coordinator.runner.cache_path)[0][key] == payload
        # The dead coordinator's shard directory was reclaimed too.
        assert not shard_dir.exists()
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1

    def test_a_dispatch_with_a_failed_cell_leaves_nothing_to_resume(
        self, tmp_path
    ):
        coordinator = _coordinator(tmp_path)
        coordinator._shard_dir.mkdir()
        health = _health(0, tmp_path)
        done, failed = coordinator.jobs
        coordinator._record_result(
            health, {"event": "result", "key": done.key, "result": {"ipc": 1.0}}
        )
        coordinator._record_failure(
            health,
            {"event": "failed", "key": failed.key, "error": "E", "message": "m"},
        )

        report = coordinator._fold()

        assert [f["key"] for f in report.failures] == [failed.key]
        assert list(tmp_path.glob("*.dist-*")) == []
        later = _coordinator(tmp_path, resume=True)
        assert _counter(later, "dist/resumes") == 0
        assert later.pending_jobs == 1  # only the failed cell re-runs


class TestStaleShardReclaim:
    def test_dead_pid_shards_reclaimed_own_and_odd_kept(self, tmp_path):
        probe = _coordinator(tmp_path)
        dead = _shard_dir_of(probe, _dead_pid())
        own = _shard_dir_of(probe, os.getpid())
        for path in (dead, own):
            path.mkdir(parents=True)
        odd = _shard_dir_of(probe, "notapid")
        odd.mkdir()

        coordinator = _coordinator(tmp_path)

        assert not dead.exists()
        assert own.exists()
        assert odd.exists()  # unparseable suffix: left alone
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1


def _stage_dead(probe: DispatchCoordinator, shards: dict[str, bytes], pid=None):
    """A crashed coordinator's shard directory holding ``shards`` by name."""
    directory = _shard_dir_of(probe, _dead_pid() if pid is None else pid)
    directory.mkdir()
    for name, data in shards.items():
        (directory / name).write_bytes(data)
    return directory


def _lines(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


class TestStartupPass:
    """The one pass over ``.dist-*`` directories a coordinator makes at birth."""

    def test_a_refused_dispatch_salvages_and_reclaims_nothing(self, tmp_path):
        probe = _coordinator(tmp_path)
        key = probe.jobs[0].key
        dead = _stage_dead(probe, {"worker-0.jsonl": _lines(encode_entry(key, {}))})
        _shard_dir_of(probe, 1).mkdir()  # pid 1: alive, and never us

        with pytest.raises(DispatchError, match="another dispatch"):
            _coordinator(tmp_path, resume=True)

        # The live dispatch may still be folding into this cache: the
        # refusal leaves every directory and the cache file as they were.
        assert (dead / "worker-0.jsonl").exists()
        assert not probe.runner.cache_path.exists()

    def test_every_dead_directory_is_salvaged_in_one_pass(self, tmp_path):
        probe = _coordinator(tmp_path)
        first, second = (job.key for job in probe.jobs)
        dead = [
            _stage_dead(probe, {"worker-0.jsonl": _lines(encode_entry(key, {}))})
            for key in (first, second)
        ]

        coordinator = _coordinator(tmp_path, resume=True)

        assert coordinator.pending_jobs == 0
        assert not any(directory.exists() for directory in dead)
        assert _counter(coordinator, "dist/jobs_salvaged") == 2
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 2
        assert _counter(coordinator, "dist/resumes") == 1  # one per dispatch

    def test_an_empty_dead_directory_resumes_with_nothing_salvaged(
        self, tmp_path
    ):
        # A coordinator killed before its first result staged anything.
        dead = _stage_dead(_coordinator(tmp_path), {})

        coordinator = _coordinator(tmp_path, resume=True)

        assert not dead.exists()
        assert coordinator.pending_jobs == 2
        assert not coordinator.runner.cache_path.exists()
        assert _counter(coordinator, "dist/resumes") == 1
        assert _counter(coordinator, "dist/jobs_salvaged") == 0
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 1

    def test_only_worker_shards_are_salvaged(self, tmp_path):
        probe = _coordinator(tmp_path)
        shard, stray = (job.key for job in probe.jobs)
        dead = _stage_dead(
            probe,
            {
                "worker-0.jsonl": _lines(encode_entry(shard, {"ipc": 1.0})),
                "notes.jsonl": _lines(encode_entry(stray, {"ipc": 2.0})),
            },
        )

        coordinator = _coordinator(tmp_path, resume=True)

        assert [job.key for job in coordinator.jobs] == [stray]
        assert read_cache_entries(coordinator.runner.cache_path)[0] == {
            shard: {"ipc": 1.0}
        }
        assert not dead.exists()  # reclaimed whole, stray file included

    def test_a_file_named_like_a_shard_directory_is_left_alone(self, tmp_path):
        probe = _coordinator(tmp_path)
        imposter = _shard_dir_of(probe, _dead_pid())
        imposter.write_bytes(_lines(encode_entry(probe.jobs[0].key, {})))

        coordinator = _coordinator(tmp_path, resume=True)

        assert imposter.is_file()
        assert coordinator.pending_jobs == 2
        assert _counter(coordinator, "dist/resumes") == 0
        assert _counter(coordinator, "dist/stale_shards_reclaimed") == 0

    def test_salvage_never_overwrites_a_result_already_in_the_cache(
        self, tmp_path
    ):
        # A partial fold landed the cell before the crash; the shard's
        # copy of it must not replace the folded bytes.
        probe = _coordinator(tmp_path)
        key = probe.jobs[0].key
        probe.runner.cache_path.write_bytes(_lines(encode_entry(key, {"ipc": 1.0})))
        _stage_dead(probe, {"worker-0.jsonl": _lines(encode_entry(key, {"ipc": 9.9}))})

        coordinator = _coordinator(tmp_path, resume=True)

        assert read_cache_entries(coordinator.runner.cache_path)[0] == {
            key: {"ipc": 1.0}
        }
        assert coordinator.cached_cells == 1
        assert _counter(coordinator, "dist/jobs_salvaged") == 0
        assert _counter(coordinator, "dist/resumes") == 1

    def test_salvage_order_cannot_perturb_the_cache_bytes(self, tmp_path):
        caches = []
        for layout in ("one-shard", "two-shards-swapped"):
            root = tmp_path / layout
            probe = _coordinator(root)
            first, second = (
                encode_entry(job.key, {"ipc": float(job.index)}) for job in probe.jobs
            )
            if layout == "one-shard":
                shards = {"worker-0.jsonl": _lines(first, second)}
            else:
                shards = {
                    "worker-0.jsonl": _lines(second),
                    "worker-1.jsonl": _lines(first),
                }
            _stage_dead(probe, shards)
            coordinator = _coordinator(root, resume=True)
            assert coordinator.pending_jobs == 0
            caches.append(coordinator.runner.cache_path.read_bytes())
        assert caches[0] == caches[1]

    def test_a_fully_salvaged_resume_dispatches_nothing_and_says_so(
        self, tmp_path
    ):
        probe = _coordinator(tmp_path)
        _stage_dead(
            probe,
            {
                "worker-0.jsonl": _lines(
                    *(encode_entry(job.key, {"ipc": 1.0}) for job in probe.jobs)
                )
            },
        )

        coordinator = _coordinator(tmp_path, resume=True)
        report = coordinator.run(())  # nothing left to lease: no worker needed

        assert (report.cached, report.dispatched) == (2, 0)
        assert (report.resumes, report.salvaged) == (1, 2)
        assert report.stale_shards_reclaimed == 1
        stats = json.loads((tmp_path / "dist-stats.json").read_text())
        assert stats["resumed"] is True
        assert stats["report"]["salvaged"] == 2
        assert stats["counters"]["dist/resumes"]["value"] == 1
        assert list(tmp_path.glob("*.dist-*")) == []


def _unchecksummed(key: str) -> str:
    return json.dumps({"key": key, "result": {"ipc": 2.0}}, sort_keys=True)


# Lines a crash, bit rot or a foreign writer can leave in a shard, each
# built for the cell that must therefore *not* be salvaged.
_BAD_SHARD_LINES = {
    "garbage": lambda key: "not a cache line",
    "torn-tail": lambda key: encode_entry(key, {"ipc": 2.0})[:40],
    "no-checksum": _unchecksummed,
    "malformed-checksum": lambda key: _unchecksummed(key) + "#zzzzzzzz",
    "wrong-checksum": lambda key: _unchecksummed(key) + "#00000000",
    "not-an-object": lambda key: frame_line(json.dumps([key, {"ipc": 2.0}])),
    "no-result": lambda key: frame_line(json.dumps({"key": key})),
    "result-not-an-object": lambda key: frame_line(
        json.dumps({"key": key, "result": 2.0})
    ),
}


class TestSalvageTolerance:
    """``--resume`` reads a dead coordinator's shards without trusting them.

    After a ``kill -9`` salvage is the only reader of those bytes: it
    must never raise, must fold in every whole line, and must never fold
    in a torn, altered or foreign one.  The fuzz cases cut and bit-flip
    a two-entry shard at every offset.
    """

    @pytest.mark.parametrize("kind", list(_BAD_SHARD_LINES))
    def test_a_torn_or_foreign_line_is_not_salvaged(self, tmp_path, kind):
        probe = _coordinator(tmp_path)
        good, bad = (job.key for job in probe.jobs)
        _stage_dead(
            probe,
            {
                "worker-0.jsonl": _lines(
                    encode_entry(good, {"ipc": 1.0}), _BAD_SHARD_LINES[kind](bad)
                )
            },
        )

        with pytest.warns(CorruptCacheLineWarning, match="skipped 1 corrupt"):
            coordinator = _coordinator(tmp_path, resume=True)

        assert [job.key for job in coordinator.jobs] == [bad]
        assert read_cache_entries(coordinator.runner.cache_path)[0] == {
            good: {"ipc": 1.0}
        }
        assert _counter(coordinator, "dist/jobs_salvaged") == 1

    @staticmethod
    def _shard(tmp_path):
        """The two entries the matrix resolves and their shard's bytes."""
        probe = _coordinator(tmp_path / "probe")
        entries = {job.key: {"ipc": float(job.index + 1)} for job in probe.jobs}
        lines = [encode_entry(key, value) for key, value in entries.items()]
        # The offset just past each line's newline.
        ends = list(itertools.accumulate(len(line) + 1 for line in lines))
        return entries, _lines(*lines), ends

    @staticmethod
    def _salvage(root, data: bytes, pid: int):
        """``(coordinator, cache entries)`` of a resume over ``data``."""
        root.mkdir()
        staged = _stage_dead(_coordinator(root), {"worker-0.jsonl": data}, pid=pid)
        coordinator = _coordinator(root, resume=True)  # must never raise
        assert not staged.exists()
        return coordinator, read_cache_entries(coordinator.runner.cache_path)[0]

    def test_truncation_at_every_offset_salvages_exactly_the_whole_lines(
        self, tmp_path
    ):
        entries, data, ends = self._shard(tmp_path)
        pid = _dead_pid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptCacheLineWarning)
            for offset in range(len(data) + 1):
                coordinator, salvaged = self._salvage(
                    tmp_path / f"cut-{offset}", data[:offset], pid
                )
                # A line survives iff the cut spares all its bytes; only
                # its newline may be gone.
                whole = {
                    key: value
                    for (key, value), end in zip(entries.items(), ends)
                    if end - 1 <= offset
                }
                assert salvaged == whole, offset
                assert coordinator.pending_jobs == 2 - len(whole), offset

    def test_a_flipped_bit_anywhere_loses_only_the_lines_it_touches(
        self, tmp_path
    ):
        entries, data, ends = self._shard(tmp_path)
        keys = list(entries)
        pid = _dead_pid()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CorruptCacheLineWarning)
            for offset in range(len(data)):
                corrupted = bytearray(data)
                corrupted[offset] ^= 0x10
                coordinator, salvaged = self._salvage(
                    tmp_path / f"flip-{offset}", bytes(corrupted), pid
                )
                # CRC-32 catches every single-bit error, so the line
                # holding the flip is lost, never folded in altered.  A
                # flipped newline also glues the next line onto it.
                index = sum(end <= offset for end in ends)
                glued = 2 if offset == ends[index] - 1 else 1
                lost = keys[index : index + glued]
                assert salvaged == {
                    key: value for key, value in entries.items() if key not in lost
                }, offset
                assert coordinator.pending_jobs == len(lost), offset
