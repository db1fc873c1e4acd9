"""Tests for experiment-runner caching semantics."""

import json
import shutil
import threading
import warnings
from pathlib import Path

import pytest

import repro.sim.experiment as experiment
import repro.sim.resultcache as resultcache
from repro.cli import main
from repro.sim import metrics
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, BENCH, TEST
from repro.sim.experiment import CACHE_VERSION, ExperimentRunner
from repro.sim.locking import FileLock, LockTimeoutError
from repro.sim.resultcache import (
    CorruptCacheLineWarning,
    append_cache_entries,
    cache_file_name,
    encode_entry,
    frame_line,
    load_cache_entries,
    read_cache_entries,
    scan_cache_file,
)
from repro.workloads.suite import SUITE_VERSION, sensitive_specs

COMMITTED_BENCH = (
    Path(__file__).resolve().parents[2] / ".repro_cache" / cache_file_name("bench")
)


def _counter(runner: ExperimentRunner, name: str) -> int:
    metric = runner.registry.as_dict().get(name)
    return metric["value"] if metric else 0


def _undecodable_line(key: str) -> str:
    """A line in canonical shape with a valid CRC whose result does not parse."""
    return frame_line(f'{{"key": "{key}", "result": {{"ipc": }}}}')


class TestCacheKeys:
    def test_keys_embed_suite_version(self):
        key = ExperimentRunner._single_key(BASELINE_2MB, "mcf.1", 100)
        assert f"s{SUITE_VERSION}" in key
        assert "mcf.1" in key

    def test_cache_file_embeds_cache_version(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        runner.run_single(BASELINE_2MB, "sjeng.1")
        files = list(tmp_path.glob("results-*.jsonl"))
        assert len(files) == 1
        assert f"v{CACHE_VERSION}" in files[0].name

    def test_corrupt_cache_lines_are_skipped_with_a_warning(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        result = runner.run_single(BASELINE_2MB, "sjeng.1")
        path = next(tmp_path.glob("results-*.jsonl"))
        with path.open("a") as handle:
            handle.write("{torn json\n")
        with pytest.warns(CorruptCacheLineWarning, match="1 corrupt"):
            fresh = ExperimentRunner(TEST, cache_dir=tmp_path)
        again = fresh.run_single(BASELINE_2MB, "sjeng.1")
        assert again.to_dict() == result.to_dict()
        assert fresh.cache_hits == 1  # served from the surviving entry

    def test_structurally_wrong_lines_are_skipped(self, tmp_path):
        """Lines that parse as JSON but are not cache entries are dropped.

        These occur when a worker is killed mid-write and the torn tail
        of one entry happens to remain valid JSON.
        """
        path = tmp_path / "cache.jsonl"
        good = {"key": "k1", "result": {"ipc": 1.0}}
        # Valid CRC suffixes, so the structural check is what rejects them.
        lines = [
            frame_line(json.dumps(good)),
            frame_line(json.dumps(["not", "a", "dict"])),
            frame_line(json.dumps({"result": {"no": "key"}})),
            frame_line(json.dumps({"key": 42, "result": {}})),
            frame_line(json.dumps({"key": "k2"})),
            "",
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(CorruptCacheLineWarning, match="4 corrupt"):
            entries = load_cache_entries(path)
        assert entries == {"k1": {"ipc": 1.0}}

    def test_clean_files_load_without_warning(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        runner.run_single(BASELINE_2MB, "sjeng.1")
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            ExperimentRunner(TEST, cache_dir=tmp_path)

    def test_memory_only_mode_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(TEST, use_disk_cache=False)
        runner.run_single(BASELINE_2MB, "sjeng.1")
        assert not (tmp_path / ".repro_cache").exists()

    def test_cache_entries_are_checksummed_json(self, tmp_path):
        """Every v5 line is canonical JSON plus a matching CRC32 suffix."""
        import zlib

        runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        runner.run_single(BASELINE_2MB, "sjeng.1")
        path = next(tmp_path.glob("results-*.jsonl"))
        for line in path.read_text().splitlines():
            payload, _, crc = line.rpartition("#")
            assert crc == f"{zlib.crc32(payload.encode()) & 0xFFFFFFFF:08x}"
            entry = json.loads(payload)
            assert set(entry) == {"key", "result"}
            # Canonical encoding: byte-identity across serial/parallel
            # sweeps depends on sorted keys.
            assert payload == json.dumps(entry, sort_keys=True)


class TestDeferredRejection:
    """The one rejection the raw-line store defers to a cell's first use.

    A canonical-shaped line whose CRC matches but whose result does not
    parse has its key sliced out at load; only decoding the result shows
    it is corrupt.
    """

    CELL = (BASELINE_2MB, "sjeng.1")

    def _poisoned_cache(self, tmp_path):
        """A cache whose only line for ``CELL`` is undecodable."""
        key = ExperimentRunner._single_key(*self.CELL, TEST.trace_length)
        path = tmp_path / cache_file_name(TEST.name)
        path.write_text(_undecodable_line(key) + "\n")
        return key, path

    def test_load_report_defers_it(self, tmp_path):
        _, path = self._poisoned_cache(tmp_path)
        store = load_cache_entries(path)
        assert (store.report.entries, store.report.skipped) == (1, 0)
        with pytest.warns(CorruptCacheLineWarning, match="first use"):
            assert dict(store) == {}

    def test_counted_on_first_use_and_resimulated(self, tmp_path):
        key, _ = self._poisoned_cache(tmp_path)
        reference = ExperimentRunner(TEST, use_disk_cache=False).run_single(*self.CELL)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        assert _counter(runner, "sweep/corrupt_lines") == 0  # decoded nothing

        with pytest.warns(CorruptCacheLineWarning, match="first use"):
            assert not runner.has_cached(*self.CELL)
        assert _counter(runner, "sweep/corrupt_lines") == 1
        assert runner.corrupt_lines_skipped == 1

        result = runner.run_single(*self.CELL)  # a miss: simulated again
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        assert result.to_dict() == reference.to_dict()
        assert runner.cached_payload(key) == reference.to_dict()
        assert _counter(runner, "sweep/corrupt_lines") == 1  # counted once

    def test_serial_append_supersedes_the_bad_line(self, tmp_path):
        key, _ = self._poisoned_cache(tmp_path)
        with pytest.warns(CorruptCacheLineWarning):
            result = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1).run_single(
                *self.CELL
            )
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            fresh = ExperimentRunner(TEST, cache_dir=tmp_path)
            assert fresh.cached_payload(key) == result.to_dict()
        assert fresh.corrupt_lines_skipped == 0

    def test_parallel_merge_replaces_the_bad_line(self, tmp_path):
        key, path = self._poisoned_cache(tmp_path)
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=2)
        with pytest.warns(CorruptCacheLineWarning):
            assert runner.prewarm([self.CELL, (BASELINE_2MB, "mcf.1")]) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            fresh = ExperimentRunner(TEST, cache_dir=tmp_path)
            assert fresh.cached_payload(key) == runner.cached_payload(key)
        assert scan_cache_file(path).clean  # the merge scrubbed the bad line

    def test_verify_strict_rejects_the_file(self, tmp_path, capsys):
        self._poisoned_cache(tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path), "--strict"]) == 1
        assert "verification failed" in capsys.readouterr().err


class TestReload:
    def test_reload_keeps_decoded_results_and_counts_a_bad_line_once(
        self, tmp_path
    ):
        path = tmp_path / cache_file_name(TEST.name)
        path.write_text(
            encode_entry("k-good", {"ipc": 1.0})
            + "\n"
            + _undecodable_line("k-bad")
            + "\n"
        )
        runner = ExperimentRunner(TEST, cache_dir=tmp_path)
        decoded = runner.cached_payload("k-good")
        with pytest.warns(CorruptCacheLineWarning):
            assert runner.cached_payload("k-bad") is None
        append_cache_entries(path, [("k-late", {"ipc": 3.0})])

        runner.reload_disk_cache()
        assert runner.cached_payload("k-late") == {"ipc": 3.0}
        assert runner.cached_payload("k-good") is decoded  # not decoded again
        assert runner.cached_payload("k-bad") is None
        assert runner.corrupt_lines_skipped == 1


class TestAdoption:
    def test_a_fresh_runner_adopts_its_load_without_a_copy(
        self, tmp_path, monkeypatch
    ):
        shutil.copyfile(COMMITTED_BENCH, tmp_path / COMMITTED_BENCH.name)
        loads = []

        def recording_load(path):
            loads.append(load_cache_entries(path))
            return loads[-1]

        monkeypatch.setattr(experiment, "load_cache_entries", recording_load)
        runner = ExperimentRunner(BENCH, cache_dir=tmp_path, jobs=1)
        (loaded,) = loads
        assert runner._memory._values is loaded._values
        assert len(runner._memory) == loaded.report.entries == 1560

    def test_a_loaded_store_counts_and_yields_decoded_items(self):
        """``len`` and ``items`` as the end-to-end benchmark's probe uses them."""
        loaded = load_cache_entries(COMMITTED_BENCH)
        values, _ = read_cache_entries(COMMITTED_BENCH)
        assert len(loaded) == len(values) == 1560
        assert list(loaded.items())[:20] == list(values.items())[:20]


class TestLockCounters:
    """A runner counts the lock waits and timeouts of its own writes.

    The cache lock is held while ``prewarm`` writes: by the serial
    path's append of each cell, or the parallel path's shard merge.
    """

    CELLS = [(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_waits_for_a_held_lock_are_counted(self, tmp_path, monkeypatch, jobs):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=jobs, lock_timeout=60)
        holder = FileLock.for_target(runner.cache_path).acquire()
        releases: list[threading.Timer] = []

        class ReleasedSoonAfterAsking(FileLock):
            """The first write to ask for the lock gets it 0.2 s later.

            The release thread starts only once a write asks, after any
            worker pool has exited, so no process forks beside it.
            """

            def acquire(self):
                if holder.held and not releases:
                    releases.append(threading.Timer(0.2, holder.release))
                    releases[0].start()
                return super().acquire()

        monkeypatch.setattr(resultcache, "FileLock", ReleasedSoonAfterAsking)
        assert runner.prewarm(self.CELLS) == 2
        releases[0].join(timeout=10)
        assert not releases[0].is_alive()
        assert _counter(runner, "cache/lock_waits") > 0  # timing sets the count
        assert _counter(runner, "cache/lock_timeouts") == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_write_that_gives_up_is_counted_once(self, tmp_path, jobs):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=jobs, lock_timeout=0)
        with FileLock.for_target(runner.cache_path):
            with pytest.raises(LockTimeoutError):
                runner.prewarm(self.CELLS)
        assert _counter(runner, "cache/lock_timeouts") == 1


class TestDecodeOnDemand:
    def test_figure8_table_decodes_only_the_cells_it_reads(
        self, tmp_path, monkeypatch
    ):
        """A warm Figure 8 reads 120 cells of the 1,560 and decodes only those."""
        shutil.copyfile(COMMITTED_BENCH, tmp_path / COMMITTED_BENCH.name)
        decoded: list[str] = []
        decode = resultcache._decode_payload

        def counting_decode(payload: str):
            decoded.append(payload)
            return decode(payload)

        monkeypatch.setattr(resultcache, "_decode_payload", counting_decode)
        runner = ExperimentRunner(BENCH, cache_dir=tmp_path, jobs=1)
        assert decoded == []

        names = [spec.name for spec in sensitive_specs()]
        pairs = runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, names)
        table = {base.trace: metrics.ipc_ratio(cand, base) for base, cand in pairs}
        assert len(table) == 60
        assert (runner.cache_hits, runner.cache_misses) == (120, 0)
        assert len(decoded) == 120

        assert not runner.has_cached(BASELINE_2MB, "no-such-trace")
        assert runner.cached_payload("absent") is None
        assert len(decoded) == 120  # absent keys decode nothing
