"""Tests for experiment-runner caching semantics."""

import json
import warnings

import pytest

from repro.sim.config import BASELINE_2MB, TEST
from repro.sim.experiment import CACHE_VERSION, ExperimentRunner
from repro.sim.resultcache import (
    CorruptCacheLineWarning,
    frame_line,
    load_cache_entries,
)
from repro.workloads.suite import SUITE_VERSION


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
