"""Unit tests for the v5 checksummed result-cache format.

The persistence contract under test: every line must carry a CRC32 the
loader verifies (bit rot or a torn-off suffix becomes a *detected*,
counted skip, in the report or stats the call returns), and merges fold
into existing files under a lock via atomic replace (an interrupted
merge leaves the original intact).
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.sim.resultcache import (
    CACHE_VERSION,
    CorruptCacheLineWarning,
    MergeStats,
    append_cache_entries,
    cache_file_name,
    cache_files,
    canonicalize_cache_file,
    encode_entry,
    load_cache_entries,
    merge_cache_entries,
    read_cache_entries,
    scan_cache_file,
)
from repro.sim.locking import FileLock


def _write_v5(path, entries):
    with path.open("w") as handle:
        for key, result in entries:
            handle.write(encode_entry(key, result) + "\n")


class TestLineFormat:
    def test_encode_round_trips_through_read(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        entries = [("a", {"ipc": 1.5}), ("b", {"ipc": 0.5, "obs": {"x": 1}})]
        _write_v5(path, entries)
        values, report = read_cache_entries(path)
        assert list(values.items()) == entries
        assert (report.lines, report.entries) == (2, 2) and report.clean

    def test_line_without_crc_suffix_is_corrupt(self, tmp_path):
        """A torn-off suffix is corrupt, never an unchecked entry.

        The second line lost its ``#crc32`` and its payload was altered
        afterwards; every reader and rewriter must reject it as corrupt
        (not as a CRC failure) and keep the intact first line.
        """
        good = encode_entry("k1", {"x": 1})
        stripped = encode_entry("k2", {"x": 2}).rpartition("#")[0]
        text = good + "\n" + stripped.replace('"x": 2', '"x": 7') + "\n"
        load_path, merge_path, canonical_path = (
            tmp_path / f"{name}.jsonl" for name in ("load", "merge", "canonical")
        )
        for path in (load_path, merge_path, canonical_path):
            path.write_text(text)

        with pytest.warns(CorruptCacheLineWarning):
            loaded = load_cache_entries(load_path)
        assert loaded == {"k1": {"x": 1}}
        assert (loaded.report.corrupt_lines, loaded.report.crc_failures) == (1, 0)

        report = scan_cache_file(load_path)
        assert report.entries == 1 and not report.clean
        assert (report.corrupt_lines, report.crc_failures) == (1, 0)

        with pytest.warns(CorruptCacheLineWarning):
            stats = merge_cache_entries(merge_path, [])
        assert (stats.corrupt_lines, stats.crc_failures) == (1, 0)
        with pytest.warns(CorruptCacheLineWarning):
            stats = canonicalize_cache_file(canonical_path)
        assert stats.existing_entries == 1
        assert (stats.corrupt_lines, stats.crc_failures) == (1, 0)
        for path in (merge_path, canonical_path):
            assert path.read_text() == good + "\n"  # scrubbed, not re-framed

    @pytest.mark.parametrize("mask", [0x08, 0x80], ids=["bit3", "bit7"])
    def test_flipped_bit_is_detected_counted_and_skipped(self, tmp_path, mask):
        """One flipped payload bit is a counted CRC failure for every reader.

        Bit 7 turns the ASCII byte into one that is not UTF-8 on its
        own, so it must reach the CRC check rather than stop the read.
        """
        paths = {
            name: tmp_path / f"{name}.jsonl"
            for name in ("load", "scan", "merge", "canonical")
        }
        for path in paths.values():
            _write_v5(path, [("a", {"ipc": 1.5}), ("b", {"ipc": 0.5})])
            raw = bytearray(path.read_bytes())
            raw[14] ^= mask  # flip one payload bit in the first line
            path.write_bytes(bytes(raw))

        with pytest.warns(CorruptCacheLineWarning, match="CRC"):
            entries = load_cache_entries(paths["load"])
        assert entries == {"b": {"ipc": 0.5}}  # survivor intact
        assert (entries.report.crc_failures, entries.report.corrupt_lines) == (1, 0)

        report = scan_cache_file(paths["scan"])
        assert (report.lines, report.entries) == (2, 1)
        assert (report.crc_failures, report.corrupt_lines) == (1, 0)

        with pytest.warns(CorruptCacheLineWarning):
            stats = merge_cache_entries(paths["merge"], [])
        assert (stats.corrupt_lines, stats.crc_failures) == (1, 1)
        with pytest.warns(CorruptCacheLineWarning):
            stats = canonicalize_cache_file(paths["canonical"])
        assert (stats.existing_entries, stats.corrupt_lines) == (1, 1)
        assert stats.crc_failures == 1
        survivor = encode_entry("b", {"ipc": 0.5}) + "\n"
        for name in ("merge", "canonical"):
            assert paths[name].read_text() == survivor  # scrubbed

    def test_flipped_bit_in_crc_suffix_is_detected(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        line = encode_entry("a", {"ipc": 1.5})
        digit = "0" if line[-1] != "0" else "1"
        path.write_text(line[:-1] + digit + "\n")
        with pytest.warns(CorruptCacheLineWarning):
            assert load_cache_entries(path) == {}


class TestMerge:
    def test_merge_into_missing_file_equals_plain_write(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        entries = [("k1", {"v": 1}), ("k2", {"v": 2})]
        stats = merge_cache_entries(a, entries)
        _write_v5(b, entries)
        assert a.read_bytes() == b.read_bytes()
        assert stats.new_entries == 2 and stats.existing_entries == 0

    def test_existing_keys_win_and_bytes_are_stable(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        merge_cache_entries(path, [("k1", {"v": 1}), ("k2", {"v": 2})])
        first = path.read_bytes()
        stats = merge_cache_entries(
            path, [("k1", {"v": 999}), ("k2", {"v": 2})]
        )
        assert path.read_bytes() == first  # never clobbered, never rewritten
        assert stats.new_entries == 0 and stats.existing_entries == 2

    def test_new_keys_append_in_items_order(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        merge_cache_entries(path, [("k1", {"v": 1})])
        merge_cache_entries(path, [("k3", {"v": 3}), ("k2", {"v": 2})])
        assert list(read_cache_entries(path)[0]) == ["k1", "k3", "k2"]

    def test_merge_scrubs_corrupt_lines_and_counts_them(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        _write_v5(path, [("k1", {"v": 1})])
        with path.open("a") as handle:
            handle.write('{"torn": \n')
        with pytest.warns(CorruptCacheLineWarning):
            stats = merge_cache_entries(path, [("k2", {"v": 2})])
        assert stats.corrupt_lines == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            assert load_cache_entries(path) == {"k1": {"v": 1}, "k2": {"v": 2}}

    def test_interrupted_rewrite_leaves_original_intact(self, tmp_path, monkeypatch):
        import repro.sim.resultcache as rc

        path = tmp_path / "cache.jsonl"
        _write_v5(path, [("k1", {"v": 1})])
        original = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("injected crash before replace")

        monkeypatch.setattr(rc.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="injected"):
            merge_cache_entries(path, [("k2", {"v": 2})])
        monkeypatch.undo()
        assert path.read_bytes() == original  # target untouched
        assert not list(tmp_path.glob("*.tmp-*"))  # temp file cleaned up


class TestVerifyAndMigrate:
    def test_scan_reports_every_category(self, tmp_path):
        path = tmp_path / cache_file_name("test")
        _write_v5(path, [("k1", {"v": 1}), ("k1", {"v": 1})])  # duplicate
        bad_crc = encode_entry("k2", {"v": 2})
        digit = "0" if bad_crc[-1] != "0" else "1"
        with path.open("a") as handle:
            handle.write(json.dumps({"key": "legacy", "result": {}}) + "\n")
            handle.write('{"torn": \n')
            handle.write(bad_crc[:-1] + digit + "\n")  # checksum mismatch
        report = scan_cache_file(path)
        assert report.lines == 5
        assert report.entries == 2
        assert report.corrupt_lines == 2  # the unchecksummed and the torn line
        assert report.crc_failures == 1
        assert report.duplicate_keys == 1
        assert not report.clean

    def test_cache_files_lists_every_versioned_file(self, tmp_path):
        current = tmp_path / cache_file_name("test")
        _write_v5(current, [("k", {"v": 1})])
        stale = tmp_path / "results-v4-bench.jsonl"
        stale.write_text(json.dumps({"key": "k", "result": {}}) + "\n")
        (tmp_path / "notes.jsonl").write_text("")
        assert cache_files(tmp_path) == [(stale, 4), (current, CACHE_VERSION)]

    def test_current_version_constants(self):
        assert CACHE_VERSION == 5


class TestCanonicalize:
    """`canonicalize_cache_file`: the serve scheduler's byte-determinism pass."""

    def test_sorts_entries_by_key(self, tmp_path):
        path = tmp_path / cache_file_name("test")
        _write_v5(path, [("k3", {"v": 3}), ("k1", {"v": 1}), ("k2", {"v": 2})])
        assert canonicalize_cache_file(path).existing_entries == 3
        assert list(read_cache_entries(path)[0]) == ["k1", "k2", "k3"]

    def test_arrival_order_never_changes_final_bytes(self, tmp_path):
        """The invariant serve relies on: bytes are a function of the set."""
        from itertools import permutations

        entries = [("k1", {"v": 1}), ("k2", {"v": 2}), ("k3", {"v": 3})]
        images = set()
        for index, order in enumerate(permutations(entries)):
            path = tmp_path / f"cache-{index}.jsonl"
            for entry in order:
                merge_cache_entries(path, [entry])  # one arrival at a time
            canonicalize_cache_file(path)
            images.add(path.read_bytes())
        assert len(images) == 1

    def test_sorted_clean_file_is_not_rewritten(self, tmp_path):
        path = tmp_path / cache_file_name("test")
        _write_v5(path, [("k1", {"v": 1}), ("k2", {"v": 2})])
        stamp = path.stat().st_mtime_ns
        assert canonicalize_cache_file(path).existing_entries == 2
        assert path.stat().st_mtime_ns == stamp  # idempotent: no rewrite

    def test_scrubs_duplicates_and_legacy_lines(self, tmp_path):
        path = tmp_path / cache_file_name("test")
        _write_v5(path, [("k2", {"v": 2}), ("k2", {"v": "dupe"})])
        with path.open("a") as handle:
            handle.write(json.dumps({"key": "k1", "result": {"v": 1}}) + "\n")
        with pytest.warns(CorruptCacheLineWarning):
            assert canonicalize_cache_file(path).existing_entries == 1
        report = scan_cache_file(path)
        assert report.clean and report.duplicate_keys == 0
        # Duplicates resolve last-wins, matching the append-path
        # semantics a crashed-and-rerun writer produces; the
        # unchecksummed legacy line is dropped, not upgraded.
        assert load_cache_entries(path) == {"k2": {"v": "dupe"}}

    def test_missing_file_is_a_noop(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert canonicalize_cache_file(path).existing_entries == 0
        assert not path.exists()

    def test_blank_lines_alone_are_scrubbed(self, tmp_path):
        """A sorted, valid file with a blank line is rewritten without it."""
        path = tmp_path / cache_file_name("test")
        _write_v5(path, [("k1", {"v": 1}), ("k2", {"v": 2})])
        clean = path.read_text()
        path.write_text(clean.replace("\n", "\n\n", 1))
        report = scan_cache_file(path)
        assert (report.blank_lines, report.lines) == (1, 2)
        assert report.clean and report.needs_scrub
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)
            stats = canonicalize_cache_file(path)
        assert (stats.existing_entries, stats.corrupt_lines) == (2, 0)
        assert path.read_text() == clean


class TestReturnedCounts:
    """Every read returns its census and every write its stats."""

    def test_missing_file_reads_as_empty(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert read_cache_entries(path) == ({}, scan_cache_file(path))
        assert scan_cache_file(path).lines == 0
        assert load_cache_entries(path).report.lines == 0

    def test_append_returns_lines_written_and_lock_waits(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        stats = append_cache_entries(path, [("k1", {"v": 1}), ("k2", {"v": 2})])
        assert stats == MergeStats(new_entries=2)
        assert list(read_cache_entries(path)[0]) == ["k1", "k2"]

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        """A torn tail costs only its own line, not the next append's."""
        path = tmp_path / "cache.jsonl"
        torn = encode_entry("k2", {"v": 2})
        path.write_text(encode_entry("k1", {"v": 1}) + "\n" + torn[: len(torn) // 2])
        assert append_cache_entries(path, [("k3", {"v": 3})]) == MergeStats(
            new_entries=1
        )
        with pytest.warns(CorruptCacheLineWarning):
            store = load_cache_entries(path)
        assert dict(store) == {"k1": {"v": 1}, "k3": {"v": 3}}
        assert (store.report.corrupt_lines, store.report.crc_failures) == (1, 0)

    def test_contended_write_returns_its_lock_waits(self, tmp_path):
        import threading

        path = tmp_path / "cache.jsonl"
        holder = FileLock.for_target(path).acquire()
        release = threading.Timer(0.3, holder.release)
        release.start()
        try:
            stats = merge_cache_entries(path, [("k1", {"v": 1})], lock_timeout=30)
        finally:
            release.join(timeout=10)
        assert not release.is_alive()
        assert stats.new_entries == 1 and stats.lock_waits > 0

    def test_each_read_counts_only_itself(self, tmp_path):
        """Re-reading a torn file reports the same lines, not a running total."""
        path = tmp_path / "cache.jsonl"
        _write_v5(path, [("k1", {"v": 1})])
        with path.open("a") as handle:
            handle.write('{"torn": \n')
        with pytest.warns(CorruptCacheLineWarning):
            first = read_cache_entries(path)[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error", CorruptCacheLineWarning)  # once per file
            second = read_cache_entries(path)[1]
        assert first == second
        assert (first.corrupt_lines, first.skipped) == (1, 1)
