"""Unit tests for the write-ahead dispatch journal.

The journal's whole job is surviving a coordinator killed at any byte:
replay must never raise, must recover every record before a tear, and
must count (not propagate) the tear itself.  The fuzz tests mirror the
trace-v3 discipline — truncate at every offset, flip a bit at every
offset — so the torn-tail guarantee is proven, not assumed.
"""

from __future__ import annotations

import os

import pytest

from repro.dist.journal import (
    DispatchJournal,
    decode_record,
    encode_record,
    journal_path,
    replay_journal,
)


def _populated(tmp_path, *, end: bool = False) -> DispatchJournal:
    """A journal with one of every record kind (optionally ended)."""
    journal = DispatchJournal(journal_path(tmp_path, "test"))
    journal.begin(
        preset="test",
        total=4,
        cached=1,
        keys=["k1", "k2", "k3"],
        shard_dir=tmp_path / "shards",
        resumed=False,
    )
    journal.lease("lease-1", "worker-0", ["k1", "k2"])
    journal.result("k1", "worker-0")
    journal.result("k2", "worker-0")
    journal.fold(1, ["k1"], partial=True)
    journal.failed("k3", "InjectedFault")
    if end:
        journal.end(completed=2, failed=1)
    return journal


class TestRecordCodec:
    def test_roundtrip(self):
        record = {"t": "lease", "id": "lease-1", "keys": ["a", "b"]}
        assert decode_record(encode_record(record).encode()) == record

    @pytest.mark.parametrize(
        "line",
        [
            b"",
            b"not a record",
            b'{"t": "lease"}',  # no checksum
            b'{"t": "lease"}#zzzzzzzz',  # malformed checksum
            b'{"t": "lease"}#00000000',  # wrong checksum
            b"[1, 2]#" + b"0" * 8,  # not an object (checksum also wrong)
            encode_record({"no_kind": 1}).encode(),  # missing t
        ],
    )
    def test_torn_or_foreign_lines_decode_to_none(self, line):
        assert decode_record(line) is None

    def test_kind_must_be_string(self):
        assert decode_record(encode_record({"t": 42}).encode()) is None


class TestReplay:
    def test_full_replay(self, tmp_path):
        journal = _populated(tmp_path, end=True)
        replay = replay_journal(journal.path)
        assert replay.pid == os.getpid()
        assert replay.shard_dir == tmp_path / "shards"
        assert replay.completed == {"k1", "k2"}
        assert replay.folded == {"k1"}
        assert replay.staged == {"k2"}
        assert replay.failed == {"k3": "InjectedFault"}
        assert replay.leases == 1
        assert replay.folds == 1
        assert replay.ended
        assert replay.torn_lines == 0

    def test_unended_journal_replays_open(self, tmp_path):
        journal = _populated(tmp_path, end=False)
        assert not replay_journal(journal.path).ended

    def test_missing_file_is_an_empty_replay(self, tmp_path):
        replay = replay_journal(tmp_path / "absent.ndjson")
        assert replay.begin is None
        assert replay.pid is None
        assert replay.shard_dir is None
        assert not replay.ended

    def test_unknown_kinds_are_skipped(self, tmp_path):
        path = journal_path(tmp_path, "test")
        path.write_text(
            encode_record({"t": "from-the-future", "x": 1})
            + "\n"
            + encode_record({"t": "result", "key": "k9", "worker": "w"})
            + "\n"
        )
        replay = replay_journal(path)
        assert replay.completed == {"k9"}
        assert replay.torn_lines == 0

    def test_record_after_a_torn_tail_replays(self, tmp_path):
        """A record appended after a torn tail replays; the tear counts once."""
        journal = DispatchJournal(journal_path(tmp_path, "test"))
        journal.result("k1", "worker-0")
        torn = encode_record({"t": "result", "key": "k2", "worker": "worker-0"})
        with journal.path.open("a") as handle:
            handle.write(torn[: len(torn) // 2])
        journal.fold(1, ["k1"], partial=False)
        replay = replay_journal(journal.path)
        assert (replay.folds, replay.torn_lines) == (1, 1)
        assert replay.completed == replay.folded == {"k1"}

    def test_remove_unlinks_journal_and_lock(self, tmp_path):
        journal = _populated(tmp_path, end=True)
        lock = journal.path.with_name(journal.path.name + ".lock")
        assert journal.path.exists()
        journal.remove()
        assert not journal.path.exists()
        assert not lock.exists()
        journal.remove()  # idempotent


class TestTornTailFuzz:
    """kill -9 at any byte: replay never raises, prefix always recovers."""

    def test_truncation_at_every_offset_recovers_the_prefix(self, tmp_path):
        journal = _populated(tmp_path, end=True)
        data = journal.path.read_bytes()
        whole = replay_journal(journal.path)
        victim = tmp_path / "torn.ndjson"
        for offset in range(len(data)):
            victim.write_bytes(data[:offset])
            replay = replay_journal(victim)  # must never raise
            # Recovered state is a prefix of the full state, and the
            # cut line (if any) is counted, never half-parsed.
            assert replay.completed <= whole.completed
            assert replay.folded <= whole.folded
            assert replay.leases <= whole.leases
            assert replay.torn_lines <= 1
            intact_lines = data[:offset].count(b"\n")
            # A cut mid-line usually tears exactly one record — unless
            # it lands at a line's last byte, where the record is still
            # whole and only its newline is gone.
            cut_mid_line = offset > 0 and data[offset - 1 : offset] != b"\n"
            assert replay.torn_lines <= (1 if cut_mid_line else 0)
            assert (
                len(replay.completed) + len(replay.failed) + replay.leases
                <= intact_lines + 1
            )

    def test_flipped_bit_anywhere_is_detected_or_equivalent(self, tmp_path):
        journal = _populated(tmp_path, end=True)
        data = bytearray(journal.path.read_bytes())
        whole = replay_journal(journal.path)
        victim = tmp_path / "flipped.ndjson"
        for offset in range(len(data)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0x10
            victim.write_bytes(bytes(corrupted))
            replay = replay_journal(victim)  # must never raise
            # Either the CRC catches the flip (one torn line) or the
            # flip landed in a newline and resplit the stream — never
            # a silently different accounting with zero tears.
            if replay.torn_lines == 0:
                assert replay.completed == whole.completed
                assert replay.failed == whole.failed
                assert replay.folded == whole.folded
            else:
                assert replay.torn_lines >= 1
