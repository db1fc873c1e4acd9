"""Unit tests for the advisory cache lock."""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.locking import (
    DEFAULT_LOCK_TIMEOUT,
    LOCK_TIMEOUT_ENV,
    FileLock,
    LockTimeoutError,
    resolve_lock_timeout,
)


class TestResolveTimeout:
    def test_explicit_beats_env_beats_default(self, monkeypatch):
        monkeypatch.delenv(LOCK_TIMEOUT_ENV, raising=False)
        assert resolve_lock_timeout() == DEFAULT_LOCK_TIMEOUT
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "7.5")
        assert resolve_lock_timeout() == 7.5
        assert resolve_lock_timeout(3.0) == 3.0  # explicit wins

    def test_malformed_env_rejected(self, monkeypatch):
        monkeypatch.setenv(LOCK_TIMEOUT_ENV, "forever")
        with pytest.raises(ValueError, match=LOCK_TIMEOUT_ENV):
            resolve_lock_timeout()


class TestFileLock:
    def test_acquire_release_context_manager(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        lock = FileLock.for_target(target)
        assert lock.path.name == "cache.jsonl.lock"
        with lock:
            assert lock.held
        assert not lock.held

    def test_owner_metadata_written(self, tmp_path):
        lock = FileLock.for_target(tmp_path / "cache.jsonl")
        with lock:
            owner = json.loads(lock.path.read_text())
        assert owner["pid"] == os.getpid()
        assert "host" in owner and "acquired" in owner

    def test_contended_lock_times_out_naming_owner(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        holder = FileLock.for_target(target).acquire()
        try:
            contender = FileLock.for_target(target, timeout=0.15)
            with pytest.raises(LockTimeoutError, match=str(os.getpid())) as raised:
                contender.acquire()
            assert contender.timeouts == 1
            assert contender.waits > 0  # it did back off first
            assert raised.value.waits == contender.waits
        finally:
            holder.release()

    def test_zero_timeout_fails_fast(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        holder = FileLock.for_target(target).acquire()
        try:
            with pytest.raises(LockTimeoutError):
                FileLock.for_target(target, timeout=0).acquire()
        finally:
            holder.release()

    def test_lock_released_on_exception(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        lock = FileLock.for_target(target)
        with pytest.raises(RuntimeError, match="inner"):
            with lock:
                raise RuntimeError("inner")
        # Released: a fast re-acquire by someone else succeeds.
        with FileLock.for_target(target, timeout=0.1):
            pass

    def test_dead_owner_metadata_counts_as_stale(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        lock = FileLock.for_target(target)
        # Fabricate what a SIGKILLed holder leaves behind: owner metadata
        # from a dead pid.  The kernel already dropped its flock, so the
        # takeover must be immediate — and accounted as a stale detection.
        import socket

        lock.path.write_text(
            json.dumps(
                {"pid": 999999999, "host": socket.gethostname(), "acquired": 0}
            )
        )
        with lock:
            assert lock.stale_owners == 1

    def test_live_owner_metadata_is_not_stale(self, tmp_path):
        target = tmp_path / "cache.jsonl"
        first = FileLock.for_target(target)
        with first:
            pass  # leaves our own (live-pid) metadata behind
        second = FileLock.for_target(target)
        with second:
            assert second.stale_owners == 0

    def test_reacquire_after_release(self, tmp_path):
        lock = FileLock.for_target(tmp_path / "cache.jsonl")
        for _ in range(3):
            with lock:
                assert lock.held
