"""Write-ahead dispatch journal: crash-safe accounting for ``repro dispatch``.

The coordinator is the one process a distributed sweep cannot afford to
lose silently: it alone knows which cells were resolved from cache,
which are staged in shard files awaiting a fold, and which are still
outstanding.  This module makes that knowledge durable.  Every
state-changing decision — matrix resolution, lease grants, completions,
failures, fold-ins — is appended to an NDJSON journal *before* the
coordinator acts on it being done, so ``repro dispatch --resume`` can
replay the file after a ``kill -9`` and re-lease only the remainder.

Format: one record per line, ``<canonical JSON>#<crc32 hex8>`` — framed
by the result cache's own :func:`~repro.sim.resultcache.frame_line`, so
a torn tail (the page cache flushing half a record at crash time) is
detected by its checksum, never half-parsed.  Replay reads the file the
way the result cache does (:func:`~repro.sim.resultcache.iter_lines`,
:func:`~repro.sim.resultcache.unframe_line`).  It is tolerant: bad lines
are counted and skipped, and everything before them is recovered.

Record kinds (the ``t`` field):

* ``begin`` — matrix resolution: pid, preset, totals, the ordered job
  keys, and the staged-shard directory results will land in.
* ``lease`` — one lease grant: id, worker name, job keys.
* ``result`` / ``failed`` — one job resolved (completed into a staged
  shard, or permanently failed).
* ``fold`` — one fold-in: the keys now durable in the result cache.
* ``end`` — the dispatch finished (with or without failures).

Durability discipline: appends happen under the cache's
:class:`~repro.sim.locking.FileLock` (a sibling ``.lock`` file) and are
fsync'd, mirroring the result store's crash-safety contract; they share
its :func:`~repro.sim.resultcache.append_lines`, so a record appended
after a torn tail starts a line of its own.  A journal whose ``begin``
pid is still alive belongs to a running coordinator and is never
touched; one whose owner is dead is either replayed (``--resume``) or
reclaimed, exactly like a stale serve socket.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.locking import FileLock
from repro.sim.resultcache import (
    append_lines,
    frame_line,
    iter_lines,
    unframe_line,
)

#: Journal file name next to the result cache it guards (one per preset).
JOURNAL_FILE_NAME_TEMPLATE = "dispatch-journal-{preset}.ndjson"


def journal_path(cache_dir: Path, preset_name: str) -> Path:
    """Where the dispatch journal for ``preset_name`` lives."""
    return cache_dir / JOURNAL_FILE_NAME_TEMPLATE.format(preset=preset_name)


def encode_record(record: dict) -> str:
    """One journal line (no trailing newline): canonical JSON + CRC32."""
    return frame_line(json.dumps(record, sort_keys=True))


def decode_record(line: bytes) -> dict | None:
    """Decode one stripped journal line; ``None`` for anything torn.

    A record is accepted only when its CRC suffix verifies and the
    payload is a JSON object with a string ``t`` kind — a torn tail can
    truncate a line anywhere, so every failure mode maps to ``None``.
    """
    _, payload = unframe_line(line)
    if payload is None:
        return None
    try:
        record = json.loads(payload.decode("utf-8", "surrogateescape"))
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict) or not isinstance(record.get("t"), str):
        return None
    return record


@dataclass
class JournalReplay:
    """What a journal says happened, reconstructed tolerantly."""

    path: Path
    begin: dict | None = None
    completed: set[str] = field(default_factory=set)
    failed: dict[str, str] = field(default_factory=dict)
    folded: set[str] = field(default_factory=set)
    leases: int = 0
    folds: int = 0
    ended: bool = False
    torn_lines: int = 0

    @property
    def pid(self) -> int | None:
        """The journaling coordinator's pid, if the ``begin`` survived."""
        if self.begin is None:
            return None
        pid = self.begin.get("pid")
        return pid if isinstance(pid, int) else None

    @property
    def shard_dir(self) -> Path | None:
        """The dead coordinator's staged-shard directory, if recorded."""
        if self.begin is None:
            return None
        value = self.begin.get("shard_dir")
        return Path(value) if isinstance(value, str) and value else None

    @property
    def staged(self) -> set[str]:
        """Keys completed into a staged shard but never folded.

        These are exactly the cells ``--resume`` can salvage without
        recomputation — the crash window a partial fold bounds.
        """
        return self.completed - self.folded


def replay_journal(path: Path) -> JournalReplay:
    """Replay a journal file into a :class:`JournalReplay`.

    Never raises on content: unreadable, torn or half-written lines are
    counted in ``torn_lines`` and skipped, so a coordinator killed
    mid-append still yields every record before the tear.
    """
    replay = JournalReplay(path=path)
    try:
        handle = path.open("rb")
    except OSError:
        return replay
    with handle:
        for line in iter_lines(handle):
            if not line:
                continue
            record = decode_record(line)
            if record is None:
                replay.torn_lines += 1
                continue
            kind = record["t"]
            if kind == "begin":
                replay.begin = record
            elif kind == "lease":
                replay.leases += 1
            elif kind == "result":
                key = record.get("key")
                if isinstance(key, str):
                    replay.completed.add(key)
            elif kind == "failed":
                key = record.get("key")
                if isinstance(key, str):
                    replay.failed[key] = str(record.get("error"))
            elif kind == "fold":
                replay.folds += 1
                keys = record.get("keys")
                if isinstance(keys, list):
                    replay.folded.update(k for k in keys if isinstance(k, str))
            elif kind == "end":
                replay.ended = True
            # Unknown kinds are skipped: a newer coordinator's journal
            # must still replay on an older one (same tolerance as the
            # cache).
    return replay


class DispatchJournal:
    """Append-only journal one coordinator writes while dispatching.

    Thread-safe (worker threads record results concurrently) and
    cross-process safe: each append takes the journal's ``FileLock``
    and fsyncs, so a record either fully lands or is a detectable tear.
    """

    def __init__(self, path: Path, *, lock_timeout: float | None = None) -> None:
        self.path = path
        self.lock_timeout = lock_timeout
        self._mutex = threading.Lock()

    def _append(self, record: dict) -> None:
        """Durably append one record (lock, write, fsync)."""
        line = encode_record(record)
        with self._mutex:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with FileLock.for_target(self.path, timeout=self.lock_timeout):
                append_lines(self.path, [line])

    def begin(
        self,
        *,
        preset: str,
        total: int,
        cached: int,
        keys: list[str],
        shard_dir: Path | None,
        resumed: bool,
    ) -> None:
        """Record matrix resolution: what this dispatch set out to run."""
        self._append(
            {
                "t": "begin",
                "pid": os.getpid(),
                "preset": preset,
                "total": total,
                "cached": cached,
                "keys": keys,
                "shard_dir": str(shard_dir) if shard_dir is not None else "",
                "resumed": resumed,
            }
        )

    def lease(self, lease_id: str, worker: str, keys: list[str]) -> None:
        """Record one lease grant."""
        self._append(
            {"t": "lease", "id": lease_id, "worker": worker, "keys": keys}
        )

    def result(self, key: str, worker: str) -> None:
        """Record one completion (the staged shard line is already durable)."""
        self._append({"t": "result", "key": key, "worker": worker})

    def failed(self, key: str, error: str) -> None:
        """Record one permanent per-job failure."""
        self._append({"t": "failed", "key": key, "error": error})

    def fold(self, number: int, keys: list[str], *, partial: bool) -> None:
        """Record one fold-in: ``keys`` are now durable in the cache."""
        self._append(
            {"t": "fold", "n": number, "keys": keys, "partial": partial}
        )

    def end(self, *, completed: int, failed: int) -> None:
        """Record dispatch completion."""
        self._append({"t": "end", "completed": completed, "failed": failed})

    def remove(self) -> None:
        """Delete the journal (and its lock file) after a clean dispatch."""
        with self._mutex:
            self.path.unlink(missing_ok=True)
            lock = self.path.with_name(self.path.name + ".lock")
            lock.unlink(missing_ok=True)
