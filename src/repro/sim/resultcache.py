"""Result-cache JSONL file helpers (format v5: checksummed, lock-merged).

The experiment runner and the parallel sweep engine share one on-disk
format: JSON-lines files where every line is ``{"key": ..., "result":
...}`` followed by a CRC32 suffix (``#xxxxxxxx`` over the JSON payload).
This module owns encoding, tolerant loading, the locked append used for
single-run stores and the atomic fold-in merge used by sweeps, so the
main cache file and the worker shards can never drift apart — and no
two processes can tear each other's writes.

**Format v5** (the only version read): ``<canonical JSON>#<crc32
hex8>``.  The checksum turns silent corruption — a bit flipped at rest,
a line torn mid-write whose remnant still parses, a suffix torn off —
into a *detected*, counted, skipped line.  :func:`frame_line` and
:func:`unframe_line` are the one copy of that framing rule; the
dispatch journal (:mod:`repro.dist.journal`) frames its records with
them too.  Files of any other version are stale: no reader opens them.

Loading is *tolerant*: a worker interrupted mid-write (Ctrl-C, OOM kill,
crashed pool) leaves a truncated final line behind, and a cache that
refuses to load because of one torn line would throw away hours of sweep
results.  Corrupt lines are skipped and reported via
:class:`CorruptCacheLineWarning` — once per file per process — and
*accounted* (:func:`corrupt_line_count`, :func:`corrupt_line_total`,
:func:`crc_failure_count`, :func:`crc_failure_total`) so the sweep
engine and ``repro stats`` surface every skip to the operator: silent
data loss is a lie a report must not tell.

Write primitives and their concurrency contracts:

* :func:`append_cache_entries` — append under the cache's advisory lock
  (:mod:`repro.sim.locking`); used for incremental single-run stores.
  A crash mid-append leaves a torn tail the CRC detects.
* :func:`merge_cache_entries` — the sweep merge: under the lock, fold
  new entries into whatever the file holds *now* (existing keys win —
  a second writer folds in, never clobbers), then rewrite atomically
  via temp file + ``fsync`` + ``os.replace``.  Two overlapping sweeps
  over the same matrix produce a cache byte-identical to a clean
  serial run.
* :func:`canonicalize_cache_file` — the same locked read-and-scrub,
  rewritten key-sorted; ``repro cache canonicalize`` is also the repair
  for a file ``repro cache verify --strict`` rejects.
* :func:`write_cache_entries` — the atomic rewrite primitive (no lock;
  callers hold it).
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.sim.locking import FileLock

#: Cache format version: bumped whenever simulator behaviour *or* the
#: on-disk format changes.  Files named for any other version are stale.
CACHE_VERSION = 5

#: A framed line ends with ``#`` + 8 lowercase hex digits (the CRC32 of
#: the JSON payload before it).
_CRC_SUFFIX_RE = re.compile(r"#([0-9a-f]{8})$")

#: Cache file naming scheme shared by the runner and the cache tools.
_CACHE_FILE_RE = re.compile(r"^results-v(\d+)-.+\.jsonl$")


class CorruptCacheLineWarning(RuntimeWarning):
    """A result-cache file contained truncated or malformed JSONL lines."""


#: Files already reported as corrupt (resolved paths); a process warns at
#: most once per file however many times the file is re-read.
_warned_corrupt: set[str] = set()

#: Cumulative skipped-line tally per resolved path, for this process
#: (structural corruption and CRC failures combined).
_corrupt_counts: dict[str, int] = {}

#: Cumulative CRC-mismatch tally per resolved path (subset of the
#: corrupt tally: lines the checksum — not the JSON parser — rejected).
_crc_counts: dict[str, int] = {}


def corrupt_line_count(path: Path) -> int:
    """Corrupt lines skipped so far (this process) while reading ``path``."""
    return _corrupt_counts.get(str(path.resolve()), 0)


def corrupt_line_total() -> int:
    """Corrupt lines skipped so far (this process) across every file.

    Monotonic; callers that need a per-operation figure snapshot it
    before and after (the shard merge in :mod:`repro.sim.parallel` does).
    """
    return sum(_corrupt_counts.values())


def crc_failure_count(path: Path) -> int:
    """CRC-rejected lines so far (this process) while reading ``path``."""
    return _crc_counts.get(str(path.resolve()), 0)


def crc_failure_total() -> int:
    """CRC-rejected lines so far (this process) across every file."""
    return sum(_crc_counts.values())


def cache_file_name(preset_name: str) -> str:
    """Canonical cache file name for a preset at :data:`CACHE_VERSION`."""
    return f"results-v{CACHE_VERSION}-{preset_name}.jsonl"


def _payload_crc(payload: str) -> str:
    """CRC32 of a line's JSON payload, as 8 lowercase hex digits."""
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def frame_line(payload: str) -> str:
    """``payload`` with its ``#<crc32 hex8>`` suffix (no trailing newline)."""
    return f"{payload}#{_payload_crc(payload)}"


def unframe_line(line: str) -> tuple[str, str | None]:
    """Check one stripped framed line; returns ``(status, payload)``.

    ``status`` is ``"ok"`` (the payload follows), ``"crc"`` (a suffix is
    present but does not match) or ``"corrupt"`` (no suffix at all); the
    payload is ``None`` unless the status is ``"ok"``.
    """
    match = _CRC_SUFFIX_RE.search(line)
    if match is None:
        return "corrupt", None
    payload = line[: match.start()]
    if _payload_crc(payload) != match.group(1):
        return "crc", None
    return "ok", payload


def encode_entry(key: str, result: dict) -> str:
    """One v5 cache line (without trailing newline) for ``key``/``result``.

    Keys are sorted so the encoding is canonical: observability metrics
    travel inside ``result`` as nested dicts, and byte-identity between
    serial and parallel sweeps must not depend on insertion order.  The
    trailing ``#crc32`` covers the JSON payload, so bit rot and torn
    writes are detected on load rather than silently accepted.
    """
    return frame_line(json.dumps({"key": key, "result": result}, sort_keys=True))


def _decode_line(line: str) -> tuple[str, str | None, dict | None]:
    """Classify one stripped, non-empty line.

    Returns ``(status, key, result)`` where status is ``"ok"`` (a valid
    entry), ``"crc"`` (checksum suffix present but wrong) or
    ``"corrupt"`` (no checksum suffix, unparseable or structurally
    wrong).
    """
    status, payload = unframe_line(line)
    if payload is None:
        return status, None, None
    try:
        entry = json.loads(payload)
    except json.JSONDecodeError:
        return "corrupt", None, None
    if (
        not isinstance(entry, dict)
        or not isinstance(entry.get("key"), str)
        or not isinstance(entry.get("result"), dict)
    ):
        return "corrupt", None, None
    return "ok", entry["key"], entry["result"]


def iter_cache_entries(path: Path) -> Iterator[tuple[str, dict]]:
    """Stream ``(key, result)`` pairs from a JSONL cache file, one pass.

    Blank lines are ignored; truncated, unchecksummed, structurally
    wrong or CRC-rejected lines are skipped, counted, and reported with
    one :class:`CorruptCacheLineWarning` per file per process.  A
    missing file yields nothing.
    """
    if not path.exists():
        return
    corrupt = 0
    crc_failed = 0
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            status, key, result = _decode_line(line)
            if status == "ok":
                assert key is not None and result is not None
                yield key, result
            elif status == "crc":
                crc_failed += 1
            else:
                corrupt += 1
    if corrupt or crc_failed:
        resolved = str(path.resolve())
        skipped = corrupt + crc_failed
        _corrupt_counts[resolved] = _corrupt_counts.get(resolved, 0) + skipped
        if crc_failed:
            _crc_counts[resolved] = _crc_counts.get(resolved, 0) + crc_failed
        if resolved not in _warned_corrupt:
            _warned_corrupt.add(resolved)
            detail = (
                f" ({crc_failed} failed the CRC check)" if crc_failed else ""
            )
            warnings.warn(
                f"{path}: skipped {skipped} corrupt cache line(s){detail}; "
                "likely a simulation interrupted mid-write or at-rest "
                "corruption",
                CorruptCacheLineWarning,
                stacklevel=2,
            )


def load_cache_entries(path: Path) -> dict[str, dict]:
    """Read a JSONL cache file into a key -> result mapping.

    Later entries for a repeated key win, matching append-only write
    semantics.  Tolerance and warning behaviour are those of
    :func:`iter_cache_entries`.
    """
    return dict(iter_cache_entries(path))


def append_cache_entries(
    path: Path,
    items: Iterable[tuple[str, dict]],
    *,
    lock_timeout: float | None = None,
) -> int:
    """Append ``(key, result)`` v5 lines to ``path``; returns lines written.

    The append happens under ``path``'s advisory lock, so concurrent
    appenders and mergers serialise instead of interleaving bytes.  A
    crash mid-append can still tear the final line — which the CRC then
    detects on the next load.
    """
    written = 0
    with FileLock.for_target(path, timeout=lock_timeout):
        with path.open("a") as handle:
            for key, result in items:
                handle.write(encode_entry(key, result) + "\n")
                written += 1
            handle.flush()
            os.fsync(handle.fileno())
    return written


def write_cache_entries(path: Path, items: Iterable[tuple[str, dict]]) -> int:
    """Atomically replace ``path`` with the given entries; returns count.

    Writes a temp file in the same directory, ``fsync``\\ s it, then
    ``os.replace``\\ s it over the target — readers observe either the
    old file or the new one, never a half-written hybrid, and a crash
    at any point leaves the original intact.  Callers that race other
    writers must hold the cache lock; this primitive itself does not
    take it (merge and canonicalize both call it with the lock held).
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    written = 0
    try:
        with tmp.open("w") as handle:
            for key, result in items:
                handle.write(encode_entry(key, result) + "\n")
                written += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_dir(path.parent)
    return written


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory entry (makes renames durable)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class MergeStats:
    """What one locked fold-in merge did.

    ``new_entries`` were appended by this merge; ``existing_entries``
    were already present (and won over any incoming duplicate);
    ``corrupt_lines`` / ``crc_failures`` count lines the tolerant read
    of the *existing* file skipped (and the rewrite scrubbed);
    ``lock_waits`` counts backoff sleeps while acquiring the cache lock.
    """

    new_entries: int
    existing_entries: int
    corrupt_lines: int
    crc_failures: int
    lock_waits: int


def _read_for_rewrite(path: Path) -> tuple[list[str], dict[str, dict], bool]:
    """Tolerantly read ``path`` for a locked rewrite (caller holds the lock).

    Returns ``(order, values, dirty)``: keys in first-seen order, their
    last-seen results, and whether a rewrite must scrub anything —
    blank, corrupt or CRC-failed lines (each counted via
    :func:`_account_skip`) or repeated keys.  A missing file reads as
    empty and clean.
    """
    order: list[str] = []
    values: dict[str, dict] = {}
    dirty = False
    if not path.exists():
        return order, values, dirty
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                dirty = True
                continue
            status, key, result = _decode_line(line)
            if status != "ok":
                dirty = True
                _account_skip(path, status)
                continue
            assert key is not None and result is not None
            if key in values:
                dirty = True
            else:
                order.append(key)
            values[key] = result
    return order, values, dirty


def merge_cache_entries(
    path: Path,
    items: Iterable[tuple[str, dict]],
    *,
    lock_timeout: float | None = None,
) -> MergeStats:
    """Fold ``items`` into ``path`` under its lock, atomically.

    The cooperative multi-writer merge: whatever the file holds *at
    merge time* is re-read under the exclusive lock and kept — existing
    keys win over incoming ones, so a second sweep folds its results in
    without ever clobbering the first's.  New keys append in ``items``
    order, which keeps a fresh cache byte-identical to a serial run.
    The rewrite is atomic (temp file + ``fsync`` + ``os.replace``) and
    scrubs any corrupt or checksum-failed lines it skipped (they are
    counted in the returned :class:`MergeStats`).

    When the file is already clean, duplicate-free and contains every
    incoming key, its bytes are left untouched.
    """
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        before_corrupt = corrupt_line_total()
        before_crc = crc_failure_total()
        order, values, dirty = _read_for_rewrite(path)
        existing = len(order)
        new = 0
        for key, result in items:
            if key not in values:
                order.append(key)
                values[key] = result
                new += 1
        if new or dirty:
            write_cache_entries(path, ((key, values[key]) for key in order))
    return MergeStats(
        new_entries=new,
        existing_entries=existing,
        corrupt_lines=corrupt_line_total() - before_corrupt,
        crc_failures=crc_failure_total() - before_crc,
        lock_waits=lock.waits,
    )


def canonicalize_cache_file(
    path: Path, *, lock_timeout: float | None = None
) -> int:
    """Rewrite ``path`` with entries sorted by key; returns the entry count.

    The experiment service's determinism primitive: a server interleaves
    batches from many clients, so its cache file would otherwise end up
    ordered by *arrival*, which is not reproducible.  Sorting by key
    (under the cache's advisory lock, via the atomic
    :func:`write_cache_entries` rewrite) makes the bytes a pure function
    of the entry set — any mix of concurrent clients converges on the
    cache a clean serial run of the union of their jobs would leave.

    Idempotent and conservative: an already-sorted, clean, duplicate-
    free file is left byte-untouched; duplicates resolve last-wins (the
    append-path semantics); corrupt or CRC-failed lines are scrubbed and
    counted like every other tolerant read.  A missing file is a no-op.
    """
    with FileLock.for_target(path, timeout=lock_timeout):
        order, values, dirty = _read_for_rewrite(path)
        ordered = sorted(values)
        if dirty or order != ordered:
            write_cache_entries(path, ((key, values[key]) for key in ordered))
    return len(values)


def _account_skip(path: Path, status: str) -> None:
    """Count one skipped line against ``path`` (merge-path accounting).

    Mirrors :func:`iter_cache_entries`'s tallies so merges and plain
    loads feed the same ``repro stats`` counters, but warns lazily (the
    once-per-file warning still fires at most once per process).
    """
    resolved = str(path.resolve())
    _corrupt_counts[resolved] = _corrupt_counts.get(resolved, 0) + 1
    if status == "crc":
        _crc_counts[resolved] = _crc_counts.get(resolved, 0) + 1
    if resolved not in _warned_corrupt:
        _warned_corrupt.add(resolved)
        warnings.warn(
            f"{path}: skipped corrupt cache line(s) during merge; "
            "the atomic rewrite scrubbed them",
            CorruptCacheLineWarning,
            stacklevel=4,
        )


# ----------------------------------------------------------------------
# Offline integrity tooling: `repro cache verify`.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheFileReport:
    """Integrity census of one cache file (``repro cache verify``)."""

    path: Path
    lines: int = 0
    entries: int = 0
    crc_failures: int = 0
    corrupt_lines: int = 0
    duplicate_keys: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing in the file was rejected."""
        return self.crc_failures == 0 and self.corrupt_lines == 0


def scan_cache_file(path: Path) -> CacheFileReport:
    """Full integrity scan of one cache file (no warnings, no tallies).

    Counts total lines, valid entries, CRC rejections, structurally
    corrupt (including unchecksummed) lines and duplicate keys — the
    per-file census ``repro cache verify`` reports.
    """
    lines = entries = crc_failed = corrupt = duplicates = 0
    seen: set[str] = set()
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            lines += 1
            status, key, _ = _decode_line(line)
            if status == "crc":
                crc_failed += 1
            elif status == "corrupt":
                corrupt += 1
            else:
                assert key is not None
                entries += 1
                if key in seen:
                    duplicates += 1
                seen.add(key)
    return CacheFileReport(
        path=path,
        lines=lines,
        entries=entries,
        crc_failures=crc_failed,
        corrupt_lines=corrupt,
        duplicate_keys=duplicates,
    )


def cache_files(directory: Path) -> list[tuple[Path, int]]:
    """``(path, format version)`` for every cache file in ``directory``.

    Only ``CACHE_VERSION`` files are read or rewritten; the cache tools
    list every other version as stale and leave it byte-untouched.
    """
    out = []
    for path in sorted(directory.glob("results-v*.jsonl")):
        match = _CACHE_FILE_RE.match(path.name)
        if match:
            out.append((path, int(match.group(1))))
    return out
