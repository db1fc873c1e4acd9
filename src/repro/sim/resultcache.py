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

Lines stay in their stored form until a reader needs them.
:func:`load_cache_entries` checks each line's CRC and slices its key
out of the canonical ``{"key": "…", "result": {…}}`` prefix without
parsing JSON; the result is decoded the first time it is asked for
(:class:`ResultStore`).  A line not in that shape, or whose key holds
an escape, takes the full decode at load instead.  The one rejection
this defers is a canonical-shaped line whose CRC matches but whose
payload does not decode: it is counted when its key is first asked
for, and reads as a miss.  Rewrites copy valid lines verbatim and
re-encode only the fallback-decoded ones.  :func:`scan_cache_file`
(``repro cache verify``) is the one full decode of every line.

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

:func:`encode_entry` is the only writer of new lines.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import zlib
from collections.abc import MutableMapping
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.sim.locking import FileLock

#: Cache format version: bumped whenever simulator behaviour *or* the
#: on-disk format changes.  Files named for any other version are stale.
CACHE_VERSION = 5

#: A framed line ends with ``#`` + 8 lowercase hex digits (the CRC32 of
#: the JSON payload before it).
_CRC_SUFFIX_RE = re.compile(r"#([0-9a-f]{8})$")
_CRC_SUFFIX_LEN = len("#00000000")

#: How every :func:`encode_entry` payload opens and where its key ends
#: (sorted keys put ``key`` before ``result``); it closes with ``}}``.
_KEY_OPEN = '{"key": "'
_RESULT_OPEN = '", "result": {'

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


def _decode_payload(payload: str) -> tuple[str, dict] | None:
    """``(key, result)`` of one CRC-checked payload, or ``None`` if corrupt."""
    try:
        entry = json.loads(payload)
    except json.JSONDecodeError:
        return None
    if (
        not isinstance(entry, dict)
        or not isinstance(entry.get("key"), str)
        or not isinstance(entry.get("result"), dict)
    ):
        return None
    return entry["key"], entry["result"]


def _decode_line(
    line: str, *, lazy: bool = False
) -> tuple[str, str | None, str | dict | None]:
    """Classify one stripped, non-empty line.

    Returns ``(status, key, value)`` where status is ``"ok"`` (a valid
    entry), ``"crc"`` (checksum suffix present but wrong) or
    ``"corrupt"`` (no checksum suffix, unparseable or structurally
    wrong).  The value of an ``"ok"`` line is its decoded result — or,
    with ``lazy``, the raw line itself when the payload is in canonical
    shape, so its key is sliced out and nothing is parsed.
    """
    status, payload = unframe_line(line)
    if payload is None:
        return status, None, None
    if lazy:
        key = _canonical_key(payload)
        if key is not None:
            return "ok", key, line
    entry = _decode_payload(payload)
    if entry is None:
        return "corrupt", None, None
    key, result = entry
    return "ok", key, result


def _canonical_key(payload: str) -> str | None:
    """The key of a payload in :func:`encode_entry`'s shape, unparsed.

    ``None`` unless the payload opens ``{"key": "<key>", "result": {``
    and closes ``}}`` with no escape in the key.
    """
    if not (payload.startswith(_KEY_OPEN) and payload.endswith("}}")):
        return None
    end = payload.find('"', len(_KEY_OPEN))
    if end < 0 or not payload.startswith(_RESULT_OPEN, end):
        return None
    key = payload[len(_KEY_OPEN) : end]
    return None if "\\" in key else key


def _decode_raw(key: str, line: str) -> dict | None:
    """The result a raw canonical ``line`` holds for ``key``, or ``None``."""
    entry = _decode_payload(line[:-_CRC_SUFFIX_LEN])
    if entry is None or entry[0] != key:
        return None
    return entry[1]


def _framed(key: str, value: str | dict) -> str:
    """The line to write for a scanned value: raw lines go out verbatim."""
    return value if isinstance(value, str) else encode_entry(key, value)


def _read_valid(path: Path, *, lazy: bool) -> Iterator[tuple[str, str | dict]]:
    """``(key, value)`` for each valid line (see :func:`_decode_line`).

    Blank lines are ignored; rejected lines are counted against ``path``
    with one :class:`CorruptCacheLineWarning` per file per process once
    the file is exhausted.  A missing file yields nothing.
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
            status, key, value = _decode_line(line, lazy=lazy)
            if status == "ok":
                assert key is not None and value is not None
                yield key, value
            elif status == "crc":
                crc_failed += 1
            else:
                corrupt += 1
    if corrupt or crc_failed:
        detail = f" ({crc_failed} failed the CRC check)" if crc_failed else ""
        _tally(
            path,
            corrupt + crc_failed,
            crc_failed,
            f"skipped {corrupt + crc_failed} corrupt cache line(s){detail}; "
            "likely a simulation interrupted mid-write or at-rest corruption",
        )


def iter_cache_entries(path: Path) -> Iterator[tuple[str, dict]]:
    """Stream ``(key, result)`` pairs from a JSONL cache file, one pass.

    Every line is decoded as it is read.  Blank lines are ignored;
    truncated, unchecksummed, structurally wrong or CRC-rejected lines
    are skipped, counted, and reported with one
    :class:`CorruptCacheLineWarning` per file per process.  A missing
    file yields nothing.
    """
    for key, result in _read_valid(path, lazy=False):
        assert isinstance(result, dict)
        yield key, result


class ResultStore(MutableMapping[str, dict]):
    """``key -> result`` over a cache file's lines, decoded on first use.

    :func:`load_cache_entries` fills it with CRC-checked raw lines; the
    first lookup of a key decodes its line and memoizes the result, and
    results stored later are kept as given.  A raw line whose payload
    then fails to decode is counted against ``path`` like a load-time
    skip, reported to ``on_reject``, and dropped: its key reads as a
    miss.  Iteration decodes every entry it yields; ``len`` counts the
    entries not yet found corrupt.
    """

    def __init__(self, path: Path | None = None) -> None:
        self.path = path
        #: Called once for each raw line whose deferred decode fails.
        self.on_reject: Callable[[], None] | None = None
        self._values: dict[str, str | dict] = {}
        self._rejected: set[str] = set()

    def __getitem__(self, key: str) -> dict:
        value = self._values[key]
        if isinstance(value, dict):
            return value
        result = _decode_raw(key, value)
        if result is None:
            del self._values[key]
            self._rejected.add(value)
            if self.path is not None:
                _tally(
                    self.path,
                    1,
                    0,
                    "skipped a corrupt cache line whose result failed to "
                    "decode on first use; it reads as a miss",
                )
            if self.on_reject is not None:
                self.on_reject()
            raise KeyError(key)
        self._values[key] = result
        return result

    def __setitem__(self, key: str, result: dict) -> None:
        self._values[key] = result

    def __delitem__(self, key: str) -> None:
        del self._values[key]

    def __iter__(self) -> Iterator[str]:
        for key in list(self._values):
            if key in self:
                yield key

    def __len__(self) -> int:
        return len(self._values)

    def absorb(self, other: ResultStore) -> None:
        """Take ``other``'s entries, keeping every result decoded here.

        A key still raw here takes ``other``'s value (the file's latest
        line on a reload); a raw line this store already rejected is not
        taken again, so it is never counted twice.
        """
        self._rejected |= other._rejected
        for key, value in other._values.items():
            if isinstance(self._values.get(key), dict):
                continue
            if isinstance(value, str) and value in self._rejected:
                continue
            self._values[key] = value


def load_cache_entries(path: Path) -> ResultStore:
    """Read a JSONL cache file into a lazily decoding key -> result store.

    One pass checks each line's CRC and keeps it raw; results are
    decoded on first use (:class:`ResultStore`).  Later entries for a
    repeated key win, matching append-only write semantics.  Every line
    rejected at load is counted and warned about as in
    :func:`iter_cache_entries`; a canonical-shaped line whose payload
    does not decode is counted when its key is first asked for.
    """
    store = ResultStore(path)
    store._values.update(_read_valid(path, lazy=True))
    return store


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
    take it.
    """
    return _write_lines(path, (encode_entry(key, result) for key, result in items))


def _write_lines(path: Path, lines: Iterable[str]) -> int:
    """The atomic replace behind every rewrite; returns lines written.

    Merge and canonicalize call it with the lock held, passing raw
    lines through verbatim.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    written = 0
    try:
        with tmp.open("w") as handle:
            for line in lines:
                handle.write(line + "\n")
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


def _read_for_rewrite(path: Path) -> tuple[dict[str, str | dict], bool]:
    """Tolerantly read ``path`` for a locked rewrite (caller holds the lock).

    Returns ``(values, dirty)``: each key's last-seen value in
    first-seen key order, and whether a rewrite must scrub anything —
    blank, corrupt or CRC-failed lines (each counted via
    :func:`_account_skip`) or repeated keys.  A value is the raw line
    for a line in canonical shape (written back verbatim) and the
    decoded result for one that took the fallback decode (re-encoded).
    A missing file reads as empty and clean.
    """
    values: dict[str, str | dict] = {}
    dirty = False
    if not path.exists():
        return values, dirty
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                dirty = True
                continue
            status, key, value = _decode_line(line, lazy=True)
            if status != "ok":
                dirty = True
                _account_skip(path, status)
                continue
            assert key is not None and value is not None
            if key in values:
                dirty = True
            values[key] = value
    return values, dirty


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
    The rewrite is atomic (temp file + ``fsync`` + ``os.replace``),
    copies existing lines verbatim, and scrubs any corrupt or
    checksum-failed lines it skipped (they are counted in the returned
    :class:`MergeStats`).  An existing line is decoded only when an
    incoming key collides with it; one that fails to decode is scrubbed
    and counted the same way, and the incoming entry takes its place.

    When the file is already clean, duplicate-free and contains every
    incoming key, its bytes are left untouched.
    """
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        before_corrupt = corrupt_line_total()
        before_crc = crc_failure_total()
        values, dirty = _read_for_rewrite(path)
        existing = len(values)
        new = 0
        for key, result in items:
            held = values.get(key)
            if isinstance(held, str) and _decode_raw(key, held) is None:
                del values[key]
                existing -= 1
                _account_skip(path, "corrupt")
                held = None
            if held is None:
                values[key] = result
                new += 1
        if new or dirty:
            _write_lines(path, (_framed(key, value) for key, value in values.items()))
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
    (under the cache's advisory lock, via an atomic temp-file rewrite
    that copies valid lines verbatim) makes the bytes a pure function
    of the entry set — any mix of concurrent clients converges on the
    cache a clean serial run of the union of their jobs would leave.

    Idempotent and conservative: an already-sorted, clean, duplicate-
    free file is left byte-untouched; duplicates resolve last-wins (the
    append-path semantics); corrupt or CRC-failed lines are scrubbed and
    counted like every other tolerant read.  A missing file is a no-op.
    """
    with FileLock.for_target(path, timeout=lock_timeout):
        values, dirty = _read_for_rewrite(path)
        ordered = sorted(values)
        if dirty or list(values) != ordered:
            _write_lines(path, (_framed(key, values[key]) for key in ordered))
    return len(values)


def _account_skip(path: Path, status: str) -> None:
    """Count one line a rewrite skipped against ``path``.

    Feeds the same ``repro stats`` tallies as a plain load (the
    once-per-file warning still fires at most once per process).
    """
    _tally(
        path,
        1,
        int(status == "crc"),
        "skipped corrupt cache line(s) during a rewrite; "
        "the atomic rewrite scrubbed them",
    )


def _tally(path: Path, skipped: int, crc_failed: int, message: str) -> None:
    """Count skipped lines against ``path``; warn once per file per process."""
    resolved = str(path.resolve())
    _corrupt_counts[resolved] = _corrupt_counts.get(resolved, 0) + skipped
    if crc_failed:
        _crc_counts[resolved] = _crc_counts.get(resolved, 0) + crc_failed
    if resolved not in _warned_corrupt:
        _warned_corrupt.add(resolved)
        warnings.warn(f"{path}: {message}", CorruptCacheLineWarning, stacklevel=4)


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
