"""Result-cache JSONL file helpers (format v5: checksummed, lock-merged).

The experiment runner, the parallel sweep engine and the dispatch
coordinator share one on-disk format: JSON-lines files where every line
is ``{"key": ..., "result": ...}`` followed by a CRC32 suffix
(``#xxxxxxxx`` over the JSON payload).  This module owns encoding,
tolerant loading, the locked append each finished cell takes and the
locked, atomic, key-sorted rewrite that ends every batch, so no two
processes can tear each other's writes.

**Format v5** (the only version read): ``<canonical JSON>#<crc32
hex8>``.  The checksum turns silent corruption — a bit flipped at rest,
a line torn mid-write whose remnant still parses, a suffix torn off —
into a *detected*, counted, skipped line.  :func:`frame_line`,
:func:`unframe_line` and :func:`append_lines` are the one copy of that
framing rule.  Files of any other version are stale: no reader opens
them.

Loading is *tolerant*: a worker interrupted mid-write (Ctrl-C, OOM kill,
crashed pool) leaves a truncated final line behind, and a cache that
refuses to load because of one torn line would throw away hours of sweep
results.  Corrupt lines are skipped, reported via
:class:`CorruptCacheLineWarning` — once per file per process — and
*counted in what each call returns*: every read returns a
:class:`CacheFileReport` and every write a :class:`MergeStats`, so the
sweep engine and ``repro stats`` surface every skip to the operator:
silent data loss is a lie a report must not tell.

One scan reads a file in binary, one line at a time; every reader and
rewriter below is that scan.  Lines stay on disk until a reader needs
them.  :func:`load_cache_entries` checks each line's CRC over its raw
payload bytes and slices its key out of the canonical ``{"key": "…",
"result": {…}}`` prefix without parsing JSON.  It then keeps only
where the line lies: an offset and a length in the file version it
scanned.  That version stays open, one descriptor per scan, until no
recorded line refers to it.  A descriptor pins the inode it opened, so
another writer's atomic replace or append never changes what is read
back.  :class:`ResultStore` reads a line back the first time its key is
asked for (one ``os.pread``), re-checks its CRC and key, and only then
decodes it.  A line not in canonical shape, or whose key holds an
escape, takes the full decode at load instead.  A line cut at a lone
``\\r``, or stripped as text (below), keeps its bytes; such lines are
rare.  Two rejections are deferred to a key's first use: a
canonical-shaped line whose payload does not decode, and a recorded
line that no longer passes its re-check because its version was
changed in place.  Either is reported to the store's ``on_reject`` and
reads as a miss.  Rewrites copy each valid line from the version they
scanned, one ``os.pread`` and a CRC compare per line, and re-encode
only the fallback-decoded ones.  So no load and no rewrite holds every
line at once.  :func:`read_cache_entries`
and :func:`scan_cache_file` (``repro cache verify``) decode every line.

Every line gets the verdict a UTF-8 text read (``surrogateescape``,
universal newlines, ``str.strip``) would give it: the scan
ends lines at ``\\n``, ``\\r\\n`` or a lone ``\\r``, and strips ASCII
whitespace in bytes.  Text remains only where bytes and text could
disagree: a line whose first or last byte is non-ASCII or
``\\x1c``-``\\x1f`` may hold whitespace only ``str.strip`` knows, so it
is stripped as text and encoded back to the same bytes.

Write primitives and their concurrency contracts (each returns a
:class:`MergeStats`):

* :func:`append_cache_entries` — append under the cache's advisory lock
  (:mod:`repro.sim.locking`); every cell a sweep finishes, serial or
  in a pool worker, is appended this way the moment it is computed.
  A crash mid-append leaves a torn tail the CRC detects, and the next
  append (:func:`append_lines`) ends it with a newline first, so the
  tear costs only its own line.
* :func:`canonicalize_cache_file` — the one rewriter: under the lock,
  fold incoming entries into whatever the file holds *now* (existing
  keys win — a second writer folds in, never clobbers), scrub rejected,
  repeated and blank lines, and rewrite the file sorted by key via temp
  file + ``fsync`` + ``os.replace``.  Every sweep batch ends with it,
  so serial, parallel, faulted and overlapping sweeps over the same
  matrix leave byte-identical caches.  ``repro cache canonicalize``
  also decodes every line it keeps, as ``repro cache verify`` does, so
  it is the repair for a file ``repro cache verify --strict`` rejects.

:func:`encode_entry` is the only writer of new lines.
"""

from __future__ import annotations

import json
import os
import re
import warnings
import weakref
import zlib
from collections.abc import MutableMapping
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from repro.sim.locking import FileLock

#: Cache format version: bumped whenever simulator behaviour *or* the
#: on-disk format changes.  Files named for any other version are stale.
CACHE_VERSION = 5

#: A framed line ends with ``#`` + 8 lowercase hex digits (the CRC32 of
#: the JSON payload before it).
_CRC_SUFFIX_RE = re.compile(rb"#[0-9a-f]{8}")
_CRC_SUFFIX_LEN = len("#00000000")

#: How every :func:`encode_entry` payload opens and where its key ends
#: (sorted keys put ``key`` before ``result``); it closes with ``}}``.
_KEY_OPEN = b'{"key": "'
_RESULT_OPEN = b'", "result": {'

#: Edge bytes of a line that ``str.strip`` may strip and ``bytes.strip``
#: does not: ``\x1c``-``\x1f`` and every non-ASCII byte (the first or
#: last byte of U+0085, U+00A0 or another Unicode space).
_TEXT_EDGES = frozenset(range(0x1C, 0x20)) | frozenset(range(0x80, 0x100))

#: Single bytes the scan looks for, as ints: ``int in bytes`` is a plain
#: ``memchr``, several times faster than a one-byte ``bytes`` needle.
_CR, _BACKSLASH, _HASH = ord("\r"), ord("\\"), ord("#")

#: Read buffer of the scan, and write buffer of a rewrite.  Bench lines
#: run to about 3 KB, and with the default 8 KB buffer a binary read
#: stitched about two in five of them across two refills, which made it
#: slower than a text read.
_SCAN_BUFFER = 1 << 16

#: Cache file naming scheme shared by the runner and the cache tools.
_CACHE_FILE_RE = re.compile(r"^results-v(\d+)-.+\.jsonl$")


class CorruptCacheLineWarning(RuntimeWarning):
    """A result-cache file contained truncated or malformed JSONL lines."""


#: Files already reported as corrupt (resolved paths); a process warns at
#: most once per file however many times the file is re-read.
_warned_corrupt: set[str] = set()


def cache_file_name(preset_name: str) -> str:
    """Canonical cache file name for a preset at :data:`CACHE_VERSION`."""
    return f"results-v{CACHE_VERSION}-{preset_name}.jsonl"


def _payload_crc(payload: bytes) -> bytes:
    """CRC32 of a line's raw payload bytes, as 8 lowercase hex digits.

    The check runs on the bytes as read, so a byte that is not UTF-8
    (say, ASCII with its high bit flipped) fails it like any other
    flipped bit instead of stopping the read.  The one text round trip
    left, :func:`_located_lines`' strip of a line with non-ASCII edges,
    decodes with ``surrogateescape`` and so gives back the same bytes.
    """
    return b"%08x" % zlib.crc32(payload)


def frame_line(payload: str) -> str:
    """``payload`` with its ``#<crc32 hex8>`` suffix (no trailing newline)."""
    crc = _payload_crc(payload.encode("utf-8", "surrogateescape"))
    return f"{payload}#{crc.decode()}"


def unframe_line(line: bytes) -> tuple[str, bytes | None]:
    """Check one stripped framed line; returns ``(status, payload)``.

    ``status`` is ``"ok"`` (the payload follows), ``"crc"`` (a suffix is
    present but does not match) or ``"corrupt"`` (no suffix at all); the
    payload is ``None`` unless the status is ``"ok"``.
    """
    start = len(line) - _CRC_SUFFIX_LEN
    if start < 0 or _CRC_SUFFIX_RE.fullmatch(line, start) is None:
        return "corrupt", None
    payload = line[:start]
    if _payload_crc(payload) != line[start + 1 :]:
        return "crc", None
    return "ok", payload


def _text(raw: bytes) -> str:
    """Raw bytes as the text a ``surrogateescape`` UTF-8 read gives."""
    return raw.decode("utf-8", "surrogateescape")


def _located_lines(handle: BinaryIO) -> Iterator[tuple[int | None, bytes]]:
    """Each line of a binary file, with the file offset it starts at.

    Lines are cut and stripped as a text read would: they end at
    ``\\n``, ``\\r\\n`` or a lone ``\\r`` (universal newlines), and each
    is stripped of whitespace; a blank line yields ``b""``.  A line
    whose first or last byte is in :data:`_TEXT_EDGES` is stripped as
    text, decoded with ``surrogateescape`` so that it encodes back to
    the bytes it came from; every other line never leaves bytes.

    A line is the ``len(line)`` bytes at its offset.  The offset is
    ``None`` for a line cut at a ``\\r`` or stripped as text: only such
    a line's bytes say what it is.
    """
    end = 0
    for chunk in handle:
        end += len(chunk)
        cut = _CR in chunk
        for line in chunk.splitlines() if cut else (chunk,):
            stripped = line.strip()
            if stripped and (
                stripped[0] in _TEXT_EDGES or stripped[-1] in _TEXT_EDGES
            ):
                yield None, _text(stripped).strip().encode("utf-8", "surrogateescape")
            elif cut:
                yield None, stripped
            else:  # ``lstrip`` returns the chunk itself when it strips nothing
                yield end - len(chunk.lstrip()), stripped


def append_lines(path: Path, lines: Iterable[str]) -> int:
    """Append ``lines`` to ``path``, one per line, and ``fsync``.

    The caller holds ``path``'s lock or is its only writer (a dispatch's
    staged shard).  A file that does not end in a newline (a write torn
    by a crash) gets one first, so its remnant stays a line of its own,
    rejected and counted once, and the first new line is not glued onto
    it.  Returns how many lines were written.
    """
    written = 0
    with path.open("a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        for line in lines:
            handle.write(line.encode("utf-8", "surrogateescape") + b"\n")
            written += 1
        handle.flush()
        os.fsync(handle.fileno())
    return written


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
    line: bytes, *, lazy: bool = False
) -> tuple[str, str | None, bytes | dict | None]:
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
    entry = _decode_payload(_text(payload))
    if entry is None:
        return "corrupt", None, None
    key, result = entry
    return "ok", key, result


def _canonical_key(payload: bytes) -> str | None:
    """The key of a payload in :func:`encode_entry`'s shape, unparsed.

    ``None`` unless the payload opens ``{"key": "<key>", "result": {``
    and closes ``}}`` with no escape in the key.
    """
    if not (payload.startswith(_KEY_OPEN) and payload.endswith(b"}}")):
        return None
    end = payload.find(b'"', len(_KEY_OPEN))
    if end < 0 or not payload.startswith(_RESULT_OPEN, end):
        return None
    key = payload[len(_KEY_OPEN) : end]
    return None if _BACKSLASH in key else _text(key)


class _FileVersion:
    """A file version one scan read, open while a recorded line needs it.

    Its descriptor pins the inode the scan opened: another writer's
    atomic replace or append leaves the bytes at every recorded offset
    as the scan checked them.  The file is closed once no record refers
    to the version any more, or by :attr:`close`; one garbage-collected
    unclosed would raise a ``ResourceWarning``.
    """

    __slots__ = ("fd", "close", "__weakref__")

    def __init__(self, file: BinaryIO) -> None:
        self.fd = file.fileno()
        #: Closes the file: at most once, and at the latest when the
        #: last reference to the version goes.
        self.close = weakref.finalize(self, file.close)


#: Where a scanned line lies: its file version, offset and length.
_Recorded = tuple[_FileVersion, int, int]

#: A scanned value: a decoded result, a recorded line, or the bytes of
#: a line with no offset (see :func:`_located_lines`).
_Value = dict | bytes | _Recorded


def _read_back(value: bytes | _Recorded) -> bytes:
    """A raw line's bytes: a recorded line is read back from its version."""
    if isinstance(value, bytes):
        return value
    version, offset, length = value
    return os.pread(version.fd, length, offset)


def _intact(line: bytes) -> bool:
    """Whether a line read back still ends in ``#`` and its payload's CRC.

    The re-check of a line that passed :func:`unframe_line` at its scan:
    no pattern match, one CRC compare.
    """
    end = len(line) - _CRC_SUFFIX_LEN
    return (
        end >= 0
        and line[end] == _HASH
        and _payload_crc(line[:end]) == line[end + 1 :]
    )


def _decode_raw(key: str, line: bytes) -> dict | None:
    """The result a raw canonical ``line`` holds for ``key``, or ``None``.

    The line's CRC and key are re-checked before it is decoded: a
    recorded line is read back from its file version, which a writer
    that skips the lock may have changed in place since the scan.
    """
    opening = _KEY_OPEN + key.encode("utf-8", "surrogateescape") + _RESULT_OPEN
    if not (_intact(line) and line.startswith(opening)):
        return None
    entry = _decode_payload(_text(line[:-_CRC_SUFFIX_LEN]))
    if entry is None or entry[0] != key:
        return None
    return entry[1]


def _decodes(key: str, value: _Value) -> bool:
    """Whether a scanned value holds a result for ``key``.

    A raw line is read back, re-checked and decoded to find out.
    """
    return isinstance(value, dict) or _decode_raw(key, _read_back(value)) is not None


@dataclass(frozen=True)
class CacheFileReport:
    """What one scan of a cache file saw (``repro cache verify`` prints it).

    ``lines`` counts the non-blank lines and ``entries`` the valid ones,
    repeated keys included; ``crc_failures`` are lines whose checksum
    did not match, ``corrupt_lines`` lines with no checksum or whose
    checked payload is no entry, ``duplicate_keys`` valid lines whose
    key an earlier line already held, and ``blank_lines`` empty ones.
    """

    path: Path
    lines: int = 0
    entries: int = 0
    crc_failures: int = 0
    corrupt_lines: int = 0
    duplicate_keys: int = 0
    blank_lines: int = 0

    @property
    def skipped(self) -> int:
        """Lines every reader skips: CRC failures and corrupt lines."""
        return self.crc_failures + self.corrupt_lines

    @property
    def clean(self) -> bool:
        """True when nothing in the file was rejected."""
        return not self.skipped

    @property
    def needs_scrub(self) -> bool:
        """True when a rewrite drops lines: rejected, repeated or blank ones."""
        return bool(self.skipped or self.duplicate_keys or self.blank_lines)


def _scan(path: Path, *, lazy: bool) -> tuple[dict[str, _Value], CacheFileReport]:
    """Read ``path`` once: each key's last valid value, and the census.

    The file is read in binary, one line at a time.  Values sit at their
    key's first position, and a later line for a key wins, matching
    append-only write semantics.  A value is the decoded result; with
    ``lazy``, a line in canonical shape (see :func:`_decode_line`) is
    recorded instead, by where it lies in the version scanned, or kept
    as bytes if it has no offset.  A missing file reads as empty.
    """
    values: dict[str, _Value] = {}
    lines = crc_failed = corrupt = blank = 0
    try:
        version = _FileVersion(path.open("rb", buffering=0))
    except FileNotFoundError:
        return values, CacheFileReport(path=path)
    try:
        with open(version.fd, "rb", buffering=_SCAN_BUFFER, closefd=False) as handle:
            for offset, line in _located_lines(handle):
                if not line:
                    blank += 1
                    continue
                lines += 1
                status, key, value = _decode_line(line, lazy=lazy)
                if key is None or value is None:
                    if status == "crc":
                        crc_failed += 1
                    else:
                        corrupt += 1
                elif offset is not None and isinstance(value, bytes):
                    values[key] = (version, offset, len(line))
                else:
                    values[key] = value
    except BaseException:
        version.close()
        raise
    entries = lines - crc_failed - corrupt
    return values, CacheFileReport(
        path=path,
        lines=lines,
        entries=entries,
        crc_failures=crc_failed,
        corrupt_lines=corrupt,
        duplicate_keys=entries - len(values),
        blank_lines=blank,
    )


def _warn(path: Path, skipped: int, crc_failed: int, note: str) -> None:
    """Report ``skipped`` lines of ``path``; warns once per file per process."""
    if not skipped:
        return
    resolved = str(path.resolve())
    if resolved in _warned_corrupt:
        return
    _warned_corrupt.add(resolved)
    detail = f" ({crc_failed} failed the CRC check)" if crc_failed else ""
    warnings.warn(
        f"{path}: skipped {skipped} corrupt cache line(s){detail}; {note}",
        CorruptCacheLineWarning,
        stacklevel=3,
    )


_READ_NOTE = "likely a simulation interrupted mid-write or at-rest corruption"
_REWRITE_NOTE = "the atomic rewrite scrubbed them"


def read_cache_entries(path: Path) -> tuple[dict[str, dict], CacheFileReport]:
    """``(key -> result, report)`` for a JSONL cache file, every line decoded.

    Later entries for a repeated key win.  Blank lines are ignored;
    truncated, unchecksummed, structurally wrong or CRC-rejected lines
    are skipped, counted in the report, and warned about once per file
    per process.  A missing file reads as empty.
    """
    values, report = _scan(path, lazy=False)
    _warn(path, report.skipped, report.crc_failures, _READ_NOTE)
    return values, report  # type: ignore[return-value]


def scan_cache_file(path: Path) -> CacheFileReport:
    """Full integrity scan of one cache file, without a warning.

    The census ``repro cache verify`` reports: the same decode-every-line
    read as :func:`read_cache_entries`.
    """
    return _scan(path, lazy=False)[1]


class ResultStore(MutableMapping[str, dict]):
    """``key -> result`` over a cache file's lines, read back on first use.

    :func:`load_cache_entries` fills it with where each CRC-checked line
    lies in the file version the load scanned (a rare line keeps its
    bytes), and with the load's :class:`CacheFileReport` (``report``).
    The first lookup of a key reads its line back, re-checks its CRC and
    key, decodes it and memoizes the result; results stored later are
    kept as given.  A line that then fails its re-check or its decode
    is warned about like a load-time skip, reported to ``on_reject``,
    and dropped: its key reads as a miss.  The version stays open until
    every line recorded from it is read or dropped.  Iteration decodes
    every entry it yields; ``len`` counts the entries not yet found
    corrupt.
    """

    def __init__(
        self, path: Path | None = None, report: CacheFileReport | None = None
    ) -> None:
        self.path = path
        #: The census of the load that filled this store, if one did.
        self.report = report
        #: Called once for each line rejected at its first use.
        self.on_reject: Callable[[], None] | None = None
        self._values: dict[str, _Value] = {}
        #: The bytes of each key's rejected line, so that a reload does
        #: not take (and count) the same line again.
        self._rejected: dict[str, bytes] = {}

    def __getitem__(self, key: str) -> dict:
        value = self._values[key]
        if isinstance(value, dict):
            return value
        line = _read_back(value)
        result = _decode_raw(key, line)
        if result is None:
            del self._values[key]
            self._rejected[key] = line
            if self.path is not None:
                _warn(
                    self.path,
                    1,
                    0,
                    "it failed its re-check or decode on first use; "
                    "it reads as a miss",
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

        A store that holds nothing and has rejected nothing (a runner's
        first load) adopts ``other``'s entries without copying them, so
        ``other`` must not be used afterwards.  Otherwise a key still
        raw here takes ``other``'s value (the file's latest line on a
        reload), and the version its old line was recorded in closes
        once no line refers to it; a line this store already rejected
        is not taken again, so it is never counted twice.
        """
        if not self._values and not self._rejected:
            self._values, self._rejected = other._values, other._rejected
            return
        self._rejected.update(other._rejected)
        for key, value in other._values.items():
            if isinstance(self._values.get(key), dict):
                continue
            rejected = self._rejected.get(key)
            if (
                rejected is not None
                and not isinstance(value, dict)
                and _read_back(value) == rejected
            ):
                continue
            self._values[key] = value


def load_cache_entries(path: Path) -> ResultStore:
    """Read a JSONL cache file into a lazily decoding key -> result store.

    One scan checks each line's CRC and records where it lies; results
    are read back, re-checked and decoded on first use
    (:class:`ResultStore`), and the store carries the scan's
    :class:`CacheFileReport`.  Every line rejected at load is counted
    there and warned about as in :func:`read_cache_entries`; a line
    rejected at its first use is reported then.
    """
    values, report = _scan(path, lazy=True)
    _warn(path, report.skipped, report.crc_failures, _READ_NOTE)
    store = ResultStore(path, report)
    store._values = values
    return store


@dataclass(frozen=True)
class MergeStats:
    """What one locked write of a cache file did.

    ``new_entries`` were written by this call; ``existing_entries`` were
    already present (and won over any incoming duplicate) and were kept
    by the rewrite; ``corrupt_lines`` counts lines the write's read
    of the existing file skipped (and its rewrite scrubbed), CRC
    failures included, and ``crc_failures`` that subset; ``lock_waits``
    counts backoff sleeps while acquiring the cache lock.  An append
    reads nothing, so only its new entries and lock waits can be
    nonzero.
    """

    new_entries: int = 0
    existing_entries: int = 0
    corrupt_lines: int = 0
    crc_failures: int = 0
    lock_waits: int = 0


def append_cache_entries(
    path: Path,
    items: Iterable[tuple[str, dict]],
    *,
    lock_timeout: float | None = None,
    after: Callable[[], None] | None = None,
) -> MergeStats:
    """Append ``(key, result)`` v5 lines to ``path``.

    The append happens under ``path``'s advisory lock, so concurrent
    appenders and rewriters serialise instead of interleaving bytes.  A
    crash mid-append can still tear the final line — which the CRC then
    detects on the next load; the next append starts on a line of its
    own (:func:`append_lines`).  ``after`` runs once the lines are
    synced, with the lock still held: where a pool worker fires the
    fault hooks that tear the cache.
    """
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        written = append_lines(
            path, (encode_entry(key, result) for key, result in items)
        )
        if after is not None:
            after()
    return MergeStats(new_entries=written, lock_waits=lock.waits)


def _write_lines(path: Path, entries: Iterable[tuple[str, _Value]]) -> int:
    """Atomically replace ``path`` with a line per entry; returns lines left out.

    The caller holds the lock and the scan ``entries`` come from.  A
    decoded value is framed anew.  A raw line is copied from the version
    its scan read, one ``os.pread`` each, and must pass :func:`_intact`
    again: one that no longer does is left out and counted.

    Writes a temp file in the same directory, ``fsync``\\ s it, then
    ``os.replace``\\ s it over the target — readers observe either the
    old file or the new one, never a half-written hybrid, and a crash
    at any point leaves the original intact.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    left_out = 0
    try:
        with tmp.open("wb", buffering=_SCAN_BUFFER) as handle:
            for key, value in entries:
                if isinstance(value, dict):
                    line = encode_entry(key, value).encode()
                else:
                    line = _read_back(value)
                    if not _intact(line):
                        left_out += 1
                        continue
                handle.write(line)
                handle.write(b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_dir(path.parent)
    return left_out


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


def canonicalize_cache_file(
    path: Path,
    entries: Iterable[tuple[str, dict]] = (),
    *,
    lock_timeout: float | None = None,
    decode: bool = False,
) -> MergeStats:
    """Fold ``entries`` into ``path`` and rewrite it sorted by key.

    The one locked rewrite of a cache file.  Under the cache's advisory
    lock the file is re-read as it is *now*: every valid key it holds is
    kept and wins over an incoming one, so a writer folds in and never
    clobbers, and each entry the file lacks is added.  Corrupt or
    CRC-failed lines are scrubbed and counted like every other tolerant
    read, repeated keys resolve last-wins (the append-path semantics),
    and blank lines go.  The file is then rewritten sorted by key (temp
    file + ``fsync`` + ``os.replace``, copying valid lines verbatim), so
    its bytes are a pure function of the entry set: any mix of
    concurrent writers converges on the cache a clean serial run of the
    union of their work would leave.  A sorted, clean file that already
    holds every entry is left byte-untouched; a missing file with no
    entries stays missing.

    An existing line is decoded only when an incoming key collides with
    it; one that fails is scrubbed and counted, and the incoming entry
    takes its place.  With ``decode``, every line kept is decoded, as
    ``repro cache verify`` decodes every line: the repair ``repro cache
    canonicalize`` runs.  ``existing_entries`` counts the entries kept
    and ``new_entries`` those added.
    """
    incoming = dict(entries)
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        values, report = _scan(path, lazy=True)
        suspects = list(values) if decode else [k for k in incoming if k in values]
        undecodable = [key for key in suspects if not _decodes(key, values[key])]
        for key in undecodable:
            del values[key]
        existing = len(values)
        new = {key: result for key, result in incoming.items() if key not in values}
        values.update(new)
        ordered = sorted(values)
        left_out = 0
        if new or undecodable or report.needs_scrub or list(values) != ordered:
            left_out = _write_lines(path, ((key, values[key]) for key in ordered))
    stats = MergeStats(
        new_entries=len(new),
        existing_entries=existing - left_out,
        corrupt_lines=report.skipped + len(undecodable) + left_out,
        crc_failures=report.crc_failures,
        lock_waits=lock.waits,
    )
    _warn(path, stats.corrupt_lines, stats.crc_failures, _REWRITE_NOTE)
    return stats


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
