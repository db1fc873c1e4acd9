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
into a *detected*, counted, skipped line.  :func:`frame_line`,
:func:`unframe_line`, :func:`iter_lines` and :func:`append_lines` are
the one copy of that framing rule; the dispatch journal
(:mod:`repro.dist.journal`) frames, appends and replays its records
with them too.  Files of any other version are stale: no reader opens
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
rewriter below is that scan.  Lines stay bytes until a reader needs
them: :func:`load_cache_entries` checks each line's CRC over its raw
payload bytes and slices its key out of the canonical ``{"key": "…",
"result": {…}}`` prefix without parsing JSON; the result is decoded the
first time it is asked for (:class:`ResultStore`).  A line not in that
shape, or whose key holds an escape, takes the full decode at load
instead.  The one rejection this defers is a canonical-shaped line
whose CRC matches but whose payload does not decode: it is reported to
the store's ``on_reject`` when its key is first asked for, and reads as
a miss.  Rewrites write valid lines back verbatim, in binary, and
re-encode only the fallback-decoded ones.  :func:`read_cache_entries`
and :func:`scan_cache_file` (``repro cache verify``) decode every line.

Every line gets the verdict a UTF-8 text read (``surrogateescape``,
universal newlines, ``str.strip``) would give it: :func:`iter_lines`
ends lines at ``\\n``, ``\\r\\n`` or a lone ``\\r``, and strips ASCII
whitespace in bytes.  Text remains only where bytes and text could
disagree: a line whose first or last byte is non-ASCII or
``\\x1c``-``\\x1f`` may hold whitespace only ``str.strip`` knows, so it
is stripped as text and encoded back to the same bytes.

Write primitives and their concurrency contracts (each returns a
:class:`MergeStats`):

* :func:`append_cache_entries` — append under the cache's advisory lock
  (:mod:`repro.sim.locking`); used for incremental single-run stores.
  A crash mid-append leaves a torn tail the CRC detects, and the next
  append (:func:`append_lines`) ends it with a newline first, so the
  tear costs only its own line.
* :func:`merge_cache_entries` — the sweep merge: under the lock, fold
  new entries into whatever the file holds *now* (existing keys win —
  a second writer folds in, never clobbers), then rewrite atomically
  via temp file + ``fsync`` + ``os.replace``.  Two overlapping sweeps
  over the same matrix produce a cache byte-identical to a clean
  serial run.
* :func:`canonicalize_cache_file` — the same locked read-and-scrub,
  rewritten key-sorted; ``repro cache canonicalize`` is also the repair
  for a file ``repro cache verify --strict`` rejects.

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
_CR, _BACKSLASH = ord("\r"), ord("\\")

#: Read buffer of the scan.  Bench lines run to about 3 KB, and with
#: the default 8 KB buffer a binary read stitched about two in five of
#: them across two refills, which made it slower than a text read.
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
    left, :func:`iter_lines`' strip of a line with non-ASCII edges,
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


def iter_lines(handle: BinaryIO) -> Iterator[bytes]:
    """Each line of a binary file, cut and stripped as a text read would.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r`` (universal
    newlines), and each is stripped of whitespace; a blank line yields
    ``b""``.  A line whose first or last byte is in
    :data:`_TEXT_EDGES` is stripped as text, decoded with
    ``surrogateescape`` so that it encodes back to the bytes it came
    from; every other line never leaves bytes.
    """
    for chunk in handle:
        for line in chunk.splitlines() if _CR in chunk else (chunk,):
            line = line.strip()
            if line and (line[0] in _TEXT_EDGES or line[-1] in _TEXT_EDGES):
                line = _text(line).strip().encode("utf-8", "surrogateescape")
            yield line


def append_lines(path: Path, lines: Iterable[str]) -> int:
    """Append ``lines`` to ``path``, one per line, and ``fsync``.

    The caller holds ``path``'s lock.  A file that does not end in a
    newline (a write torn by a crash) gets one first, so its remnant
    stays a line of its own, rejected and counted once, and the first
    new line is not glued onto it.  Returns how many lines were written.
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


def _decode_raw(key: str, line: bytes) -> dict | None:
    """The result a raw canonical ``line`` holds for ``key``, or ``None``."""
    entry = _decode_payload(_text(line[:-_CRC_SUFFIX_LEN]))
    if entry is None or entry[0] != key:
        return None
    return entry[1]


def _framed(key: str, value: bytes | dict) -> bytes:
    """The line to write for a scanned value: raw lines go out verbatim."""
    return value if isinstance(value, bytes) else encode_entry(key, value).encode()


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


def _scan(
    path: Path, *, lazy: bool
) -> tuple[dict[str, bytes | dict], CacheFileReport]:
    """Read ``path`` once: each key's last valid value, and the census.

    The file is read in binary, one line at a time.  Values sit at their key's first position, and a later line for a
    key wins, matching append-only write semantics.  A value is the
    decoded result — or, with ``lazy``, the raw line of one in canonical
    shape (see :func:`_decode_line`).  A missing file reads as empty.
    """
    values: dict[str, bytes | dict] = {}
    lines = crc_failed = corrupt = blank = 0
    try:
        handle = path.open("rb", buffering=_SCAN_BUFFER)
    except FileNotFoundError:
        return values, CacheFileReport(path=path)
    with handle:
        for line in iter_lines(handle):
            if not line:
                blank += 1
                continue
            lines += 1
            status, key, value = _decode_line(line, lazy=lazy)
            if key is not None and value is not None:
                values[key] = value
            elif status == "crc":
                crc_failed += 1
            else:
                corrupt += 1
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
    """``key -> result`` over a cache file's lines, decoded on first use.

    :func:`load_cache_entries` fills it with CRC-checked raw lines, as
    bytes, and the load's :class:`CacheFileReport` (``report``); the
    first lookup of a key decodes its line and memoizes the result, and
    results stored later are kept as given.  A raw line whose payload
    then fails to decode is warned about like a load-time skip,
    reported to ``on_reject``, and dropped: its key reads as a miss.
    Iteration decodes every entry it yields; ``len`` counts the entries
    not yet found corrupt.
    """

    def __init__(
        self, path: Path | None = None, report: CacheFileReport | None = None
    ) -> None:
        self.path = path
        #: The census of the load that filled this store, if one did.
        self.report = report
        #: Called once for each raw line whose deferred decode fails.
        self.on_reject: Callable[[], None] | None = None
        self._values: dict[str, bytes | dict] = {}
        self._rejected: set[bytes] = set()

    def __getitem__(self, key: str) -> dict:
        value = self._values[key]
        if isinstance(value, dict):
            return value
        result = _decode_raw(key, value)
        if result is None:
            del self._values[key]
            self._rejected.add(value)
            if self.path is not None:
                _warn(
                    self.path,
                    1,
                    0,
                    "its result failed to decode on first use; it reads as a miss",
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
        reload); a raw line this store already rejected is not taken
        again, so it is never counted twice.
        """
        if not self._values and not self._rejected:
            self._values, self._rejected = other._values, other._rejected
            return
        self._rejected |= other._rejected
        for key, value in other._values.items():
            if isinstance(self._values.get(key), dict):
                continue
            if isinstance(value, bytes) and value in self._rejected:
                continue
            self._values[key] = value


def load_cache_entries(path: Path) -> ResultStore:
    """Read a JSONL cache file into a lazily decoding key -> result store.

    One scan checks each line's CRC and keeps it raw, as bytes; results
    are decoded on first use (:class:`ResultStore`), and the store carries
    the scan's :class:`CacheFileReport`.  Every line rejected at load is
    counted there and warned about as in :func:`read_cache_entries`; a
    canonical-shaped line whose payload does not decode is reported
    when its key is first asked for.
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
    already present (and won over any incoming duplicate) — every entry
    a canonicalize kept; ``corrupt_lines`` counts lines the write's read
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
) -> MergeStats:
    """Append ``(key, result)`` v5 lines to ``path``.

    The append happens under ``path``'s advisory lock, so concurrent
    appenders and mergers serialise instead of interleaving bytes.  A
    crash mid-append can still tear the final line — which the CRC then
    detects on the next load; the next append starts on a line of its
    own (:func:`append_lines`).
    """
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        written = append_lines(
            path, (encode_entry(key, result) for key, result in items)
        )
    return MergeStats(new_entries=written, lock_waits=lock.waits)


def _write_lines(path: Path, lines: Iterable[bytes]) -> None:
    """Atomically replace ``path`` with ``lines`` (caller holds the lock).

    Writes a temp file in the same directory, ``fsync``\\ s it, then
    ``os.replace``\\ s it over the target — readers observe either the
    old file or the new one, never a half-written hybrid, and a crash
    at any point leaves the original intact.
    """
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            for line in lines:
                handle.write(line + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    _fsync_dir(path.parent)


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
        values, report = _scan(path, lazy=True)
        existing = len(values)
        new = undecodable = 0
        for key, result in items:
            held = values.get(key)
            if isinstance(held, bytes) and _decode_raw(key, held) is None:
                del values[key]
                existing -= 1
                undecodable += 1
                held = None
            if held is None:
                values[key] = result
                new += 1
        if new or report.needs_scrub:
            _write_lines(path, (_framed(key, value) for key, value in values.items()))
    stats = MergeStats(
        new_entries=new,
        existing_entries=existing,
        corrupt_lines=report.skipped + undecodable,
        crc_failures=report.crc_failures,
        lock_waits=lock.waits,
    )
    _warn(path, stats.corrupt_lines, stats.crc_failures, _REWRITE_NOTE)
    return stats


def canonicalize_cache_file(
    path: Path, *, lock_timeout: float | None = None
) -> MergeStats:
    """Rewrite ``path`` with entries sorted by key.

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
    counted like every other tolerant read.  The entry count is the
    returned ``existing_entries``; a missing file is a no-op.
    """
    lock = FileLock.for_target(path, timeout=lock_timeout)
    with lock:
        values, report = _scan(path, lazy=True)
        ordered = sorted(values)
        if report.needs_scrub or list(values) != ordered:
            _write_lines(path, (_framed(key, values[key]) for key in ordered))
    stats = MergeStats(
        existing_entries=len(values),
        corrupt_lines=report.skipped,
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
