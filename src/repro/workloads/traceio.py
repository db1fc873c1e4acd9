"""Binary trace file format (columnar v3, the only version read).

Lets users persist generated traces or bring their own (e.g. converted
from a Pin/DynamoRIO capture).  The current format, **v3**, is a
columnar layout: each of the three record columns lands in its own
contiguous, 64-byte-aligned, individually checksummed section, so
:func:`read_trace` loads each column with one bulk copy, and a reader
can memory-map any column directly as a NumPy array
(:func:`open_trace_columns`) without parsing past the header.

v3 layout, all fixed-width fields little-endian::

    magic  b"RPTR"
    u16    format version (3)
    u32    metadata length
    ...    JSON metadata block (TraceMeta fields)
    u64    record count
    TOC    3 x (u64 offset, u64 nbytes, u32 crc32) — kinds, addrs, deltas
    u32    header CRC32 over every preceding byte
    ...    zero padding to each section's aligned offset
    ...    column sections: kinds (i8), addrs (i64), deltas (i32)

The header CRC makes the *structure* trustworthy before any section is
touched; each section's CRC makes the *data* trustworthy independently.
The file must end exactly at the last section's end and inter-section
padding must be zero — trailing garbage (a concatenated second file, a
partially overwritten longer file) raises :class:`TraceFormatError`
rather than being ignored.  So does a file of any other format
version: every reader names the version it found.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path

from repro.workloads.trace import Trace, TraceMeta

_MAGIC = b"RPTR"
#: The format version (v3 = columnar, per-section checksums).
_VERSION = 3
_LITTLE = sys.byteorder == "little"

#: Column sections in on-disk order: (attribute, array typecode).
_COLUMNS = (("kinds", "b"), ("addrs", "q"), ("deltas", "i"))

#: Section alignment: one cache line / the common mmap-friendly unit.
_ALIGN = 64

_TOC_ENTRY = struct.Struct("<QQI")
_HEADER_TAIL = struct.Struct("<I")


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or unsupported."""


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _le_bytes(column: array) -> bytes:
    """The column's little-endian on-disk bytes."""
    if _LITTLE:
        return column.tobytes()
    return _byteswapped(column).tobytes()


def write_trace(trace: Trace, path: str | Path) -> None:
    """Serialise a trace to ``path`` in the current (v3, columnar) format."""
    meta_json = json.dumps(trace.meta.__dict__).encode("utf-8")
    payloads = [_le_bytes(getattr(trace, name)) for name, _ in _COLUMNS]

    header_len = (
        len(_MAGIC)
        + 6  # u16 version + u32 metadata length
        + len(meta_json)
        + 8  # u64 record count
        + len(_COLUMNS) * _TOC_ENTRY.size
        + _HEADER_TAIL.size
    )
    toc: list[tuple[int, int, int]] = []
    offset = header_len
    for payload in payloads:
        offset = _aligned(offset)
        toc.append((offset, len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        offset += len(payload)

    header = bytearray()
    header += _MAGIC
    header += struct.pack("<HI", _VERSION, len(meta_json))
    header += meta_json
    header += struct.pack("<Q", len(trace))
    for entry in toc:
        header += _TOC_ENTRY.pack(*entry)
    header += _HEADER_TAIL.pack(zlib.crc32(bytes(header)) & 0xFFFFFFFF)
    assert len(header) == header_len

    with open(path, "wb") as handle:
        handle.write(header)
        position = header_len
        for (section_offset, _, _), payload in zip(toc, payloads):
            handle.write(b"\x00" * (section_offset - position))
            handle.write(payload)
            position = section_offset + len(payload)


def trace_file_version(path: str | Path) -> int:
    """The format version of a trace file (magic + version field only)."""
    with open(path, "rb") as handle:
        head = handle.read(6)
    if len(head) < 6 or head[:4] != _MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (magic {head[:4]!r})")
    (version,) = struct.unpack("<H", head[4:6])
    return version


def _unsupported(path: str | Path, version: int) -> TraceFormatError:
    """The error every reader raises for a file of another format version."""
    return TraceFormatError(
        f"{path}: trace format v{version} is not supported; "
        f"only v{_VERSION} files are read"
    )


def trace_fingerprint(path: str | Path) -> tuple[int, int]:
    """``(format_version, checksum)`` identifying a trace file's contents.

    For v3 files the checksum is the stored header CRC: it covers the
    section table's per-column CRCs, so it pins the payload bytes
    transitively without reading past the header.  The header CRC is
    recomputed and verified here, so a fingerprint never vouches for a
    file whose header is corrupt.  Used by
    :mod:`repro.workloads.tracecache` as the cache-key component that
    makes in-place file rewrites miss.
    """
    with open(path, "rb") as handle:
        head = handle.read(10)
        if len(head) < 6 or head[:4] != _MAGIC:
            raise TraceFormatError(
                f"{path}: not a trace file (magic {head[:4]!r})"
            )
        (version,) = struct.unpack("<H", head[4:6])
        if version != _VERSION:
            raise _unsupported(path, version)
        if len(head) < 10:
            raise TraceFormatError(f"{path}: truncated header")
        (meta_len,) = struct.unpack("<I", head[6:10])
        rest_len = (
            meta_len
            + 8  # u64 record count
            + len(_COLUMNS) * _TOC_ENTRY.size
            + _HEADER_TAIL.size
        )
        rest = handle.read(rest_len)
    if len(rest) != rest_len:
        raise TraceFormatError(f"{path}: truncated header")
    (stored,) = _HEADER_TAIL.unpack(rest[-_HEADER_TAIL.size :])
    computed = zlib.crc32(head + rest[: -_HEADER_TAIL.size]) & 0xFFFFFFFF
    if stored != computed:
        raise TraceFormatError(
            f"{path}: header checksum mismatch (stored {stored:08x}, "
            f"computed {computed:08x}); the file is corrupt"
        )
    return version, stored


def read_trace(path: str | Path) -> Trace:
    """Load a v3 trace file.

    Truncation anywhere, trailing bytes past the end of the format, and
    any checksum mismatch all raise :class:`TraceFormatError`.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:4] != _MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (magic {data[:4]!r})")
    if len(data) < 6:
        raise TraceFormatError(f"{path}: truncated header")
    (version,) = struct.unpack("<H", data[4:6])
    if version != _VERSION:
        raise _unsupported(path, version)
    return _read_v3(path, data)


def _parse_v3_header(path: str | Path, data: bytes, file_size: int | None = None):
    """Validate a v3 header; returns (meta, count, toc, header_len).

    ``data`` needs to hold at least the header bytes; section-extent
    checks run against ``file_size`` (default ``len(data)``), so mmap
    readers can validate the structure from the header alone without
    faulting in the column sections.
    """
    if file_size is None:
        file_size = len(data)

    def take(count: int, what: str) -> bytes:
        nonlocal offset
        chunk = data[offset : offset + count]
        if len(chunk) != count:
            raise TraceFormatError(f"{path}: truncated {what}")
        offset += count
        return chunk

    offset = 4
    (meta_len,) = struct.unpack("<I", take(6, "header")[2:])
    meta_json = take(meta_len, "metadata")
    (count,) = struct.unpack("<Q", take(8, "record count"))
    toc = [
        _TOC_ENTRY.unpack(take(_TOC_ENTRY.size, "section table"))
        for _ in _COLUMNS
    ]
    (stored,) = _HEADER_TAIL.unpack(take(_HEADER_TAIL.size, "header checksum"))
    header_len = offset
    computed = zlib.crc32(data[: header_len - _HEADER_TAIL.size]) & 0xFFFFFFFF
    if stored != computed:
        raise TraceFormatError(
            f"{path}: header checksum mismatch (stored {stored:08x}, "
            f"computed {computed:08x}); the file is corrupt"
        )
    try:
        meta = TraceMeta(**json.loads(meta_json))
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: bad metadata: {exc}") from exc

    position = header_len
    for (name, typecode), (section_offset, nbytes, _) in zip(_COLUMNS, toc):
        expected = count * array(typecode).itemsize
        if nbytes != expected:
            raise TraceFormatError(
                f"{path}: {name} section holds {nbytes} bytes, expected "
                f"{expected} for {count} records"
            )
        if section_offset % _ALIGN or section_offset < position:
            raise TraceFormatError(
                f"{path}: {name} section offset {section_offset} is "
                f"misaligned or overlaps the previous section"
            )
        position = section_offset + nbytes
    if position > file_size:
        raise TraceFormatError(f"{path}: truncated records")
    if position < file_size:
        raise TraceFormatError(
            f"{path}: {file_size - position} trailing byte(s) after the "
            "trace payload; refusing a file the format does not account for"
        )
    return meta, count, toc, header_len


def _read_v3(path: str | Path, data: bytes) -> Trace:
    meta, count, toc, header_len = _parse_v3_header(path, data)
    columns: dict[str, array] = {}
    position = header_len
    for (name, typecode), (section_offset, nbytes, stored) in zip(_COLUMNS, toc):
        if data[position:section_offset].count(0) != section_offset - position:
            raise TraceFormatError(
                f"{path}: nonzero padding before the {name} section"
            )
        payload = data[section_offset : section_offset + nbytes]
        computed = zlib.crc32(payload) & 0xFFFFFFFF
        if stored != computed:
            raise TraceFormatError(
                f"{path}: {name} section checksum mismatch (stored "
                f"{stored:08x}, computed {computed:08x}); the file is corrupt"
            )
        column = array(typecode)
        column.frombytes(payload)
        if not _LITTLE:
            column = _byteswapped(column)
        columns[name] = column
        position = section_offset + nbytes
    return Trace(meta, **columns)


def open_trace_columns(path: str | Path, verify: bool = True):
    """Memory-map a v3 trace's columns as read-only NumPy arrays.

    Returns ``(meta, {"kinds": i8[:], "addrs": i64[:], "deltas":
    i32[:]})`` without copying the sections — the zero-copy ingest
    path for bulk trace analysis (simulation takes the
    :class:`~repro.workloads.trace.Trace` that :func:`read_trace`
    loads).  The
    header checksum is always verified; ``verify=True`` additionally
    checks every section CRC (touching each page once).  Requires NumPy.
    """
    import numpy as np  # local import: traceio itself must not need numpy

    version = trace_file_version(path)
    if version != _VERSION:
        raise _unsupported(path, version)
    with open(path, "rb") as handle:
        head = handle.read(10)
        if len(head) < 10:
            raise TraceFormatError(f"{path}: truncated header")
        (meta_len,) = struct.unpack("<I", head[6:10])
        header_len = (
            10 + meta_len + 8 + len(_COLUMNS) * _TOC_ENTRY.size + _HEADER_TAIL.size
        )
        handle.seek(0)
        data = handle.read(header_len)
    meta, count, toc, _ = _parse_v3_header(
        path, data, file_size=os.path.getsize(path)
    )
    dtypes = {"kinds": np.int8, "addrs": np.int64, "deltas": np.int32}
    columns = {}
    for (name, _), (section_offset, nbytes, stored) in zip(_COLUMNS, toc):
        view = np.memmap(
            path, mode="r", dtype=dtypes[name], offset=section_offset, shape=(count,)
        )
        if verify and zlib.crc32(view.tobytes()) & 0xFFFFFFFF != stored:
            raise TraceFormatError(
                f"{path}: {name} section checksum mismatch; the file is corrupt"
            )
        if not _LITTLE:
            view = view.byteswap()
        columns[name] = view
    return meta, columns


def _byteswapped(data: array) -> array:
    swapped = array(data.typecode, data)
    swapped.byteswap()
    return swapped
