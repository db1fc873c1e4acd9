"""Tests for the columnar v3 trace format.

Two properties are load-bearing:

* **round-trip** — a v3 file reads back exactly what was written, both
  through the scalar :func:`read_trace` loader and the memory-mapped
  :func:`open_trace_columns` column views;
* **corruption detection** — truncation, bit flips in header or body,
  and trailing garbage all raise a structured :class:`TraceFormatError`
  instead of silently simulating a different workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.suite import TraceSuite
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta
from repro.workloads.traceio import (
    open_trace_columns,
    read_trace,
    trace_file_version,
    TraceFormatError,
    write_trace,
)


def small_trace(records: int = 100) -> Trace:
    meta = TraceMeta(
        name="t3",
        category="ispec",
        seed=11,
        footprint_lines=64,
        comp_class="friendly",
        cache_sensitive=True,
        mlp_memory=2.5,
    )
    trace = Trace(meta)
    for i in range(records):
        trace.append(STORE if i % 3 == 0 else LOAD, (i * 7919) % (1 << 44), 1 + i % 5)
    return trace


def assert_same_trace(a: Trace, b: Trace) -> None:
    assert a.meta == b.meta
    assert list(a.kinds) == list(b.kinds)
    assert list(a.addrs) == list(b.addrs)
    assert list(a.deltas) == list(b.deltas)


class TestRoundTrip:
    def test_scalar_loader_roundtrip(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        assert trace_file_version(path) == 3
        assert_same_trace(read_trace(path), trace)

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace(small_trace().meta)
        path = tmp_path / "empty.rptr"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == 0
        assert loaded.meta == trace.meta

    def test_generated_suite_trace_roundtrip(self, tmp_path):
        suite = TraceSuite(512, 2000)
        trace = suite.trace("mcf.1")
        path = tmp_path / "mcf1.rptr"
        write_trace(trace, path)
        assert_same_trace(read_trace(path), trace)

    def test_column_sections_are_aligned(self, tmp_path):
        """Every column section starts on a 64-byte boundary, so the
        mmap views hand out naturally aligned buffers."""
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        _, columns = open_trace_columns(path)
        for view in columns.values():
            offset = view.offset  # np.memmap records its file offset
            assert offset % 64 == 0

    def test_mmap_columns_match_scalar_loader(self, tmp_path):
        trace = small_trace(257)  # not a multiple of anything relevant
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        meta, columns = open_trace_columns(path)
        assert meta == trace.meta
        assert columns["kinds"].dtype == np.int8
        assert columns["addrs"].dtype == np.int64
        assert columns["deltas"].dtype == np.int32
        assert columns["addrs"].tolist() == list(trace.addrs)
        assert columns["kinds"].tolist() == list(trace.kinds)
        assert columns["deltas"].tolist() == list(trace.deltas)

    def test_mmap_requires_v3(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "old.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[4] = 2  # version field
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="only v3"):
            open_trace_columns(path)


class TestCorruptionFuzz:
    def test_truncation_at_every_offset_is_detected(self, tmp_path):
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        victim = tmp_path / "cut.rptr"
        for cut in range(len(data)):
            victim.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError):
                read_trace(victim)

    def test_flipped_bit_anywhere_is_detected(self, tmp_path):
        """Single-bit rot at any offset — header, TOC, checksum fields,
        inter-section padding or column data — must raise."""
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        victim = tmp_path / "flip.rptr"
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 0x10
            victim.write_bytes(bytes(flipped))
            with pytest.raises(TraceFormatError):
                read_trace(victim)

    def test_flipped_body_bit_detected_by_mmap_reader_too(self, tmp_path):
        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # inside the deltas section
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="checksum"):
            open_trace_columns(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_concatenated_file_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data + data)
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_inconsistent_record_count_rejected(self, tmp_path):
        """A header whose record count disagrees with the TOC section
        sizes is rejected even when its CRC is made self-consistent
        again (i.e. the structural check is not just the checksum)."""
        import struct
        import zlib

        trace = small_trace(40)
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack("<I", data[6:10])
        count_offset = 10 + meta_len
        struct.pack_into("<Q", data, count_offset, 41)
        header_len = count_offset + 8 + 3 * 20 + 4
        crc = zlib.crc32(bytes(data[: header_len - 4])) & 0xFFFFFFFF
        struct.pack_into("<I", data, header_len - 4, crc)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="expected"):
            read_trace(path)
