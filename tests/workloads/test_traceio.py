"""Tests for the binary trace file format."""

import pytest

from repro.workloads.suite import TraceSuite
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta
from repro.workloads.traceio import (
    open_trace_columns,
    read_trace,
    trace_fingerprint,
    TraceFormatError,
    write_trace,
)


def small_trace():
    meta = TraceMeta(
        name="t",
        category="ispec",
        seed=9,
        footprint_lines=64,
        comp_class="friendly",
        cache_sensitive=True,
        mlp_memory=2.5,
    )
    trace = Trace(meta)
    for i in range(100):
        trace.append(STORE if i % 3 == 0 else LOAD, i * 7 % 64, 1 + i % 5)
    return trace


class TestRoundTrip:
    def test_roundtrip_preserves_records(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert list(loaded.kinds) == list(trace.kinds)
        assert list(loaded.addrs) == list(trace.addrs)
        assert list(loaded.deltas) == list(trace.deltas)

    def test_roundtrip_preserves_metadata(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded.meta == trace.meta

    def test_roundtrip_of_generated_suite_trace(self, tmp_path):
        suite = TraceSuite(512, 2000)
        trace = suite.trace("mcf.1")
        path = tmp_path / "mcf1.rptr"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert len(loaded) == len(trace)
        assert list(loaded.addrs) == list(trace.addrs)

    def test_large_addresses_survive(self, tmp_path):
        trace = small_trace()
        trace.append(LOAD, 1 << 45, 3)
        path = tmp_path / "big.rptr"
        write_trace(trace, path)
        assert read_trace(path).addrs[-1] == 1 << 45


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rptr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rptr"
        path.write_bytes(b"RPTR\x01")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_records(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-50])
        with pytest.raises(TraceFormatError):
            read_trace(path)

    @pytest.mark.parametrize("version", [1, 2, 4, 99])
    def test_wrong_version(self, tmp_path, version):
        """Every reader rejects any version but 3, naming the one found."""
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        data[4] = version  # version field
        path.write_bytes(bytes(data))
        for reader in (read_trace, trace_fingerprint, open_trace_columns):
            with pytest.raises(TraceFormatError, match=f"v{version} is not"):
                reader(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        """Bytes past the end of the format are an error, not ignored."""
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)

    def test_concatenated_file_rejected(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data + data)  # e.g. a botched `cat a b > a`
        with pytest.raises(TraceFormatError, match="trailing"):
            read_trace(path)


class TestCorruptionFuzz:
    def test_truncation_at_every_offset_is_detected(self, tmp_path):
        """No prefix of a trace file may load as a valid trace.

        Exhaustive over every byte offset: the file is small, and a
        single undetected truncation point would mean silently
        simulating a shorter workload than the metadata claims.
        """
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = path.read_bytes()
        victim = tmp_path / "cut.rptr"
        for cut in range(len(data)):
            victim.write_bytes(data[:cut])
            with pytest.raises(TraceFormatError):
                read_trace(victim)

    def test_flipped_bit_anywhere_never_passes_silently(self, tmp_path):
        """The v3 checksums catch single-bit rot at any offset.

        Flipping one bit must either raise (checksum/structure) or —
        never — yield a trace that reads back successfully while
        differing from the original.
        """
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        data = bytearray(path.read_bytes())
        victim = tmp_path / "flip.rptr"
        step = 7  # every 7th byte keeps the sweep fast but offset-diverse
        for offset in range(0, len(data), step):
            flipped = bytearray(data)
            flipped[offset] ^= 0x10
            victim.write_bytes(bytes(flipped))
            with pytest.raises(TraceFormatError):
                read_trace(victim)


class TestLegacyV1:
    def test_current_files_are_v3(self, tmp_path):
        trace = small_trace()
        path = tmp_path / "t.rptr"
        write_trace(trace, path)
        assert path.read_bytes()[4] == 3  # version field
