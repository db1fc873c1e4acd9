"""Unit tests for the serve wire protocol.

Every way a confused or hostile peer can hand us a line we must not act
on — oversized, non-UTF-8, non-JSON, wrong shape, unknown fields, bad
machine configs — must raise ProtocolError at the boundary, before any
simulation state is touched.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    MAX_JOBS_PER_SUBMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    machine_to_wire,
    parse_hello,
    parse_lease,
    parse_machine,
    parse_ping,
    parse_submit,
)
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB

TRACES = frozenset({"sjeng.1", "mcf.1"})


class TestFrames:
    def test_roundtrip_is_canonical(self):
        frame = encode_frame({"b": 1, "a": [2, 3]})
        assert frame.endswith(b"\n")
        assert frame == b'{"a": [2, 3], "b": 1}\n'
        assert decode_frame(frame) == {"a": [2, 3], "b": 1}

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"pad": "x" * MAX_FRAME_BYTES})

    def test_oversized_decode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\n",
            b"   \n",
            b"\xff\xfe garbage",
            b"{not json}\n",
            b"[1, 2, 3]\n",
            b'"just a string"\n',
            b"42\n",
        ],
    )
    def test_malformed_frames_rejected(self, raw):
        with pytest.raises(ProtocolError):
            decode_frame(raw)

    def test_str_input_accepted(self):
        assert decode_frame('{"op": "status"}') == {"op": "status"}


class TestMachineSpec:
    def test_default_is_validated_base_victim(self):
        machine = parse_machine(None)
        assert machine.arch == "base-victim"

    def test_roundtrip_through_wire_form(self):
        for machine in (BASELINE_2MB, BASE_VICTIM_2MB):
            assert parse_machine(machine_to_wire(machine)) == machine

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown machine field"):
            parse_machine({"waze": 16})

    @pytest.mark.parametrize(
        "spec",
        [
            {"ways": "sixteen"},
            {"ways": True},
            {"sets_mult": "1.0"},
            {"arch": 7},
            "base-victim",
        ],
    )
    def test_wrong_types_rejected(self, spec):
        with pytest.raises(ProtocolError):
            parse_machine(spec)

    def test_invalid_config_rejected_eagerly(self):
        # A structurally fine spec with a semantically bad value must
        # fail here, not inside a worker process.
        with pytest.raises(ProtocolError):
            parse_machine({"policy": "definitely-not-a-policy"})


class TestHello:
    def test_valid_hello_parses(self):
        request = parse_hello({"op": "hello", "version": PROTOCOL_VERSION})
        assert request.version == PROTOCOL_VERSION

    def test_out_of_range_version_still_parses(self):
        # Version policy is an admission decision (a structured
        # ``version-unsupported`` reject), not a protocol violation —
        # the frame itself must parse so the connection survives.
        assert parse_hello({"op": "hello", "version": 99}).version == 99
        old = PROTOCOL_VERSION - 1
        assert parse_hello({"op": "hello", "version": old}).version == old

    @pytest.mark.parametrize("version", ["2", 2.0, True, None])
    def test_non_integer_version_rejected(self, version):
        with pytest.raises(ProtocolError, match="integer 'version'"):
            parse_hello({"op": "hello", "version": version})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown hello field"):
            parse_hello({"op": "hello", "version": 2, "client": "me"})


class TestPing:
    def test_valid_ping_parses(self):
        assert parse_ping({"op": "ping", "id": "hb-1"}).ping_id == "hb-1"

    def test_id_is_optional(self):
        assert parse_ping({"op": "ping"}).ping_id == ""

    @pytest.mark.parametrize("ping_id", [7, None, True, ["hb"]])
    def test_non_string_id_rejected(self, ping_id):
        with pytest.raises(ProtocolError, match="'id' must be a string"):
            parse_ping({"op": "ping", "id": ping_id})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown ping field"):
            parse_ping({"op": "ping", "id": "hb-1", "payload": "x"})

    def test_ping_is_a_known_op_and_pong_a_known_event(self):
        assert "ping" in protocol.REQUEST_OPS
        assert "pong" in protocol.EVENT_KINDS


class TestLease:
    def _frame(self, **overrides):
        frame = {
            "op": "lease",
            "id": "lease-1",
            "jobs": [{"trace": "sjeng.1"}, {"trace": "mcf.1"}],
        }
        frame.update(overrides)
        return frame

    def test_valid_lease_parses(self):
        request = parse_lease(self._frame(), TRACES)
        assert request.lease_id == "lease-1"
        assert [job.trace for job in request.jobs] == ["sjeng.1", "mcf.1"]

    def test_missing_id_rejected(self):
        with pytest.raises(ProtocolError, match="'id'"):
            parse_lease(self._frame(id=""), TRACES)

    def test_empty_jobs_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_lease(self._frame(jobs=[]), TRACES)

    def test_too_many_jobs_rejected(self):
        jobs = [{"trace": "sjeng.1"}] * (MAX_JOBS_PER_SUBMIT + 1)
        with pytest.raises(ProtocolError, match="per-request limit"):
            parse_lease(self._frame(jobs=jobs), TRACES)

    def test_unknown_field_rejected(self):
        # ``wait`` is a submit field; a lease always streams.
        with pytest.raises(ProtocolError, match="unknown lease field"):
            parse_lease(self._frame(wait=True), TRACES)

    def test_unknown_trace_rejected(self):
        with pytest.raises(ProtocolError, match="unknown trace"):
            parse_lease(self._frame(jobs=[{"trace": "nope.1"}]), TRACES)


class TestSubmit:
    def _frame(self, **overrides):
        frame = {
            "op": "submit",
            "id": "req-1",
            "jobs": [{"trace": "sjeng.1"}],
            "wait": True,
        }
        frame.update(overrides)
        return frame

    def test_valid_submit_parses(self):
        request = parse_submit(self._frame(), TRACES)
        assert request.request_id == "req-1"
        assert request.wait is True
        assert [job.trace for job in request.jobs] == ["sjeng.1"]

    def test_missing_id_rejected(self):
        with pytest.raises(ProtocolError, match="'id'"):
            parse_submit(self._frame(id=""), TRACES)

    def test_unknown_trace_rejected(self):
        with pytest.raises(ProtocolError, match="unknown trace"):
            parse_submit(
                self._frame(jobs=[{"trace": "no-such-trace"}]), TRACES
            )

    def test_empty_jobs_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_submit(self._frame(jobs=[]), TRACES)

    def test_non_bool_wait_rejected(self):
        with pytest.raises(ProtocolError, match="wait"):
            parse_submit(self._frame(wait="yes"), TRACES)

    def test_unknown_job_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job field"):
            parse_submit(
                self._frame(jobs=[{"trace": "sjeng.1", "preset": "test"}]),
                TRACES,
            )

    def test_too_many_jobs_rejected(self):
        jobs = [{"trace": "sjeng.1"}] * (MAX_JOBS_PER_SUBMIT + 1)
        with pytest.raises(ProtocolError, match="per-request limit"):
            parse_submit(self._frame(jobs=jobs), TRACES)

    def test_job_wire_roundtrip(self):
        request = parse_submit(
            self._frame(
                jobs=[{"trace": "mcf.1", "machine": {"arch": "uncompressed"}}]
            ),
            TRACES,
        )
        wire = request.jobs[0].to_wire()
        assert wire["trace"] == "mcf.1"
        assert json.loads(json.dumps(wire)) == wire  # JSON-serialisable
        reparsed = protocol.parse_job(wire, TRACES)
        assert reparsed == request.jobs[0]
