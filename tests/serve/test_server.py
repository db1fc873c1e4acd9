"""In-process server tests: protocol errors, disconnects, stale sockets.

These run the real ExperimentServer inside the test's event loop and
talk to it over a real unix socket — but without subprocesses, so
failure modes (oversized frames, mid-stream disconnects) can be staged
byte by byte.
"""

from __future__ import annotations

import asyncio
import json
import socket as socketlib
import threading

import pytest

from repro.cli import main
from repro.serve.protocol import MAX_FRAME_BYTES, ServeError, encode_frame, parse_tcp
from repro.serve.scheduler import BATCH_DELAY_ENV
from repro.sim.config import BASE_VICTIM_2MB
from repro.serve.server import ExperimentServer, reclaim_stale_socket

TIMEOUT = 120.0


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=TIMEOUT))


class _Harness:
    """One live in-process server plus client plumbing."""

    def __init__(self, tmp_path):
        self.socket_path = tmp_path / "serve.sock"
        self.server = ExperimentServer(
            "test",
            socket_path=self.socket_path,
            cache_dir=tmp_path / "cache",
            jobs=1,
        )
        self._task: asyncio.Task | None = None

    async def __aenter__(self):
        self._task = asyncio.create_task(self.server.run())
        while not self.socket_path.exists():
            await asyncio.sleep(0.01)
        return self

    async def __aexit__(self, *exc_info):
        self.server.scheduler.drain()
        assert await self._task == 0

    async def connect(self):
        return await asyncio.open_unix_connection(
            str(self.socket_path), limit=MAX_FRAME_BYTES + 4096
        )

    async def send(self, writer, raw: bytes):
        writer.write(raw)
        await writer.drain()

    async def event(self, reader) -> dict:
        line = await reader.readline()
        assert line, "server closed the stream before replying"
        return json.loads(line)


class TestProtocolViolations:
    def test_malformed_frame_gets_error_event_and_close(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(writer, b"{this is not json}\n")
                error = await h.event(reader)
                assert error["event"] == "error"
                assert "JSON" in error["message"]
                assert await reader.readline() == b""  # connection closed
                writer.close()
                # The server survives: a fresh connection still works.
                reader2, writer2 = await h.connect()
                await h.send(writer2, b'{"op": "status"}\n')
                status = await h.event(reader2)
                assert status["event"] == "status"
                writer2.close()
                counters = status["counters"]
                assert counters["serve/protocol_errors"] == 1

        _run(scenario())

    def test_oversized_frame_gets_error_event(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(writer, b"x" * (MAX_FRAME_BYTES + 4096))
                error = await h.event(reader)
                assert error["event"] == "error"
                assert "limit" in error["message"]
                writer.close()

        _run(scenario())

    def test_unknown_op_gets_error_event(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(writer, b'{"op": "dance"}\n')
                error = await h.event(reader)
                assert error["event"] == "error"
                assert "unknown op" in error["message"]
                writer.close()

        _run(scenario())

    def test_invalid_job_gets_error_event(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                frame = {
                    "op": "submit",
                    "id": "r1",
                    "jobs": [{"trace": "no-such-trace"}],
                }
                await h.send(writer, json.dumps(frame).encode() + b"\n")
                error = await h.event(reader)
                assert error["event"] == "error"
                assert "unknown trace" in error["message"]
                writer.close()

        _run(scenario())


class TestDisconnect:
    def test_mid_stream_disconnect_leaves_server_healthy(self, tmp_path):
        """A client that vanishes mid-submit detaches; its job still runs."""

        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                frame = {
                    "op": "submit",
                    "id": "r1",
                    "jobs": [{"trace": "sjeng.1"}],
                    "wait": True,
                }
                await h.send(writer, json.dumps(frame).encode() + b"\n")
                accepted = await h.event(reader)
                assert accepted["event"] == "accepted"
                writer.close()  # vanish before any result arrives

                # The server keeps serving other clients...
                reader2, writer2 = await h.connect()
                await h.send(writer2, b'{"op": "status"}\n')
                assert (await h.event(reader2))["event"] == "status"
                writer2.close()

                # ...and the orphaned job still completes into the cache.
                while not h.server.scheduler.idle:
                    await asyncio.sleep(0.05)
            key = h.server.runner.job_key(BASE_VICTIM_2MB, "sjeng.1")
            assert h.server.runner.cached_payload(key) is not None

        _run(scenario())


class TestHeartbeat:
    def test_ping_before_v3_handshake_is_rejected(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(writer, b'{"op": "ping", "id": "hb-0"}\n')
                rejected = await h.event(reader)
                assert rejected["event"] == "rejected"
                assert rejected["reason"] == "version-unsupported"
                assert rejected["id"] == "hb-0"
                assert "hello handshake" in rejected["detail"]
                # The reject is an admission decision, not a protocol
                # error — the connection survives and can handshake up.
                await h.send(writer, b'{"op": "hello", "version": 3}\n')
                assert (await h.event(reader))["event"] == "hello"
                await h.send(writer, b'{"op": "status"}\n')
                counters = (await h.event(reader))["counters"]
                assert counters["serve/version_rejected"] == 1
                writer.close()

        _run(scenario())

    def test_ping_after_v3_hello_pongs_with_echoed_id(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(writer, b'{"op": "hello", "version": 3}\n')
                hello = await h.event(reader)
                assert hello["event"] == "hello"
                assert hello["protocol"] == 3
                await h.send(writer, b'{"op": "ping", "id": "lease-1-hb-7"}\n')
                pong = await h.event(reader)
                assert pong["event"] == "pong"
                assert pong["id"] == "lease-1-hb-7"
                assert isinstance(pong["pid"], int)
                await h.send(writer, b'{"op": "status"}\n')
                counters = (await h.event(reader))["counters"]
                assert counters["serve/pings"] == 1
                writer.close()

        _run(scenario())

    @pytest.mark.parametrize("version", [1, 2, 4, 99])
    def test_unsupported_hello_falls_back_on_the_same_socket(
        self, tmp_path, version
    ):
        """Only version 3 is spoken; a reject leaves the stream usable."""

        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                await h.send(
                    writer, f'{{"op": "hello", "version": {version}}}\n'.encode()
                )
                rejected = await h.event(reader)
                assert rejected["event"] == "rejected"
                assert rejected["reason"] == "version-unsupported"
                assert f"version {version} is not supported" in rejected["detail"]
                await h.send(writer, b'{"op": "hello", "version": 3}\n')
                hello = await h.event(reader)
                assert hello["event"] == "hello"
                assert hello["protocol"] == 3
                writer.close()

        _run(scenario())

    def test_lease_before_handshake_is_rejected(self, tmp_path):
        async def scenario():
            async with _Harness(tmp_path) as h:
                reader, writer = await h.connect()
                lease = {
                    "op": "lease",
                    "id": "lease-1",
                    "jobs": [{"trace": "sjeng.1"}],
                }
                await h.send(writer, json.dumps(lease).encode() + b"\n")
                rejected = await h.event(reader)
                assert rejected["event"] == "rejected"
                assert rejected["reason"] == "version-unsupported"
                assert rejected["id"] == "lease-1"
                # The connection survives the reject.
                await h.send(writer, b'{"op": "status"}\n')
                status = await h.event(reader)
                assert status["event"] == "status"
                assert status["counters"]["serve/version_rejected"] == 1
                assert "serve/leases_granted" not in status["counters"]
                writer.close()

        _run(scenario())


class TestStaleSocket:
    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        listener.bind(str(path))
        listener.close()  # dead server: file remains, nothing accepts
        assert path.exists()
        assert reclaim_stale_socket(path) is True
        assert not path.exists()

    def test_missing_socket_is_a_noop(self, tmp_path):
        assert reclaim_stale_socket(tmp_path / "absent.sock") is False

    def test_live_server_is_never_clobbered(self, tmp_path):
        path = tmp_path / "live.sock"
        listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(1)
        try:
            with pytest.raises(ServeError, match="already listening"):
                reclaim_stale_socket(path)
            assert path.exists()
        finally:
            listener.close()


class _HangUpStub:
    """A unix-socket stub server: reads one request, sends ``events``, closes."""

    def __init__(self, path, events):
        self.listener = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        self.listener.bind(str(path))
        self.listener.listen(1)
        self.events = events
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as reader:
            reader.readline()
            for event in self.events:
                conn.sendall(encode_frame(event))

    def close(self):
        self.thread.join(timeout=TIMEOUT)
        self.listener.close()
        assert not self.thread.is_alive()


ACCEPTED = {
    "event": "accepted",
    "id": "stub",
    "jobs": 1,
    "cache_hits": 0,
    "deduped": 0,
    "enqueued": 1,
}


class TestSubmitToLostServer:
    """A stream that ends before the awaited event is a lost server: exit 2."""

    @pytest.mark.parametrize(
        "flags,events",
        [
            (["--wait"], [ACCEPTED]),
            (["--wait", "--json"], [ACCEPTED]),
            ([], []),
            (["--json"], []),
        ],
        ids=["wait", "wait-json", "no-accepted", "no-accepted-json"],
    )
    def test_hang_up_exits_2_with_one_line(self, tmp_path, capsys, flags, events):
        path = tmp_path / "stub.sock"
        stub = _HangUpStub(path, events)
        try:
            code = main(
                ["submit", "--socket", str(path), "--trace", "sjeng.1", *flags]
            )
        finally:
            stub.close()
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert len(errors) == 1
        awaited = "done" if "--wait" in flags else "accepted"
        assert errors[0].startswith("error: ")
        assert f"before '{awaited}'" in errors[0]


class TestMalformedBatchDelay:
    """``$REPRO_SERVE_BATCH_DELAY`` is parsed before the socket is bound."""

    def test_server_construction_rejects_non_number(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BATCH_DELAY_ENV, "abc")
        with pytest.raises(ValueError, match=BATCH_DELAY_ENV):
            ExperimentServer(
                "test", socket_path=tmp_path / "serve.sock", cache_dir=tmp_path
            )

    def test_repro_serve_exits_2_before_binding(self, tmp_path, capsys, monkeypatch):
        started = []

        async def run(self):
            started.append(self)
            return 0

        monkeypatch.setattr(ExperimentServer, "run", run)
        monkeypatch.setenv(BATCH_DELAY_ENV, "abc")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        path = tmp_path / "serve.sock"
        code = main(["serve", "--preset", "test", "--socket", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert not started
        assert not path.exists()
        assert err.count("\n") == 1
        assert err.startswith(f"error: ${BATCH_DELAY_ENV} must be a number")

    def test_numeric_delay_is_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv(BATCH_DELAY_ENV, "0.25")
        server = ExperimentServer(
            "test", socket_path=tmp_path / "serve.sock", cache_dir=tmp_path
        )
        assert server.scheduler.batch_delay == 0.25


class TestParseTcp:
    def test_valid_specs(self):
        assert parse_tcp("127.0.0.1:8123") == ("127.0.0.1", 8123)
        assert parse_tcp("[::1]:8123") == ("::1", 8123)

    @pytest.mark.parametrize("spec", ["8123", "host:", "host:abc", ":8123"])
    def test_invalid_specs(self, spec):
        with pytest.raises(ServeError):
            parse_tcp(spec)
