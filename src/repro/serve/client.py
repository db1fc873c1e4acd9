"""Blocking client for the serve protocol (``repro submit`` / ``serve-status``).

The server side is asyncio because it multiplexes many clients; the
client side is a plain blocking socket because each CLI invocation is
one conversation.  The module owns address resolution (unix socket
path from ``--socket`` / ``$REPRO_SERVE_SOCKET`` / the cache directory,
or ``--tcp host:port``), connection-failure translation into clean
one-line :class:`ServeClientError` messages (the CLI maps them to exit
code 2 — never a traceback), and the event-stream iteration both
subcommands share.
"""

from __future__ import annotations

import socket as socketlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.serve import protocol
from repro.serve.protocol import SOCKET_ENV, default_socket_path, parse_tcp
from repro.sim.experiment import default_cache_dir


class ServeClientError(Exception):
    """A connection or conversation failure with a clean one-line message."""


class ServeTimeout(ServeClientError):
    """A read hit the socket timeout — the peer may be slow, hung or gone.

    A subclass (not a sibling) of :class:`ServeClientError` so existing
    callers that treat any conversation failure as fatal keep working;
    the dispatch coordinator catches it *first* to drive heartbeats
    instead of declaring the worker lost on the spot.
    """


@dataclass(frozen=True)
class Address:
    """Where a server lives: a unix socket path or a TCP endpoint."""

    path: Path | None = None
    host: str | None = None
    port: int | None = None

    @classmethod
    def from_args(cls, socket_arg: str | None, tcp_arg: str | None) -> "Address":
        """Resolve ``--socket``/``--tcp`` flags (and their env fallbacks)."""
        if tcp_arg:
            host, port = parse_tcp(tcp_arg)
            return cls(host=host, port=port)
        if socket_arg:
            return cls(path=Path(socket_arg))
        return cls(path=default_socket_path(default_cache_dir()))

    def describe(self) -> str:
        """Human-readable endpoint for error messages."""
        if self.path is not None:
            return str(self.path)
        return f"tcp://{self.host}:{self.port}"


def _connect(address: Address, timeout: float | None) -> socketlib.socket:
    """Open the transport, translating failures into clean messages."""
    if address.path is not None:
        sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(str(address.path))
        except FileNotFoundError:
            sock.close()
            raise ServeClientError(
                f"no server socket at {address.path} — is `repro serve` "
                f"running? (path comes from --socket, ${SOCKET_ENV}, or the "
                "cache directory)"
            ) from None
        except ConnectionRefusedError:
            sock.close()
            raise ServeClientError(
                f"stale socket at {address.path}: no server is listening "
                "(restart `repro serve`; it reclaims the stale file)"
            ) from None
        except OSError as exc:
            sock.close()
            raise ServeClientError(
                f"cannot connect to {address.path}: {exc.strerror or exc}"
            ) from None
        return sock
    try:
        return socketlib.create_connection(
            (address.host, address.port), timeout=timeout
        )
    except ConnectionRefusedError:
        raise ServeClientError(
            f"connection refused by {address.describe()} — is `repro serve "
            "--tcp` running?"
        ) from None
    except OSError as exc:
        raise ServeClientError(
            f"cannot connect to {address.describe()}: {exc.strerror or exc}"
        ) from None


class ServeClient:
    """One blocking conversation with a serve endpoint.

    Usable as a context manager::

        with ServeClient(address) as client:
            client.request({"op": "status"})
            status = client.next_event()
    """

    def __init__(self, address: Address, timeout: float | None = None) -> None:
        self.address = address
        self._sock = _connect(address, timeout)
        # Hand-rolled line buffering instead of ``makefile``: a file
        # object wrapped around a socket becomes permanently unusable
        # after one timeout ("cannot read from timed out object"), and
        # the heartbeat loop *lives* on timed-out reads.  ``recv`` that
        # times out transfers nothing, so the buffer — including any
        # half-received frame — survives intact across timeouts.
        self._buffer = bytearray()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the transport (idempotent)."""
        self._sock.close()

    def settimeout(self, timeout: float | None) -> None:
        """Adjust the read timeout mid-conversation (heartbeat pacing)."""
        self._sock.settimeout(timeout)

    def _readline(self, limit: int) -> bytes:
        """One ``\\n``-terminated line from the socket; ``b""`` on EOF.

        Raises ``socket.timeout`` when the socket deadline expires with
        the line incomplete — already-buffered bytes are kept for the
        next call.  An over-``limit`` or EOF-truncated line is returned
        as-is; frame decoding rejects it downstream.
        """
        while True:
            newline = self._buffer.find(b"\n")
            if newline != -1:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            if len(self._buffer) > limit:
                line = bytes(self._buffer)
                self._buffer.clear()
                return line
            chunk = self._sock.recv(65536)
            if not chunk:
                line = bytes(self._buffer)
                self._buffer.clear()
                return line
            self._buffer.extend(chunk)

    def handshake(self) -> dict:
        """Say ``hello`` with :data:`~repro.serve.protocol.PROTOCOL_VERSION`.

        Returns the ``hello`` event.  Raises :class:`ServeClientError` if
        the server rejects the version (or answers with anything but a
        ``hello``) — callers that lease or ping must handshake first.
        """
        version = protocol.PROTOCOL_VERSION
        self.request({"op": "hello", "version": version})
        event = self.next_event()
        if event.get("event") != "hello":
            raise ServeClientError(
                f"{self.address.describe()} refused protocol version "
                f"{version}: {event.get('detail') or event.get('reason')}"
            )
        return event

    def request(self, payload: dict) -> None:
        """Send one request frame."""
        try:
            self._sock.sendall(protocol.encode_frame(payload))
        except OSError as exc:
            raise ServeClientError(
                f"lost connection to {self.address.describe()}: "
                f"{exc.strerror or exc}"
            ) from None

    def poll_event(self) -> dict | None:
        """Read one server event; ``None`` on a clean end of stream.

        Raises :class:`ServeTimeout` when the socket timeout expires
        with no frame — the heartbeat caller's cue to ping — and
        :class:`ServeClientError` for every terminal failure.
        """
        try:
            line = self._readline(protocol.MAX_FRAME_BYTES + 1024)
        except socketlib.timeout:
            raise ServeTimeout(
                f"timed out waiting for {self.address.describe()}"
            ) from None
        except OSError as exc:
            raise ServeClientError(
                f"lost connection to {self.address.describe()}: "
                f"{exc.strerror or exc}"
            ) from None
        if not line:
            return None
        try:
            return protocol.decode_frame(line)
        except protocol.ProtocolError as exc:
            raise ServeClientError(
                f"garbled event from {self.address.describe()}: {exc}"
            ) from None

    def events(self) -> Iterator[dict]:
        """Yield server events until the server closes the stream."""
        while True:
            event = self.poll_event()
            if event is None:
                return
            yield event

    def next_event(self) -> dict:
        """The next server event; raises if the stream ends first."""
        for event in self.events():
            return event
        raise ServeClientError(
            f"{self.address.describe()} closed the connection before replying"
        )
