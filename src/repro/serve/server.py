"""Asyncio front end of the ``repro serve`` experiment service.

One server process owns one preset, one result cache and one
:class:`~repro.serve.scheduler.JobScheduler`, and speaks the
newline-delimited JSON protocol of :mod:`repro.serve.protocol` to any
number of concurrent clients — over a unix socket by default (the
cache-directory sibling ``serve.sock``), or TCP with ``--tcp``.

Operational contracts:

* **Stale-socket reclaim** — a socket file left by a killed server is
  detected on startup (nothing accepts on it) and removed; a *live*
  server on the same path is a clean one-line startup error, never a
  clobber.
* **Graceful drain** — ``SIGTERM``/``SIGINT`` stop admission (new
  submissions get a structured ``draining`` reject), let queued and
  running jobs finish, flush every client's event stream, write the
  final ``serve-stats.json`` snapshot, remove the socket and exit 0.
* **Per-client isolation** — each connection gets its own outbound
  event queue; a slow or dead client never blocks the scheduler, and a
  mid-stream disconnect simply detaches its submissions (the jobs keep
  running — their results still warm the shared cache).
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket as socketlib
import sys
from pathlib import Path

from repro.serve import protocol
from repro.serve.protocol import ServeError, default_socket_path
from repro.serve.scheduler import JobScheduler, SubmitRejected
from repro.sim.config import PRESETS
from repro.sim.experiment import ExperimentRunner, default_cache_dir
from repro.workloads.suite import all_specs

#: Line printed (stdout, flushed) once the server accepts connections;
#: tests and CI scripts wait for it.
READY_PREFIX = "repro serve: listening on "

#: Stream limit for readline: one max-size frame plus slack.
_STREAM_LIMIT = protocol.MAX_FRAME_BYTES + 1024

#: Grace period for clients to read their final events at shutdown.
_SHUTDOWN_GRACE = 5.0


def reclaim_stale_socket(path: Path) -> bool:
    """Remove a dead server's socket file; returns True if one was removed.

    A unix socket file does not disappear with its process, so a killed
    server leaves a path that ``bind`` refuses.  Probing with a connect
    distinguishes the two cases: a live server accepts (startup must
    fail cleanly), a stale file refuses (safe to unlink and rebind).
    """
    if not path.exists():
        return False
    probe = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    probe.settimeout(1.0)
    try:
        probe.connect(str(path))
    except (ConnectionRefusedError, FileNotFoundError, OSError):
        path.unlink(missing_ok=True)
        return True
    else:
        raise ServeError(
            f"a server is already listening on {path} "
            "(stop it or pass a different --socket)"
        )
    finally:
        probe.close()


class _Connection:
    """One client connection: reader state plus a buffered event stream."""

    def __init__(
        self, name: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        #: Whether a ``hello`` handshake succeeded on this connection
        #: (``lease`` and ``ping`` need one; ``submit`` and ``status`` do not).
        self.said_hello = False
        self._events: asyncio.Queue = asyncio.Queue()
        self._finished = False

    def emit(self, event: dict) -> None:
        """Queue one event for delivery (never blocks the scheduler)."""
        if not self._finished:
            self._events.put_nowait(event)

    def finish(self) -> None:
        """Flush queued events, then stop the pump."""
        if not self._finished:
            self._finished = True
            self._events.put_nowait(None)

    async def pump(self) -> None:
        """Writer task: serialise queued events onto the socket in order."""
        while True:
            event = await self._events.get()
            if event is None:
                return
            try:
                self.writer.write(protocol.encode_frame(event))
                await self.writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError):
                return  # client went away; reader side will detach


class ExperimentServer:
    """The ``repro serve`` process: socket front end over a scheduler."""

    def __init__(
        self,
        preset_name: str,
        *,
        socket_path: Path | None = None,
        tcp: tuple[str, int] | None = None,
        jobs: int | None = None,
        retries: int | None = None,
        job_timeout: float | None = None,
        lock_timeout: float | None = None,
        max_queue: int | None = None,
        client_quota: int | None = None,
        cache_dir: Path | None = None,
        worker: bool = False,
    ) -> None:
        self.preset = PRESETS[preset_name]
        self.cache_dir = cache_dir or default_cache_dir()
        # Worker mode (``repro serve --worker``): the server is a
        # dispatch-fleet member, so one coordinator connection may hold
        # leases for the entire queue — the per-client quota widens to
        # the queue bound instead of throttling our only client.
        self.worker = worker
        if worker:
            max_queue = max_queue if max_queue is not None else 1024
            client_quota = max(client_quota or 0, max_queue)
        self.tcp = tcp
        self.socket_path = (
            None if tcp else (socket_path or default_socket_path(self.cache_dir))
        )
        self.runner = ExperimentRunner(
            self.preset,
            cache_dir=self.cache_dir,
            jobs=jobs,
            progress=self._progress_from_worker,
            retries=retries,
            job_timeout=job_timeout,
            strict=False,
            lock_timeout=lock_timeout,
        )
        self.scheduler = JobScheduler(
            self.runner,
            max_queue=max_queue if max_queue is not None else 1024,
            client_quota=client_quota if client_quota is not None else 256,
        )
        self.scheduler.on_batch_done = self._write_stats
        self._known_traces = frozenset(spec.name for spec in all_specs())
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[_Connection] = set()
        self._handler_tasks: set[asyncio.Task] = set()
        self._next_client = 0
        self._draining = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self) -> int:
        """Serve until a drain signal, then shut down cleanly; returns 0."""
        self._loop = asyncio.get_running_loop()
        if self.tcp is not None:
            host, port = self.tcp
            server = await asyncio.start_server(
                self._handle_client, host=host, port=port, limit=_STREAM_LIMIT
            )
            where = f"tcp://{host}:{port}"
        else:
            assert self.socket_path is not None
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            if reclaim_stale_socket(self.socket_path):
                print(
                    f"repro serve: reclaimed stale socket {self.socket_path}",
                    file=sys.stderr,
                )
            server = await asyncio.start_unix_server(
                self._handle_client, path=str(self.socket_path), limit=_STREAM_LIMIT
            )
            where = str(self.socket_path)
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self._request_drain, signum)
        scheduler_task = asyncio.ensure_future(self.scheduler.run())
        self._write_stats()
        print(f"{READY_PREFIX}{where}", flush=True)
        try:
            # The scheduler task completes only after drain() has been
            # requested and every queued/running job has resolved.
            await scheduler_task
        finally:
            server.close()
            await server.wait_closed()
            await self._close_clients()
            self._write_stats(final=True)
            if self.socket_path is not None:
                self.socket_path.unlink(missing_ok=True)
        return 0

    def _request_drain(self, signum: int) -> None:
        """Signal handler: begin the graceful drain exactly once."""
        if self._draining:
            return
        self._draining = True
        name = signal.Signals(signum).name
        print(
            f"repro serve: {name} received — draining "
            f"({self.scheduler.inflight_jobs} job(s) in flight)",
            file=sys.stderr,
            flush=True,
        )
        self.scheduler.drain()

    async def _close_clients(self) -> None:
        """Flush every connection's events, then close the transports."""
        for conn in list(self._connections):
            conn.finish()
        if self._handler_tasks:
            _, pending = await asyncio.wait(
                self._handler_tasks, timeout=_SHUTDOWN_GRACE
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)

    def _write_stats(self, final: bool = False) -> None:
        """Snapshot counters to ``serve-stats.json`` (atomic replace)."""
        self.runner.registry.write_snapshot(
            self.cache_dir,
            "serve",
            pid=os.getpid(),
            preset=self.preset.name,
            worker=self.worker,
            protocol=protocol.PROTOCOL_VERSION,
            address=str(self.socket_path)
            if self.socket_path is not None
            else f"tcp://{self.tcp[0]}:{self.tcp[1]}",
            draining=self.scheduler.draining,
            final=final,
            queue_depth=self.scheduler.queue_depth,
            inflight_jobs=self.scheduler.inflight_jobs,
        )

    def _progress_from_worker(self, done: int, total: int, key: str) -> None:
        """Runner progress callback (executor thread) -> loop thread."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(
                self.scheduler.on_progress, done, total, key
            )

    # ------------------------------------------------------------------
    # Per-connection protocol handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one client connection until EOF, error or shutdown."""
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._next_client += 1
        conn = _Connection(f"client-{self._next_client}", reader, writer)
        self._connections.add(conn)
        self.runner.registry.inc("serve/clients_connected")
        pump = asyncio.ensure_future(conn.pump())
        try:
            await self._read_requests(conn)
        finally:
            self.scheduler.detach(conn.name)
            conn.finish()
            await pump
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self._connections.discard(conn)
            self.runner.registry.inc("serve/clients_disconnected")

    async def _read_requests(self, conn: _Connection) -> None:
        """The request loop for one connection.

        A protocol violation emits one ``error`` event and ends the
        connection; admission failures emit structured ``rejected``
        events and the connection lives on.
        """
        while True:
            try:
                line = await conn.reader.readline()
            except (
                asyncio.LimitOverrunError,
                ValueError,
            ):  # frame longer than the stream limit
                self._protocol_error(
                    conn,
                    f"frame exceeds the {protocol.MAX_FRAME_BYTES}-byte limit",
                )
                return
            except (ConnectionResetError, BrokenPipeError, OSError):
                return  # mid-stream disconnect: detach handled by caller
            if not line:
                return  # clean EOF
            try:
                frame = protocol.decode_frame(line)
                self._dispatch(conn, frame)
            except protocol.ProtocolError as exc:
                self._protocol_error(conn, str(exc))
                return

    def _dispatch(self, conn: _Connection, frame: dict) -> None:
        """Route one validated frame to its handler."""
        op = frame.get("op")
        if op == "status":
            status = self.scheduler.status()
            status["worker"] = self.worker
            conn.emit(status)
        elif op == "hello":
            self._handle_hello(conn, frame)
        elif op == "submit":
            request = protocol.parse_submit(frame, self._known_traces)
            try:
                self.scheduler.submit(conn.name, request, conn.emit)
            except SubmitRejected as rejected:
                self._emit_rejected(conn, request.request_id, rejected)
        elif op == "lease":
            self._handle_lease(conn, frame)
        elif op == "ping":
            self._handle_ping(conn, frame)
        else:
            raise protocol.ProtocolError(
                f"unknown op {op!r}; expected one of "
                f"{', '.join(protocol.REQUEST_OPS)}"
            )

    def _handle_hello(self, conn: _Connection, frame: dict) -> None:
        """The handshake: accept exactly ``protocol.PROTOCOL_VERSION``.

        Any other version is an admission reject (the connection stays
        open and may say ``hello`` again), never a connection-closing
        protocol error.
        """
        request = protocol.parse_hello(frame)
        if request.version != protocol.PROTOCOL_VERSION:
            self.runner.registry.inc("serve/version_rejected")
            conn.emit(
                {
                    "event": "rejected",
                    "reason": protocol.REJECT_VERSION,
                    "detail": (
                        f"protocol version {request.version} is not supported; "
                        f"this server speaks version {protocol.PROTOCOL_VERSION}"
                    ),
                }
            )
            return
        conn.said_hello = True
        conn.emit(
            {
                "event": "hello",
                "protocol": protocol.PROTOCOL_VERSION,
                "preset": self.preset.name,
                "worker": self.worker,
                "pid": os.getpid(),
            }
        )

    def _rejected_without_hello(
        self, conn: _Connection, request_id: str, op: str
    ) -> bool:
        """Reject ``op`` (and return True) unless the connection said ``hello``."""
        if conn.said_hello:
            return False
        self.runner.registry.inc("serve/version_rejected")
        conn.emit(
            {
                "event": "rejected",
                "id": request_id,
                "reason": protocol.REJECT_VERSION,
                "detail": f"{op} requires a hello handshake on this connection",
            }
        )
        return True

    def _handle_ping(self, conn: _Connection, frame: dict) -> None:
        """Answer one liveness heartbeat with a ``pong``.

        The answer is emitted through the connection's ordinary event
        queue, interleaving with any in-flight lease stream — a worker
        that still pongs has a live event loop even while its batch
        executor grinds, which is precisely the liveness signal the
        dispatch coordinator's heartbeat deadline wants.
        """
        request = protocol.parse_ping(frame)
        if self._rejected_without_hello(conn, request.ping_id, "ping"):
            return
        self.runner.registry.inc("serve/pings")
        conn.emit({"event": "pong", "id": request.ping_id, "pid": os.getpid()})

    def _handle_lease(self, conn: _Connection, frame: dict) -> None:
        """Grant one batch lease: a waiting submit with lease framing."""
        request = protocol.parse_lease(frame, self._known_traces)
        if self._rejected_without_hello(conn, request.lease_id, "lease"):
            return

        def lease_emit(event: dict) -> None:
            kind = event.get("event")
            if kind == "accepted":
                event = {**event, "event": "leased"}
            elif kind == "done":
                event = {**event, "event": "lease-done"}
            conn.emit(event)

        submit = protocol.SubmitRequest(
            request_id=request.lease_id, jobs=request.jobs, wait=True
        )
        try:
            self.scheduler.submit(conn.name, submit, lease_emit)
        except SubmitRejected as rejected:
            self._emit_rejected(conn, request.lease_id, rejected)
            return
        self.runner.registry.inc("serve/leases_granted")
        self.runner.registry.inc("serve/lease_jobs", len(request.jobs))

    @staticmethod
    def _emit_rejected(
        conn: _Connection, request_id: str, rejected: SubmitRejected
    ) -> None:
        """Deliver one structured admission reject."""
        conn.emit(
            {
                "event": "rejected",
                "id": request_id,
                "reason": rejected.reason,
                "detail": rejected.detail,
            }
        )

    def _protocol_error(self, conn: _Connection, message: str) -> None:
        """Account and report one protocol violation."""
        self.runner.registry.inc("serve/protocol_errors")
        conn.emit({"event": "error", "message": message})
