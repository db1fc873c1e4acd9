"""Wire protocol for the ``repro serve`` experiment service.

The protocol is newline-delimited JSON ("NDJSON"): every frame is one
JSON object on one line, UTF-8 encoded, at most :data:`MAX_FRAME_BYTES`
long.  It is deliberately version-stamped and tiny — two request kinds
and a handful of event kinds — so clients in any language can speak it
with a socket and a JSON parser.

Client -> server requests (``op`` field):

* ``{"op": "hello", "version": <int>}`` — the handshake.  The server
  answers a :data:`PROTOCOL_VERSION` hello with a ``hello`` event and
  rejects any other version with reason ``version-unsupported``;
  ``submit`` and ``status`` need no handshake.
* ``{"op": "submit", "id": <str>, "jobs": [<job>...], "wait": <bool>}``
  — submit one or more (machine, trace) jobs; a *sweep* is simply a
  submit with many jobs.  Each ``<job>`` is ``{"trace": <name>,
  "machine": {<machine fields>}}`` where the machine fields mirror the
  CLI flags (``arch``, ``ways``, ``sets_mult``, ``policy``,
  ``victim_policy``) and every field is optional.  With ``wait`` true
  the server streams ``progress``/``result`` events and a final
  ``done``; with ``wait`` false only the admission verdict
  (``accepted``/``rejected``) is sent and the jobs run detached.
* ``{"op": "lease", "id": <str>, "jobs": [<job>...]}`` — a batch lease
  (used by the ``repro dispatch`` coordinator): like a waiting submit,
  but acknowledged with a ``leased`` event and terminated by
  ``lease-done``, and only accepted after a ``hello`` handshake on the
  same connection.
* ``{"op": "status"}`` — one ``status`` event with the live ``serve/*``
  counters, queue depth and drain state.
* ``{"op": "ping", "id": <str>}`` — a liveness heartbeat (used by the
  ``repro dispatch`` coordinator mid-lease).  The server answers with a
  ``pong`` event echoing the id; a worker whose event loop is hung or
  partitioned answers nothing, which is exactly the signal the
  coordinator's heartbeat deadline detects.  Requires a ``hello``
  handshake on the connection.

Server -> client events (``event`` field): ``hello``, ``accepted``,
``leased``, ``rejected`` (structured: ``reason`` is one of
:data:`REJECT_REASONS`), ``progress``, ``result``, ``failed``, ``done``,
``lease-done``, ``status``, ``pong`` and ``error`` (protocol violation;
the connection closes after it).

The full wire format, with one validated JSON example per message type,
is specified in ``PROTOCOL.md`` at the repository root; the docs gate
(``tools/check_architecture_docs.py``) parses every example in that file
back through this module so the spec cannot drift from the code.

Validation in this module is *structural and eager*: a malformed frame,
an oversized payload, an unknown trace or an invalid machine
configuration is rejected with a :class:`ProtocolError` before any
simulation state is touched, mirroring the eager
``MachineConfig.validate()`` contract the CLI already enforces.

The names both ends resolve before the first frame also live here: the
socket address (:data:`SOCKET_ENV`, :func:`default_socket_path`,
:func:`parse_tcp`) and the admission defaults the CLI shows.  The
client, the dispatch worker and ``repro --help`` import them from this
module, so only the server process loads asyncio.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.sim.config import MachineConfig, MachineConfigError
from repro.sim.experiment import default_cache_dir

#: The one protocol version the server speaks: the only ``hello``
#: version it accepts, echoed in ``hello``/``accepted``/``status`` events.
PROTOCOL_VERSION = 3

#: Hard ceiling on one frame's encoded size (request or event).  Result
#: events carry full serialised run results (a few KB each), so 1 MiB
#: leaves two orders of magnitude of headroom while still bounding what
#: a hostile or buggy client can make the server buffer.
MAX_FRAME_BYTES = 1 << 20

#: Hard ceiling on jobs in one submit frame (admission control proper —
#: queue capacity and quotas — happens in the scheduler; this bound just
#: keeps a single frame parseable and the reject message honest).
MAX_JOBS_PER_SUBMIT = 4096

#: Default admission-control bounds of a server's scheduler
#: (``repro serve --max-queue`` / ``--client-quota``).
DEFAULT_MAX_QUEUE = 1024
DEFAULT_CLIENT_QUOTA = 256

#: Environment variable overriding the default unix socket path.
SOCKET_ENV = "REPRO_SERVE_SOCKET"

#: Default socket file name (sibling of the result cache it fronts).
SOCKET_FILE_NAME = "serve.sock"

#: Structured reasons a ``rejected`` event may carry.
REJECT_QUEUE_FULL = "queue-full"
REJECT_QUOTA = "quota-exceeded"
REJECT_DRAINING = "draining"
REJECT_INVALID = "invalid-job"
REJECT_VERSION = "version-unsupported"
REJECT_REASONS = (
    REJECT_QUEUE_FULL,
    REJECT_QUOTA,
    REJECT_DRAINING,
    REJECT_INVALID,
    REJECT_VERSION,
)

#: Every request ``op`` a server understands.
REQUEST_OPS = ("hello", "submit", "lease", "status", "ping")

#: Every ``event`` kind a server may emit.
EVENT_KINDS = (
    "hello",
    "accepted",
    "leased",
    "rejected",
    "progress",
    "result",
    "failed",
    "done",
    "lease-done",
    "status",
    "pong",
    "error",
)

#: Machine-spec wire fields -> the ``MachineConfig`` attribute each maps
#: to.  The wire names mirror the CLI flags, not the dataclass, so the
#: protocol stays stable if the dataclass grows internal fields.
_MACHINE_FIELDS = {
    "arch": "arch",
    "ways": "llc_ways",
    "sets_mult": "llc_sets_mult",
    "policy": "policy",
    "victim_policy": "victim_policy",
}


class ProtocolError(ValueError):
    """A frame violated the serve wire protocol (shape, size or content)."""


class ServeError(RuntimeError):
    """A startup or shutdown failure with a clean one-line message."""


def default_socket_path(cache_dir: Path | None = None) -> Path:
    """Resolve the unix socket path: ``$REPRO_SERVE_SOCKET`` or cache dir."""
    override = os.environ.get(SOCKET_ENV)
    if override:
        return Path(override)
    return (cache_dir or default_cache_dir()) / SOCKET_FILE_NAME


def parse_tcp(spec: str) -> tuple[str, int]:
    """Parse a ``host:port`` TCP spec (IPv6 hosts may be bracketed)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ServeError(f"--tcp needs host:port, got {spec!r}")
    try:
        return host.strip("[]"), int(port)
    except ValueError:
        raise ServeError(f"--tcp port must be an integer, got {port!r}") from None


def encode_frame(payload: dict) -> bytes:
    """Encode one protocol frame: canonical JSON + ``\\n``, size-checked.

    Keys are sorted so frames are byte-deterministic for a given
    payload — the same canonicalisation the result cache uses.
    """
    data = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    return data


def decode_frame(data: bytes | str) -> dict:
    """Decode and structurally validate one received frame.

    Raises :class:`ProtocolError` for oversized, non-UTF-8, non-JSON or
    non-object frames — every way a confused or hostile peer can send
    us a line we must not act on.
    """
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(raw)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte protocol limit"
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("frame is not valid UTF-8") from None
    text = text.strip()
    if not text:
        raise ProtocolError("empty frame")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class JobSpec:
    """One validated (machine, trace) job from a submit frame."""

    trace: str
    machine: MachineConfig

    def to_wire(self) -> dict:
        """The job's wire form (inverse of :func:`parse_job`)."""
        return {"trace": self.trace, "machine": machine_to_wire(self.machine)}


def machine_to_wire(machine: MachineConfig) -> dict:
    """Wire machine-spec dict for a :class:`MachineConfig`."""
    return {
        wire: getattr(machine, attr) for wire, attr in _MACHINE_FIELDS.items()
    }


def parse_machine(spec: object) -> MachineConfig:
    """Build a validated :class:`MachineConfig` from a wire machine spec.

    Unknown fields are rejected (a typo'd field silently meaning "the
    default" would make two clients disagree about what they ran), and
    the config is eagerly validated so a bad ``policy`` fails at the
    protocol boundary, not inside a worker process.
    """
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ProtocolError(
            f"machine spec must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - set(_MACHINE_FIELDS))
    if unknown:
        raise ProtocolError(
            f"unknown machine field(s): {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_MACHINE_FIELDS))}"
        )
    kwargs: dict = {}
    for wire, attr in _MACHINE_FIELDS.items():
        if wire not in spec:
            continue
        value = spec[wire]
        if wire == "ways":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"machine field {wire!r} must be an integer")
        elif wire == "sets_mult":
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ProtocolError(f"machine field {wire!r} must be a number")
            value = float(value)
        elif not isinstance(value, str):
            raise ProtocolError(f"machine field {wire!r} must be a string")
        kwargs[attr] = value
    # The submit defaults mirror `repro run`: Base-Victim on the 2MB
    # baseline geometry.
    kwargs.setdefault("arch", "base-victim")
    try:
        return MachineConfig(**kwargs).validate()
    except MachineConfigError as exc:
        raise ProtocolError(str(exc)) from None


def parse_job(job: object, known_traces: frozenset[str]) -> JobSpec:
    """Validate one job entry from a submit frame."""
    if not isinstance(job, dict):
        raise ProtocolError(
            f"job must be a JSON object, got {type(job).__name__}"
        )
    unknown = sorted(set(job) - {"trace", "machine"})
    if unknown:
        raise ProtocolError(f"unknown job field(s): {', '.join(unknown)}")
    trace = job.get("trace")
    if not isinstance(trace, str) or not trace:
        raise ProtocolError("job is missing a 'trace' name")
    if trace not in known_traces:
        raise ProtocolError(f"unknown trace {trace!r}")
    return JobSpec(trace=trace, machine=parse_machine(job.get("machine")))


@dataclass(frozen=True)
class HelloRequest:
    """One validated ``hello`` (handshake) frame."""

    version: int


def parse_hello(frame: dict) -> HelloRequest:
    """Validate a ``hello`` frame into a :class:`HelloRequest`.

    Structural validation only — whether the *value* is a version the
    server speaks is an admission decision (a ``version-unsupported``
    reject), not a protocol violation, so the connection survives it.
    """
    unknown = sorted(set(frame) - {"op", "version"})
    if unknown:
        raise ProtocolError(f"unknown hello field(s): {', '.join(unknown)}")
    version = frame.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError("hello frame needs an integer 'version'")
    return HelloRequest(version=version)


@dataclass(frozen=True)
class PingRequest:
    """One validated ``ping`` (liveness heartbeat) frame."""

    ping_id: str


def parse_ping(frame: dict) -> PingRequest:
    """Validate a ``ping`` frame into a :class:`PingRequest`.

    The ``id`` is optional (an empty id still gets its ``pong``); when
    present it must be a string, and is echoed back so a client
    interleaving pings with lease traffic can correlate answers.
    """
    unknown = sorted(set(frame) - {"op", "id"})
    if unknown:
        raise ProtocolError(f"unknown ping field(s): {', '.join(unknown)}")
    ping_id = frame.get("id", "")
    if not isinstance(ping_id, str):
        raise ProtocolError("ping field 'id' must be a string")
    return PingRequest(ping_id=ping_id)


@dataclass(frozen=True)
class SubmitRequest:
    """One validated submit frame."""

    request_id: str
    jobs: tuple[JobSpec, ...]
    wait: bool


def parse_submit(frame: dict, known_traces: frozenset[str]) -> SubmitRequest:
    """Validate a ``submit`` frame into a :class:`SubmitRequest`."""
    request_id = frame.get("id", "")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("submit frame is missing a string 'id'")
    wait = frame.get("wait", True)
    if not isinstance(wait, bool):
        raise ProtocolError("submit field 'wait' must be a boolean")
    jobs = frame.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError("submit frame needs a non-empty 'jobs' list")
    if len(jobs) > MAX_JOBS_PER_SUBMIT:
        raise ProtocolError(
            f"submit of {len(jobs)} jobs exceeds the per-request limit "
            f"of {MAX_JOBS_PER_SUBMIT}"
        )
    return SubmitRequest(
        request_id=request_id,
        jobs=tuple(parse_job(job, known_traces) for job in jobs),
        wait=wait,
    )


@dataclass(frozen=True)
class LeaseRequest:
    """One validated batch-lease frame.

    A lease is a waiting submit with coordinator semantics: the server
    acknowledges it with ``leased`` instead of ``accepted``, always
    streams results, and terminates the stream with ``lease-done`` so
    the coordinator can tell a completed lease from a severed one.
    """

    lease_id: str
    jobs: tuple[JobSpec, ...]


def parse_lease(frame: dict, known_traces: frozenset[str]) -> LeaseRequest:
    """Validate a ``lease`` frame into a :class:`LeaseRequest`."""
    unknown = sorted(set(frame) - {"op", "id", "jobs"})
    if unknown:
        raise ProtocolError(f"unknown lease field(s): {', '.join(unknown)}")
    lease_id = frame.get("id", "")
    if not isinstance(lease_id, str) or not lease_id:
        raise ProtocolError("lease frame is missing a string 'id'")
    jobs = frame.get("jobs")
    if not isinstance(jobs, list) or not jobs:
        raise ProtocolError("lease frame needs a non-empty 'jobs' list")
    if len(jobs) > MAX_JOBS_PER_SUBMIT:
        raise ProtocolError(
            f"lease of {len(jobs)} jobs exceeds the per-request limit "
            f"of {MAX_JOBS_PER_SUBMIT}"
        )
    return LeaseRequest(
        lease_id=lease_id,
        jobs=tuple(parse_job(job, known_traces) for job in jobs),
    )
