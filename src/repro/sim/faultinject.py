"""Deterministic fault injection for the sweep engine.

Proving the fault-tolerance layer works requires *causing* the faults it
defends against, on demand and reproducibly, in both pool workers and
the serial path.  This module is that switchboard: a compact spec in
``$REPRO_FAULTS`` arms faults against specific sweep job indices, and
the sweep engine calls the two hooks (:func:`before_attempt`,
:func:`after_cache_append`) at the right points.

Spec grammar — comma-separated ``kind:job_index:times`` triples::

    REPRO_FAULTS="fail:2:1,hang:0:1,crash:3:1,corrupt:1:1"

* ``fail``    — raise :class:`InjectedFault` on attempts 1..times of the
  job (``times`` large => permanent failure; exercises retry exhaustion).
* ``hang``    — sleep :data:`HANG_SECONDS` on attempts 1..times
  (exercises the per-job timeout watchdog; without a timeout the sweep
  hangs, exactly like a real wedged job).
* ``crash``   — hard-kill the worker process (``os._exit``) before the
  job runs (exercises pool rebuild, with the cells the dead pool had
  appended taken from the cache).
* ``corrupt`` — append a torn JSONL line to the cache right after a
  pool worker appends the job's result line, inside the same lock
  (exercises tolerant loading, the batch end's scrub and the
  corrupt-line accounting).
* ``torn-write`` — like ``corrupt``, but the line is CRC-suffixed and
  its checksum does not match its payload, simulating a write torn
  mid-line by a crash or a bit flipped at rest (exercises the v5
  checksum detection path, which must catch it *before* JSON parsing
  is even attempted).
* ``lock-holder-dies`` — hard-kill the process (``os._exit``) right
  after it acquires a cache lock, while still holding it (exercises
  kernel ``flock`` auto-release plus stale owner-metadata detection in
  :mod:`repro.sim.locking`).
* ``worker-lost`` — make the dispatch coordinator lose remote worker
  ``index`` mid-lease: :func:`dispatch_worker_lost` reports the fault
  armed, and the coordinator severs the connection (and kills the
  subprocess, for locally spawned workers) as if the host vanished
  (exercises worker health tracking and seeded-backoff reassignment in
  :mod:`repro.dist.coordinator`).
* ``remote-torn-merge`` — append a CRC-mismatched v5 line to the staged
  shard pulled back from worker ``index``, right before the coordinator
  folds it into the result cache, simulating a transfer torn mid-line
  (exercises the checksummed fold-in: the line must be rejected on its
  CRC and the entry recovered from the coordinator's in-memory copy).
* ``net-partition`` — sever the coordinator's connection to worker
  ``index`` *without* killing the process: the coordinator abandons the
  lease as if the network dropped, while the worker lives on and may
  keep computing into its own cache (exercises reassignment without the
  kill, and warm-cache answers on a later lease).
* ``slow-worker`` — stall worker ``index`` past the heartbeat deadline
  by ``SIGSTOP``-ing its process: the connection stays open, the kernel
  buffers writes, but no event — and no ``pong`` — ever arrives
  (exercises proactive heartbeat-deadline detection of a hung or
  partitioned worker, as opposed to loss-on-transport-error).
* ``coordinator-crash`` — hard-exit the coordinator (``os._exit``)
  right after its ``index``-th fold-in, leaving its staged shard
  directory behind (exercises ``repro dispatch --resume``'s salvage of
  that directory: only un-folded cells may recompute).

``fail`` and ``hang`` count attempts within the executing process, which
is deterministic because retries happen inside one worker.  ``crash``,
``corrupt``, ``torn-write``, ``lock-holder-dies``, ``worker-lost``,
``remote-torn-merge``, ``net-partition``, ``slow-worker`` and
``coordinator-crash`` must fire a bounded number of times *across*
processes (a re-spawned worker must not crash forever, a re-run
coordinator must not re-lose the same worker or re-crash after the same
fold), so they are one-shot through stamp files under
``$REPRO_FAULTS_DIR``; when that directory is unset they stay disarmed
rather than risk an unbounded crash loop.

Everything is driven by environment variables so tests can arm faults
with ``monkeypatch.setenv`` and have pool workers inherit them.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

#: Environment variable holding the fault spec (see module docstring).
FAULTS_ENV = "REPRO_FAULTS"

#: Directory for cross-process one-shot stamps (crash/corrupt faults).
FAULTS_DIR_ENV = "REPRO_FAULTS_DIR"

#: How long a "hang" fault sleeps; long enough that only the watchdog
#: (or a human) ends it.
HANG_SECONDS = 3600.0

#: Recognised fault kinds.
KINDS = (
    "fail",
    "hang",
    "crash",
    "corrupt",
    "torn-write",
    "lock-holder-dies",
    "worker-lost",
    "remote-torn-merge",
    "net-partition",
    "slow-worker",
    "coordinator-crash",
)

#: The torn line a ``corrupt`` fault appends (no closing brace, so the
#: tolerant loader must skip and count it).
TORN_LINE = '{"key": "torn-by-faultinject", "result": {'

#: The line a ``torn-write`` fault appends: structurally a valid v5
#: CRC-suffixed cache line, but the checksum does not match the payload
#: — the loader must reject it on the CRC alone.
TORN_V5_LINE = '{"key": "torn-by-faultinject", "result": {}}#00000000'

#: Exit code used when a ``lock-holder-dies`` fault kills the process.
LOCK_HOLDER_EXIT = 87

#: Exit code used when a ``coordinator-crash`` fault kills the dispatch
#: coordinator mid-flight (tests and CI assert on it).
COORDINATOR_CRASH_EXIT = 88


class InjectedFault(RuntimeError):
    """The transient error raised by an armed ``fail`` fault."""


@dataclass(frozen=True)
class Fault:
    """One armed fault: ``kind`` against sweep job ``index``, ``times`` shots."""

    kind: str
    index: int
    times: int


def parse_faults(spec: str) -> tuple[Fault, ...]:
    """Parse a ``kind:index:times`` comma list; raises on malformed specs."""
    faults: list[Fault] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3 or pieces[0] not in KINDS:
            raise ValueError(
                f"malformed fault {part!r}; expected kind:job_index:times "
                f"with kind in {KINDS}"
            )
        try:
            index, times = int(pieces[1]), int(pieces[2])
        except ValueError:
            raise ValueError(
                f"malformed fault {part!r}; job_index and times must be integers"
            ) from None
        faults.append(Fault(pieces[0], index, times))
    return tuple(faults)


def active_faults() -> tuple[Fault, ...]:
    """Faults currently armed via ``$REPRO_FAULTS`` (empty when unset).

    Parsed on every call — the spec is tiny and tests flip the variable
    between sweeps with ``monkeypatch``.
    """
    spec = os.environ.get(FAULTS_ENV, "")
    return parse_faults(spec) if spec.strip() else ()


def _one_shot(fault: Fault) -> bool:
    """True exactly ``fault.times`` times across all processes.

    Uses ``O_CREAT|O_EXCL`` stamp files in ``$REPRO_FAULTS_DIR`` as the
    atomic cross-process counter; with no stamp directory configured the
    fault never fires (see module docstring).
    """
    stamp_dir = os.environ.get(FAULTS_DIR_ENV, "").strip()
    if not stamp_dir:
        return False
    directory = Path(stamp_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for shot in range(1, fault.times + 1):
        stamp = directory / f"{fault.kind}-{fault.index}-{shot}"
        try:
            fd = os.open(stamp, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        os.close(fd)
        return True
    return False


def before_attempt(index: int, attempt: int) -> None:
    """Hook: called by the sweep engine before each attempt of job ``index``.

    Fires any armed ``crash``, ``hang`` or ``fail`` fault targeting the
    job, in spec order.
    """
    for fault in active_faults():
        if fault.index != index:
            continue
        if fault.kind == "crash" and _one_shot(fault):
            # A real worker crash: no cleanup, no exception, no cache
            # line — the parent sees a broken pool.
            os._exit(86)
        if fault.kind == "hang" and attempt <= fault.times:
            time.sleep(HANG_SECONDS)
        if fault.kind == "fail" and attempt <= fault.times:
            raise InjectedFault(
                f"injected transient failure (job {index}, attempt {attempt})"
            )


def after_cache_append(index: int, cache_path: Path) -> None:
    """Hook: called after a pool worker appends job ``index``'s result line.

    The worker still holds the cache lock, so an injected line never
    splices another writer's.  An armed ``corrupt`` fault appends a torn
    JSONL line, simulating a worker killed mid-write with the platform's
    page-cache flushing half a record.  An armed ``torn-write`` fault
    appends a CRC-suffixed line whose checksum is wrong, simulating a
    torn v5 write or at-rest bit rot that only the checksum can catch.
    """
    for fault in active_faults():
        if fault.index != index:
            continue
        if fault.kind == "corrupt" and _one_shot(fault):
            with cache_path.open("a") as handle:
                handle.write(TORN_LINE + "\n")
        if fault.kind == "torn-write" and _one_shot(fault):
            with cache_path.open("a") as handle:
                handle.write(TORN_V5_LINE + "\n")


def on_lock_acquired(lock_path: Path) -> None:
    """Hook: called by :mod:`repro.sim.locking` after every acquisition.

    An armed ``lock-holder-dies`` fault hard-kills the process while it
    still holds the lock — the kernel must release the ``flock`` and the
    next acquirer must detect the dead owner's metadata as stale.  The
    spec's job index is ignored (locks are not tied to jobs); firing is
    bounded by the cross-process one-shot stamps.
    """
    del lock_path  # the fault targets whichever lock is taken next
    for fault in active_faults():
        if fault.kind == "lock-holder-dies" and _one_shot(fault):
            os._exit(LOCK_HOLDER_EXIT)


def dispatch_worker_lost(worker_index: int) -> bool:
    """Hook: called by the dispatch coordinator around lease traffic.

    Returns True when an armed ``worker-lost`` fault targets worker
    ``worker_index`` (the fault spec's job-index slot holds the worker
    index); the coordinator then severs the connection — and hard-kills
    the subprocess for locally spawned workers — exactly as if the host
    dropped off the network.  One-shot across processes, like ``crash``.
    """
    for fault in active_faults():
        if (
            fault.kind == "worker-lost"
            and fault.index == worker_index
            and _one_shot(fault)
        ):
            return True
    return False


def after_remote_pull(worker_index: int, shard_path: Path) -> None:
    """Hook: called after worker ``worker_index``'s results reach a staged shard.

    An armed ``remote-torn-merge`` fault overwrites the checksum of the
    shard's last line (falling back to appending :data:`TORN_V5_LINE`
    when the shard is empty), simulating a pull torn mid-line: the fold
    must reject the line on its CRC alone and recover the entry from
    the coordinator's in-memory copy, leaving the final cache bytes
    untouched by the corruption.
    """
    for fault in active_faults():
        if (
            fault.kind == "remote-torn-merge"
            and fault.index == worker_index
            and _one_shot(fault)
        ):
            lines = shard_path.read_text().splitlines() if shard_path.exists() else []
            while lines and not lines[-1].strip():
                lines.pop()
            if lines:
                head, sep, _crc = lines[-1].rpartition("#")
                lines[-1] = f"{head}#00000000" if sep else TORN_V5_LINE
            else:
                lines = [TORN_V5_LINE]
            shard_path.write_text("\n".join(lines) + "\n")


def dispatch_net_partition(worker_index: int) -> bool:
    """Hook: called by the dispatch coordinator around lease traffic.

    Returns True when an armed ``net-partition`` fault targets worker
    ``worker_index``; the coordinator then abandons the connection —
    but, unlike ``worker-lost``, never kills the subprocess — as if the
    route to the host flapped.  The worker may finish the lease into
    its own cache anyway, warming later leases.  One-shot across
    processes, like ``worker-lost``.
    """
    for fault in active_faults():
        if (
            fault.kind == "net-partition"
            and fault.index == worker_index
            and _one_shot(fault)
        ):
            return True
    return False


def dispatch_slow_worker(worker_index: int) -> bool:
    """Hook: called by the dispatch coordinator before leasing to a worker.

    Returns True when an armed ``slow-worker`` fault targets worker
    ``worker_index``; the coordinator then ``SIGSTOP``s the locally
    spawned subprocess and carries on.  Detection is deliberately *not*
    part of the injection: the stalled worker's silence must trip the
    heartbeat deadline on its own, or the test fails.  One-shot across
    processes.
    """
    for fault in active_faults():
        if (
            fault.kind == "slow-worker"
            and fault.index == worker_index
            and _one_shot(fault)
        ):
            return True
    return False


def dispatch_after_fold(fold_number: int) -> None:
    """Hook: called by the dispatch coordinator after each fold-in.

    An armed ``coordinator-crash`` fault hard-kills the coordinator
    once ``fold_number`` reaches the spec's index slot (the N in "crash
    after N fold-ins") — after the fold is durable, with the staged
    shard directory left behind, which is the worst surviving state
    ``--resume`` must reconstruct from.  One-shot across processes, so
    the resumed coordinator does not re-crash.
    """
    for fault in active_faults():
        if (
            fault.kind == "coordinator-crash"
            and fold_number >= fault.index
            and _one_shot(fault)
        ):
            os._exit(COORDINATOR_CRASH_EXIT)
