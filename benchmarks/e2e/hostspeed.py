"""Host-speed calibration: a fixed loop sampled while operations run.

On a shared 2-vCPU VM each vCPU switches between two speeds, one about
twice the other (other tenants' load), in stretches of 0.1-4 s and
independently of the other vCPU.  That moves every host-time metric,
and a 1-4 s operation can span several switches.  The benchmark
therefore pins each process to one CPU (:func:`pin`), and while it
measures, :class:`HostClock` interrupts the process every
:data:`PERIOD_S` (``SIGALRM``) to time one short sample of a fixed loop
on that CPU.  Each measured interval is scaled by ``REFERENCE_S / mean
sample time around it``, after the sampling time itself is taken out:
host times are reported as they would read on the reference host at
its fast speed.

The loop is a small pure-Python LRU cache model, so it is
interpreter-bound like the simulator, but it calls no program code and
must never change: a change to it would shift every baseline.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import signal
import statistics
import time
from pathlib import Path

#: Accesses per sample.
ACCESSES = 2500

#: Time of one sample on the reference host at its fast speed (2-vCPU
#: x86-64 VM, see baseline.json's host record); about 1.8x when slow.
REFERENCE_S = 0.00100

#: Seconds between samples (sampling costs 2-4% of the time).
PERIOD_S = 0.05


def cpus() -> list[int]:
    """The CPUs this process may run on (one entry where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def pin(cpu: int) -> None:
    """Keep this process, and the children it starts, on ``cpu``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def _lru_model(accesses: int) -> int:
    sets: list[list[int]] = [[] for _ in range(64)]
    state = 12345
    hits = 0
    for _ in range(accesses):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        addr = (state >> 12) % 768
        ways = sets[addr & 63]
        if addr in ways:
            ways.remove(addr)
            hits += 1
        elif len(ways) == 8:
            del ways[0]
        ways.append(addr)
    return hits


class HostClock:
    """Samples the host's speed every :data:`PERIOD_S` while entered.

    Only the main thread receives ``SIGALRM``; other threads are paused
    by the interpreter lock while it samples, which :meth:`scaled`
    accounts for like any other sampling time.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([self.starts, self.durations]))

    def absorb(self, path: Path) -> None:
        """Add samples another process dumped (the clocks are shared)."""
        starts, durations = json.loads(path.read_text())
        merged = sorted(zip(self.starts + starts, self.durations + durations))
        self.starts = [start for start, _ in merged]
        self.durations = [duration for _, duration in merged]

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _lru_model(ACCESSES)
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` minus sampling, at reference speed."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        sampling = sum(self.durations[first:last])
        # Samples inside the interval, or the ones just around it.
        near = self.durations[max(0, first - 1) : last + 1]
        if not near:
            return end - start
        return (end - start - sampling) * REFERENCE_S / statistics.fmean(near)
