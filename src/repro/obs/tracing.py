"""Opt-in per-access tracing with a bounded event window.

When a golden figure drifts, the first question is *which access
diverged* — and answering it with a debugger inside a 50k-access loop is
miserable.  The tracer records the first ``limit`` accesses of a run as
plain dicts (index, address, kind, serving level) and counts the rest,
so two runs can be diffed event-by-event.

Activation: ``repro stats --trace-events`` on the CLI (the spelling
avoids the ``--trace`` flag, which already names the trace to
simulate), with ``REPRO_TRACE_LIMIT`` overriding the window size and
``REPRO_TRACE_FILE`` redirecting output from stderr to a file; or a
recorder passed to :func:`~repro.sim.single_core.simulate_trace` as
``tracer=``.  Either way the traced run happens in the calling
process, outside any sweep, so event streams from many processes never
interleave.  Recording never alters simulation state, so traced and
untraced runs produce identical results.
"""

from __future__ import annotations

import json
import os
import sys
from typing import IO

#: Maximum number of events recorded per run (default 200).
TRACE_LIMIT_ENV = "REPRO_TRACE_LIMIT"

#: Optional output path; events append as JSONL.  Default: stderr.
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

DEFAULT_LIMIT = 200


class TraceRecorder:
    """Bounded-window recorder for per-access simulation events."""

    __slots__ = ("limit", "events", "dropped", "path")

    def __init__(self, limit: int = DEFAULT_LIMIT, path: str | None = None) -> None:
        if limit <= 0:
            raise ValueError(f"trace limit must be positive, got {limit}")
        self.limit = limit
        self.events: list[dict] = []
        self.dropped = 0
        self.path = path

    @property
    def active(self) -> bool:
        """True while the window still has room."""
        return len(self.events) < self.limit

    def record(self, **fields: object) -> None:
        """Record one event (or count it as dropped past the window)."""
        if len(self.events) < self.limit:
            self.events.append(fields)
        else:
            self.dropped += 1

    @classmethod
    def from_env(cls) -> "TraceRecorder":
        """The recorder ``$REPRO_TRACE_LIMIT`` and ``$REPRO_TRACE_FILE`` ask for.

        ``repro stats --trace-events`` builds its recorder here.
        """
        limit = DEFAULT_LIMIT
        raw_limit = os.environ.get(TRACE_LIMIT_ENV, "").strip()
        if raw_limit:
            try:
                limit = int(raw_limit)
            except ValueError:
                raise ValueError(
                    f"${TRACE_LIMIT_ENV} must be an integer, got {raw_limit!r}"
                ) from None
        return cls(limit=limit, path=os.environ.get(TRACE_FILE_ENV) or None)

    def flush(self, stream: IO[str] | None = None) -> int:
        """Write the window as JSONL; returns events written.

        Events go to ``stream`` if given, else to the path configured at
        construction (append mode), else to stderr.  The window and the
        dropped count reset so one recorder can serve several runs.
        """
        events, dropped = self.events, self.dropped
        self.events, self.dropped = [], 0
        if not events:
            return 0
        if stream is not None:
            return _write_events(stream, events, dropped)
        if self.path is not None:
            with open(self.path, "a") as handle:
                return _write_events(handle, events, dropped)
        return _write_events(sys.stderr, events, dropped)


def _write_events(stream: IO[str], events: list[dict], dropped: int) -> int:
    for event in events:
        stream.write(json.dumps(event, sort_keys=True) + "\n")
    if dropped:
        stream.write(
            json.dumps({"truncated": True, "dropped_events": dropped}) + "\n"
        )
    return len(events)
