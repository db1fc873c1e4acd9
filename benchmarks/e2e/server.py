"""Run ``repro serve`` in this process on one CPU, sampling its speed.

Usage: ``server.py CPU SAMPLES_OUT SPANS_OUT|- serve [repro serve flags...]``.
The server runs exactly as ``python -m repro serve`` would, pinned to
``CPU``, with a :class:`hostspeed.HostClock` sampling that CPU's speed.
When it exits (SIGTERM drains it) the samples are written to
``SAMPLES_OUT`` and, unless ``SPANS_OUT`` is ``-``, spans around its
layers to ``SPANS_OUT``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import spans as spanlib  # noqa: E402


def main(argv: list[str]) -> int:
    cpu, samples_out, spans_out, *serve = argv
    hostspeed.pin(int(cpu))
    recorder = None
    if spans_out != "-":
        recorder = spanlib.Spans(f"server-{os.getpid()}")
        spanlib.install(recorder)
    from repro.cli import main as repro_main

    clock = hostspeed.HostClock()
    try:
        with clock:
            return repro_main(serve)
    finally:
        clock.dump(Path(samples_out))
        if recorder is not None:
            recorder.restore()
            recorder.dump(Path(spans_out))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
