"""Every test-preset trace, pinned by digest to ``SUITE_VERSION``.

``suite_digest.json`` holds one sha256 per trace of the 100-trace suite
at the TEST preset, over the trace's ``kinds``, ``addrs`` and ``deltas``
in a fixed little-endian layout.  A generator or spec-table edit that
moves any trace must bump ``SUITE_VERSION`` (which invalidates every
cached result built from the old traces); this test fails, naming the
moved traces, when it does not.

After a deliberate bump, rewrite the digests for the new version with::

    PYTHONPATH=src python tests/workloads/test_suite_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.sim.config import TEST
from repro.workloads.suite import SUITE_VERSION, TraceSuite, all_specs
from repro.workloads.trace import Trace

DIGEST_PATH = Path(__file__).with_name("suite_digest.json")


def trace_digest(trace: Trace) -> str:
    """sha256 of a trace's records, independent of host byte order."""
    digest = hashlib.sha256()
    digest.update(np.asarray(trace.kinds, dtype="<i1").tobytes())
    digest.update(np.asarray(trace.addrs, dtype="<i8").tobytes())
    digest.update(np.asarray(trace.deltas, dtype="<i4").tobytes())
    return digest.hexdigest()


def suite_digests() -> dict[str, str]:
    """Digest of every trace of the suite at the TEST preset."""
    suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
    return {spec.name: trace_digest(suite.trace(spec.name)) for spec in all_specs()}


def test_digests_are_recorded_for_this_suite_version():
    recorded = json.loads(DIGEST_PATH.read_text())
    assert recorded["suite_version"] == SUITE_VERSION, (
        f"suite_digest.json pins SUITE_VERSION {recorded['suite_version']}, "
        f"the code is at {SUITE_VERSION}; rewrite it with "
        "`PYTHONPATH=src python tests/workloads/test_suite_digest.py --write`"
    )
    assert sorted(recorded["digests"]) == sorted(spec.name for spec in all_specs())


def test_every_trace_matches_its_digest():
    recorded = json.loads(DIGEST_PATH.read_text())["digests"]
    moved = sorted(
        name for name, digest in suite_digests().items() if recorded.get(name) != digest
    )
    assert not moved, (
        f"{len(moved)} trace(s) changed without a SUITE_VERSION bump "
        f"(still {SUITE_VERSION}): {', '.join(moved)}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    payload = {"suite_version": SUITE_VERSION, "digests": suite_digests()}
    DIGEST_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['digests'])} digests to {DIGEST_PATH}")
