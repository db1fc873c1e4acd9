"""Golden regression against the committed Figure 13 shared-LLC results.

Re-simulates ``mix02`` on Figure 13's two 4MB machines (uncompressed and
Base-Victim, bench preset) and requires each ``MixRunResult`` — every
per-thread field and every serialised observation — to equal the
committed ``.repro_cache/results-v5-bench.jsonl`` entry byte for byte.
The Figure 8 slice (``test_golden_fig8.py``) pins the single-core
driver; this pins the multi-program driver, whose thread interleaving
on the shared LLC no other test fixes to a value.  Any drift means the
simulator's behaviour changed and ``CACHE_VERSION``/EXPERIMENTS.md need
a deliberate update.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.sim.config import ARCH_BASE_VICTIM, BENCH, MachineConfig
from repro.sim.experiment import ExperimentRunner
from repro.sim.resultcache import cache_file_name, load_cache_entries
from repro.workloads.mixes import build_mixes

CACHE_PATH = (
    Path(__file__).resolve().parents[2] / ".repro_cache" / cache_file_name("bench")
)

#: Figure 13's shared-LLC machines (Section V: a 4MB LLC for 4 threads).
MIX_4MB = MachineConfig(llc_sets_mult=2.0)
MIX_4MB_BV = MachineConfig(arch=ARCH_BASE_VICTIM, llc_sets_mult=2.0)

GOLDEN_MIX = "mix02"


@pytest.fixture(scope="module")
def committed() -> dict[str, dict]:
    return load_cache_entries(CACHE_PATH)


@pytest.mark.parametrize("machine", (MIX_4MB, MIX_4MB_BV), ids=lambda m: m.label)
def test_figure13_slice_matches_committed_cache(committed, machine):
    mix = next(m for m in build_mixes() if m.name == GOLDEN_MIX)
    runner = ExperimentRunner(BENCH, use_disk_cache=False)
    key = runner._mix_key(machine, mix, BENCH.trace_length)
    assert key in committed, f"{key} missing from {CACHE_PATH.name}"
    result = runner.run_mix(machine, mix)
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        committed[key], sort_keys=True
    ), (
        f"{GOLDEN_MIX} on {machine.label} drifted from the committed cache; "
        "if the simulator changed intentionally, bump CACHE_VERSION and "
        "regenerate the bench cache"
    )
