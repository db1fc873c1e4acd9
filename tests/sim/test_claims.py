"""Paper claims as predicates over the committed bench cache.

Each claim is a function of a ``{(machine, trace): RunResult}`` map of
the single-core cells in ``.repro_cache/results-v5-bench.jsonl``; these
tests read that file and simulate nothing.  Each predicate is also run
on one tampered copy of the map, which it must reject, so a predicate
that cannot fail does not pass for a check.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, BENCH
from repro.sim.metrics import dram_read_ratio, ipc_ratio
from repro.sim.resultcache import cache_file_name, iter_cache_entries
from repro.sim.single_core import RunResult

CACHE_PATH = (
    Path(__file__).resolve().parents[2] / ".repro_cache" / cache_file_name(BENCH.name)
)

Cells = dict[tuple[str, str], RunResult]

#: ``base-victim-<geometry>-<victim policy>[-...]``, where the geometry
#: ``w<ways>-m<mult>-<policy>`` is what the uncompressed twin shares.
_BASE_VICTIM_LABEL = re.compile(r"base-victim-(w\d+-m[0-9.]+-[a-z]+)-.+")

#: The floor's two known breaks, both CAMP.  Demand misses to memory,
#: Base-Victim vs twin: gemsFDTD.2 5,464 vs 5,205 (+5.0%), xalancbmk.3
#: 15,940 vs 15,800 (+0.9%).
_CAMP = "base-victim-w16-m1-camp-ecm"
FLOOR_BREAKS = {(_CAMP, "gemsFDTD.2"), (_CAMP, "xalancbmk.3")}

#: E3's bounds on the 2MB NRU + ECM pair, per trace.
E3_MIN_IPC_RATIO = 0.99
E3_MAX_DRAM_READ_RATIO = 1.0


@pytest.fixture(scope="module")
def cells() -> Cells:
    found: Cells = {}
    for key, result in iter_cache_entries(CACHE_PATH):
        kind, _, machine, trace, _ = key.split("|")
        if kind == "single":
            found[(machine, trace)] = RunResult.from_dict(result)
    return found


def twin_pairs(cells: Cells) -> dict[tuple[str, str], tuple[RunResult, RunResult]]:
    """Each single-core Base-Victim cell with its cached uncompressed twin."""
    pairs = {}
    for (machine, trace), run in cells.items():
        match = _BASE_VICTIM_LABEL.fullmatch(machine)
        if match is None:
            continue
        twin = cells.get((f"uncompressed-{match.group(1)}", trace))
        if twin is not None:
            pairs[(machine, trace)] = (run, twin)
    return pairs


def floor_breaks(cells: Cells) -> set[tuple[str, str]]:
    """Base-Victim cells with more demand misses to memory than their twin.

    The floor bounds ``llc_misses`` (published as ``hits/memory``): the
    Baseline Cache is managed exactly like the uncompressed cache, so
    the Victim Cache can only add hits.
    """
    return {
        cell
        for cell, (run, twin) in twin_pairs(cells).items()
        if run.llc_misses > twin.llc_misses
    }


def e3_violations(cells: Cells) -> list[str]:
    """Traces on which 2MB Base-Victim breaks E3, one line per bound.

    E3 bounds two per-trace ratios to the uncompressed 2MB baseline:
    the IPC ratio from below and the DRAM-read ratio from above.
    """
    problems = []
    for (machine, trace), run in sorted(cells.items()):
        if machine != BASE_VICTIM_2MB.label:
            continue
        base = cells[(BASELINE_2MB.label, trace)]
        ipc = ipc_ratio(run, base)
        if ipc < E3_MIN_IPC_RATIO:
            problems.append(f"{trace}: IPC ratio {ipc:.4f} < {E3_MIN_IPC_RATIO}")
        reads = dram_read_ratio(run, base)
        if reads > E3_MAX_DRAM_READ_RATIO:
            problems.append(
                f"{trace}: DRAM-read ratio {reads:.4f} > {E3_MAX_DRAM_READ_RATIO}"
            )
    return problems


def test_cache_holds_the_claimed_cells(cells):
    assert len(twin_pairs(cells)) == 700
    assert sum(machine == BASE_VICTIM_2MB.label for machine, _ in cells) == 100


def test_floor_breaks_only_where_known(cells):
    assert floor_breaks(cells) == FLOOR_BREAKS


def test_floor_rejects_a_tampered_map(cells):
    cell = (BASE_VICTIM_2MB.label, "mcf.1")
    twin = cells[(BASELINE_2MB.label, "mcf.1")]
    tampered = dict(cells)
    tampered[cell] = dataclasses.replace(cells[cell], llc_misses=twin.llc_misses + 1)
    assert floor_breaks(tampered) == FLOOR_BREAKS | {cell}


def test_e3_holds_on_every_trace(cells):
    assert e3_violations(cells) == []


def test_e3_rejects_a_tampered_map(cells):
    cell = (BASE_VICTIM_2MB.label, "omnetpp.3")
    base = cells[(BASELINE_2MB.label, "omnetpp.3")]
    tampered = dict(cells)
    tampered[cell] = dataclasses.replace(
        cells[cell], ipc=0.98 * base.ipc, memory_reads=base.memory_reads + 1
    )
    problems = e3_violations(tampered)
    assert [line.split(":")[0] for line in problems] == ["omnetpp.3", "omnetpp.3"]
    assert "IPC ratio 0.9800" in problems[0]
    assert "DRAM-read ratio" in problems[1]
