"""Paper claims as predicates over the committed bench cache.

Each claim is a function of the cells in
``.repro_cache/results-v5-bench.jsonl``: a ``{(machine, trace):
RunResult}`` map of the single-core cells and, for Figure 13, a
``{(machine, mix): MixRunResult}`` map of the shared-LLC mix cells.
These tests read that file and simulate nothing.  Each predicate is
also run on one tampered copy of its maps, which it must reject, so a
predicate that cannot fail does not pass for a check.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.sim.config import (
    ARCH_BASE_VICTIM,
    BASE_VICTIM_2MB,
    BASELINE_2MB,
    BENCH,
    MachineConfig,
)
from repro.sim.metrics import dram_read_ratio, geomean, ipc_ratio, weighted_speedup
from repro.sim.multi_core import MixRunResult
from repro.sim.resultcache import cache_file_name, read_cache_entries
from repro.sim.single_core import RunResult

CACHE_PATH = (
    Path(__file__).resolve().parents[2] / ".repro_cache" / cache_file_name(BENCH.name)
)

Cells = dict[tuple[str, str], RunResult]
MixCells = dict[tuple[str, str], MixRunResult]

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

#: E8's pair: Figure 13's 4MB shared LLC, uncompressed and Base-Victim.
MIX_BASE_4MB = MachineConfig(llc_sets_mult=2.0).validate()
MIX_BV_4MB = MachineConfig(arch=ARCH_BASE_VICTIM, llc_sets_mult=2.0).validate()
MIXES = 20


@pytest.fixture(scope="module")
def cache() -> tuple[Cells, MixCells]:
    singles: Cells = {}
    mixes: MixCells = {}
    for key, result in read_cache_entries(CACHE_PATH)[0].items():
        kind, _, machine, name, _ = key.split("|")
        if kind == "single":
            singles[(machine, name)] = RunResult.from_dict(result)
        elif kind == "mix":
            mixes[(machine, name.split(":")[0])] = MixRunResult.from_dict(result)
    return singles, mixes


@pytest.fixture(scope="module")
def cells(cache) -> Cells:
    return cache[0]


@pytest.fixture(scope="module")
def mix_cells(cache) -> MixCells:
    return cache[1]


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


def e8_hit_rate_drops(mixes: MixCells) -> list[str]:
    """Mixes and threads on which 4MB Base-Victim's LLC hit rate is lower.

    E8's guarantee, per mix and per thread: Base-Victim's shared LLC
    hits at least as often as the uncompressed 4MB LLC.
    """
    problems = []
    for (machine, mix), run in sorted(mixes.items()):
        if machine != MIX_BV_4MB.label:
            continue
        base = mixes[(MIX_BASE_4MB.label, mix)]
        if run.llc_hit_rate < base.llc_hit_rate:
            problems.append(
                f"{mix}: hit rate {run.llc_hit_rate:.4f} < {base.llc_hit_rate:.4f}"
            )
        for thread, base_thread in zip(run.thread_results, base.thread_results):
            if thread.llc_hit_rate < base_thread.llc_hit_rate:
                problems.append(
                    f"{mix} {thread.trace}: hit rate {thread.llc_hit_rate:.4f}"
                    f" < {base_thread.llc_hit_rate:.4f}"
                )
    return problems


def e8_speedups(cells: Cells, mixes: MixCells) -> dict[str, float]:
    """Per mix, 4MB Base-Victim's weighted speedup over the 4MB LLC's.

    Each machine's weighted speedup is normalised by that machine's own
    single-program runs of the mix's traces.
    """
    speedups = {}
    for (machine, mix), run in sorted(mixes.items()):
        if machine != MIX_BV_4MB.label:
            continue
        weighted = []
        for shared in (mixes[(MIX_BASE_4MB.label, mix)], run):
            threads = shared.thread_results
            alone = [cells[(shared.machine, thread.trace)] for thread in threads]
            weighted.append(weighted_speedup(threads, alone))
        speedups[mix] = weighted[1] / weighted[0]
    return speedups


def e8_losers(cells: Cells, mixes: MixCells) -> list[str]:
    """Mixes on which 4MB Base-Victim does not beat the 4MB LLC."""
    return [
        f"{mix}: weighted speedup ratio {ratio:.4f} <= 1.0"
        for mix, ratio in e8_speedups(cells, mixes).items()
        if ratio <= 1.0
    ]


def test_cache_holds_the_claimed_cells(cells, mix_cells):
    assert len(twin_pairs(cells)) == 700
    assert sum(machine == BASE_VICTIM_2MB.label for machine, _ in cells) == 100
    for machine in (MIX_BASE_4MB, MIX_BV_4MB):
        runs = [run for (label, _), run in mix_cells.items() if label == machine.label]
        assert len(runs) == MIXES
        for run in runs:
            for thread in run.threads:
                assert (machine.label, thread["trace"]) in cells


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


def test_e8_hit_rate_never_lower(mix_cells):
    assert e8_hit_rate_drops(mix_cells) == []


def test_e8_hit_rate_rejects_a_tampered_map(mix_cells):
    # The tightest mix (mix05, 0.8160 vs 0.8409) loses its margin, and
    # so does the tightest thread (mcf.4 in mix12, 0.2335 vs 0.2339).
    tampered = dict(mix_cells)
    base = mix_cells[(MIX_BASE_4MB.label, "mix05")]
    tampered[(MIX_BV_4MB.label, "mix05")] = dataclasses.replace(
        mix_cells[(MIX_BV_4MB.label, "mix05")],
        llc_hits=base.llc_hits - 1,
        llc_misses=base.llc_misses + 1,
    )
    run = mix_cells[(MIX_BV_4MB.label, "mix12")]
    base = mix_cells[(MIX_BASE_4MB.label, "mix12")]
    threads = list(run.threads)
    assert threads[2]["trace"] == "mcf.4"
    threads[2] = dict(
        threads[2],
        llc_hits=base.threads[2]["llc_hits"] - 1,
        llc_misses=base.threads[2]["llc_misses"] + 1,
    )
    tampered[(MIX_BV_4MB.label, "mix12")] = dataclasses.replace(run, threads=threads)
    problems = e8_hit_rate_drops(tampered)
    assert [line.split(":")[0] for line in problems] == ["mix05", "mix12 mcf.4"]


def test_e8_every_mix_gains(cells, mix_cells):
    assert e8_losers(cells, mix_cells) == []
    # EXPERIMENTS.md quotes the geomean: Base-Victim +26.4% on 4MB.
    assert round(geomean(e8_speedups(cells, mix_cells).values()), 3) == 1.264


def test_e8_gain_rejects_a_tampered_map(cells, mix_cells):
    # The smallest gain, mix16's 1.0417, becomes a loss when its shared
    # IPCs drop by 5%.
    cell = (MIX_BV_4MB.label, "mix16")
    run = mix_cells[cell]
    tampered = dict(mix_cells)
    tampered[cell] = dataclasses.replace(
        run, threads=[dict(thread, ipc=0.95 * thread["ipc"]) for thread in run.threads]
    )
    problems = e8_losers(cells, tampered)
    assert [line.split(":")[0] for line in problems] == ["mix16"]
