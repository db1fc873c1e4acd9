"""Differential oracle: the run-ahead mix driver vs the traced reference.

``simulate_mix`` (``repro.sim.multi_core``) runs each thread of a
shared-LLC mix through its own scalar access kernel and schedules them
by run-ahead: the thread with the smallest clock keeps issuing for as
long as it would still be chosen.  The traced loop (``engine="traced"``)
is the reference — it re-picks the thread with the smallest clock (the
first on ties) before every access and issues it through
``hierarchy.access``.
This module requires the two to produce **byte-identical**
``MixRunResult``s — every per-thread field and every serialised
observation — and to leave the same machine state behind (every
thread's L1, L2 and prefetcher, the shared LLC and DRAM; see
``tests/sim/endstate.py``) over seeded mixes across the LLC matrix, and
on the scheduler's edge cases: clock ties (among four copies of one
trace, and a later thread that reaches an earlier one's clock exactly),
a thread that wraps its trace many times, and occupancy samples that
land on a span boundary.
The kernel side's LLC must also pass its own invariant check.

Mixes are built from the case seed alone, so every failure reproduces
from its parametrized test id.
"""

from __future__ import annotations

import json
import random
from array import array
from math import inf, nextafter

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.sim import multi_core
from repro.sim.batch import scalar_kernel
from repro.sim.config import TEST, MachineConfig, Preset
from repro.sim.multi_core import simulate_mix
from repro.timing.core_model import CoreTimingModel
from repro.workloads.datagen import LineDataModel, build_palette
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import TraceSuite, sensitive_specs
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

from .endstate import assert_same_state, record_hierarchies

POLICIES = ("nru", "lru", "srrip", "drrip")

#: Test-preset geometry with shorter traces, so the whole matrix stays
#: within a few seconds.
SHORT = Preset("test-short", TEST.scale, 1_000)

_LLC_LINES = TEST.reference_llc_lines


def _machines():
    """(id, machine) over arch x policy x prefetch (x victim policy)."""
    for policy in POLICIES:
        for degree in (0, 2):
            yield MachineConfig(policy=policy, prefetch_degree=degree).validate()
            for victim_policy in ("ecm", "lru"):
                yield MachineConfig(
                    arch="base-victim",
                    policy=policy,
                    victim_policy=victim_policy,
                    prefetch_degree=degree,
                ).validate()


MACHINES = list(_machines())
assert len(MACHINES) == 24


def run_mix(mix, machine, preset, suite_factory, engine) -> str:
    """One mix run on a fresh suite; returns the canonical result JSON."""
    result = simulate_mix(mix, machine, preset, suite_factory(), engine=engine)
    return json.dumps(result.to_dict(), sort_keys=True)


def assert_engines_agree(monkeypatch, mix, machine, preset, suite_factory) -> dict:
    """Kernel vs traced byte-identity and end state; returns the decoded result."""
    built = record_hierarchies(monkeypatch, multi_core)
    kernel = run_mix(mix, machine, preset, suite_factory, "batch")
    traced = run_mix(mix, machine, preset, suite_factory, "traced")
    assert kernel == traced
    threads = len(mix.trace_names)
    assert_same_state(built[:threads], built[threads:])
    return json.loads(kernel)


#: One suite for every seeded mix: traces are read-only, and each run
#: still gets fresh data models (stores mutate those).
_SHORT_SUITE = TraceSuite(SHORT.reference_llc_lines, SHORT.trace_length)


def short_suite() -> TraceSuite:
    return _SHORT_SUITE


class TestSeededMixes:
    @pytest.mark.parametrize(
        "case,machine", list(enumerate(MACHINES)), ids=[m.label for m in MACHINES]
    )
    def test_kernel_mix_byte_identical_to_traced(self, monkeypatch, case, machine):
        names = [spec.name for spec in sensitive_specs()]
        mix = MixSpec(f"seeded{case}", tuple(random.Random(case).sample(names, 4)))
        assert_engines_agree(monkeypatch, mix, machine, SHORT, short_suite)


# ----------------------------------------------------------------------
# Scheduler edge cases, on hand-built traces
# ----------------------------------------------------------------------


def make_trace(name: str, seed: int, length: int, lines: int) -> Trace:
    """A seeded trace over ``lines`` distinct lines (L1-resident when few)."""
    rng = random.Random(seed)
    base = rng.randrange(1 << 20)
    kinds = array("b")
    addrs = array("q")
    deltas = array("i")
    for _ in range(length):
        kinds.append(STORE if rng.random() < 0.3 else LOAD)
        addrs.append(base + rng.randrange(lines))
        deltas.append(rng.randrange(1, 9))
    meta = TraceMeta(
        name=name,
        category="fuzz",
        seed=seed,
        footprint_lines=lines,
        comp_class="mixed",
        cache_sensitive=True,
    )
    return Trace(meta, kinds, addrs, deltas)


class StubSuite:
    """The two calls simulate_mix makes of a suite, over fixed traces."""

    def __init__(self, traces: dict[str, Trace]) -> None:
        self.traces = traces

    def trace(self, name: str) -> Trace:
        return self.traces[name]

    def data_model(self, name: str) -> LineDataModel:
        seed = self.traces[name].meta.seed
        return LineDataModel(build_palette("ispec", "mixed", seed), seed=seed)


def fixed_trace(name: str, seed: int, lines: list[int], deltas: list[int]) -> Trace:
    """A load-only trace over the given lines and instruction deltas."""
    meta = TraceMeta(
        name=name,
        category="fuzz",
        seed=seed,
        footprint_lines=len(set(lines)),
        comp_class="mixed",
        cache_sensitive=True,
    )
    return Trace(
        meta, array("b", [LOAD] * len(lines)), array("q", lines), array("i", deltas)
    )


def stub_factory(*traces: Trace):
    return lambda: StubSuite({trace.meta.name: trace for trace in traces})


BV = MachineConfig(arch="base-victim").validate()
UNC = MachineConfig().validate()


class TestSchedulerEdgeCases:
    @pytest.mark.parametrize("machine", (UNC, BV), ids=lambda m: m.label)
    def test_four_copies_of_one_trace_break_clock_ties_by_thread_order(
        self, monkeypatch, machine
    ):
        trace = make_trace("same", 11, 400, 3 * _LLC_LINES)
        mix = MixSpec("copies", ("same",) * 4)
        result = assert_engines_agree(
            monkeypatch, mix, machine, SHORT, stub_factory(trace)
        )
        # Identical threads must still diverge: the shared LLC serves
        # whichever wins each tie first.
        assert len({thread["cycles"] for thread in result["threads"]}) > 1

    @pytest.mark.parametrize("machine", (UNC, BV), ids=lambda m: m.label)
    def test_fast_thread_wraps_many_times_before_the_slowest_finishes(
        self, monkeypatch, machine
    ):
        fast = make_trace("fast", 21, 40, 4)
        slow = [make_trace(f"slow{k}", 22 + k, 300, 4 * _LLC_LINES) for k in range(3)]
        mix = MixSpec("wraps", ("fast", "slow0", "slow1", "slow2"))
        result = assert_engines_agree(
            monkeypatch, mix, machine, SHORT, stub_factory(fast, *slow)
        )
        assert result["threads"][0]["accesses"] > 5 * len(fast)

    @pytest.mark.parametrize("machine", (UNC, BV), ids=lambda m: m.label)
    def test_a_later_thread_yields_when_it_reaches_an_earlier_threads_clock(
        self, monkeypatch, machine
    ):
        # a and b miss to different DRAM channels with equal latency and
        # then hit in L1, so they stand exactly tied before their third
        # accesses.  Those conflict in channel 0, bank 2 (the thread
        # offsets change only the row), so the order shows in the
        # cycles: the earlier thread, a, must issue first.  c and d
        # start late, on banks a and b never use.
        a = fixed_trace("a", 51, [0, 0, 4], [1, 1, 1])
        b = fixed_trace("b", 52, [1, 1, 4], [1, 1, 1])
        c = fixed_trace("c", 53, [9, 9, 9], [5000, 1, 1])
        d = fixed_trace("d", 54, [11, 11, 11], [5000, 1, 1])
        mix = MixSpec("tie", ("a", "b", "c", "d"))
        result = assert_engines_agree(
            monkeypatch, mix, machine, SHORT, stub_factory(a, b, c, d)
        )
        first, second = (thread["cycles"] for thread in result["threads"][:2])
        assert first < second

    @pytest.mark.parametrize("sample_every", (1, 2, 3, 7))
    def test_occupancy_samples_on_span_boundaries(self, monkeypatch, sample_every):
        # simulate_mix samples every 4 * trace_length // 64 accesses; the
        # stub traces' own lengths are independent of the preset's.
        preset = Preset("tiny-grid", TEST.scale, 16 * sample_every)
        traces = [make_trace(f"t{k}", 31 + k, 150, 2 * _LLC_LINES) for k in range(4)]
        mix = MixSpec("grid", tuple(trace.meta.name for trace in traces))
        result = assert_engines_agree(
            monkeypatch, mix, BV, preset, stub_factory(*traces)
        )
        samples = sum(result["obs"]["llc/victim_occupancy"]["buckets"].values())
        accesses = sum(thread["accesses"] for thread in result["threads"])
        assert samples == accesses // sample_every


class TestKernelWindow:
    """``run(limit)`` stops exactly where the traced scheduler would switch."""

    def _kernel(self, **hook):
        trace = make_trace("window", 41, 200, 2 * _LLC_LINES)
        data = LineDataModel(build_palette("ispec", "mixed", 41), seed=41)
        llc = BV.build_llc(TEST)
        hierarchy = CacheHierarchy(llc, data.size_of, TEST.hierarchy_config())
        core = CoreTimingModel()
        run, flush = scalar_kernel(
            trace.deltas,
            trace.addrs,
            trace.kinds,
            hierarchy,
            core,
            data.on_write,
            None,
            1,
            [],
            **hook,
        )
        return run, flush, hierarchy, core, len(trace)

    def _clocks(self) -> list[float]:
        """The clock after each access of one pass, one access per span."""
        run, flush, hierarchy, _, length = self._kernel()
        clocks = [0.0]
        for _ in range(length):
            # Just above the clock: the span issues one access and stops.
            clocks.append(run(nextafter(clocks[-1], inf)))
        flush()
        assert hierarchy.stats.accesses == length
        return clocks[1:]

    def test_limit_is_strict(self):
        clocks = self._clocks()
        mid = len(clocks) // 2
        bound = clocks[mid]  # the clock once access ``mid`` is done
        # cycles < limit: access mid + 1 would start at exactly bound.
        run, flush, hierarchy, core, _ = self._kernel()
        assert run(bound) == bound
        flush()
        assert hierarchy.stats.accesses == mid + 1
        assert core.cycles == bound
        # The next float up issues it, and the span stops after it.
        run, flush, hierarchy, _, _ = self._kernel()
        assert run(nextafter(bound, inf)) == clocks[mid + 1]
        flush()
        assert hierarchy.stats.accesses == mid + 2

    def test_a_span_runs_through_a_wrap_below_the_limit(self):
        clocks = self._clocks()
        ends = []

        def on_pass_end() -> bool:
            ends.append(core.cycles)  # the kernel wrote the core back
            return False

        run, flush, hierarchy, core, length = self._kernel(on_pass_end=on_pass_end)
        clock = run(nextafter(clocks[-1], inf))
        assert ends == [clocks[-1]]
        # The span wrapped and issued the next pass's first access.
        assert clock > clocks[-1]
        flush()
        assert hierarchy.stats.accesses == length + 1
        assert core.cycles == clock

    def test_nothing_issues_after_the_hook_ends_the_run(self):
        ends = []

        def on_pass_end() -> bool:
            ends.append(core.cycles)
            return True

        run, flush, hierarchy, core, length = self._kernel(on_pass_end=on_pass_end)
        clock = run(inf)
        assert ends == [clock]
        assert run(inf) == clock
        flush()
        assert hierarchy.stats.accesses == length
        assert core.cycles == clock
        assert ends == [clock]
