"""Detailed tests of the multi-program driver's semantics."""

import pytest

from repro.sim import multi_core
from repro.sim.config import ARCH_BASE_VICTIM, BASELINE_2MB, TEST, MachineConfig
from repro.sim.multi_core import _THREAD_STRIDE, simulate_mix
from repro.workloads.mixes import MixSpec, build_mixes
from repro.workloads.suite import TraceSuite


@pytest.fixture(scope="module")
def suite():
    return TraceSuite(TEST.reference_llc_lines, TEST.trace_length)


class TestMeasurementWindow:
    def test_measured_instructions_equal_trace_instructions(self, suite):
        """Threads wrap after finishing, but measurement freezes at the
        first completion (Section V's methodology)."""
        mix = MixSpec("m", ("mcf.1", "omnetpp.1", "gcc.1", "sjeng.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        for thread in result.thread_results:
            trace = suite.trace(thread.trace)
            assert thread.instructions == trace.instructions

    def test_all_threads_report_positive_cycles(self, suite):
        mix = MixSpec("m", ("mcf.1", "mcf.2", "speech.1", "octane.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        for thread in result.thread_results:
            assert thread.cycles > 0
            assert 0 < thread.ipc < 4.0  # bounded by the 4-wide core


class TestIsolation:
    def test_thread_offsets_do_not_collide(self):
        # Four threads' address spaces must stay disjoint even for the
        # largest paper-scale footprints (millions of lines).
        assert _THREAD_STRIDE > (1 << 30)

    def test_identical_mix_runs_are_deterministic(self, suite):
        mix = MixSpec("m", ("gcc.1", "gcc.2", "astar.1", "gobmk.1"))
        a = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        b = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        assert a.to_dict() == b.to_dict()

    def test_mix_order_changes_results_but_not_validity(self, suite):
        forward = MixSpec("f", ("mcf.1", "gcc.1", "speech.1", "octane.1"))
        reverse = MixSpec("r", ("octane.1", "speech.1", "gcc.1", "mcf.1"))
        a = simulate_mix(forward, BASELINE_2MB, TEST, suite)
        b = simulate_mix(reverse, BASELINE_2MB, TEST, suite)
        # Same trace measured in both mixes: similar but not necessarily
        # identical IPC (different thread offsets, interleaving).
        ipc_a = {t.trace: t.ipc for t in a.thread_results}
        ipc_b = {t.trace: t.ipc for t in b.thread_results}
        for name in ipc_a:
            assert ipc_b[name] == pytest.approx(ipc_a[name], rel=0.5)


class TestSharedState:
    def test_shared_llc_sees_all_threads(self, suite):
        mix = MixSpec("m", ("mcf.1", "gcc.1", "speech.1", "octane.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        total_thread_lookups = sum(
            t.llc_hits + t.llc_misses for t in result.thread_results
        )
        assert result.llc_hits + result.llc_misses == total_thread_lookups

    def test_aggregate_traffic_sums_threads(self, suite):
        mix = MixSpec("m", ("mcf.1", "gcc.1", "speech.1", "octane.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        assert result.memory_reads == sum(
            t.memory_reads for t in result.thread_results
        )


class TestCrossThreadInclusion:
    """Known defect: the shared LLC is not inclusive of every thread's L2.

    Each thread has its own ``CacheHierarchy`` over the shared LLC, and
    both engines apply the LLC's back-invalidations to the L1/L2 of the
    thread making the access only.  When one thread's access drops
    another thread's line from the LLC, the owner's private caches keep
    it.  Fixing this changes every Figure 13 cell, so it needs its own
    change with a regenerated cache; until then this test fails.
    """

    @pytest.mark.xfail(
        strict=True,
        reason="back-invalidations reach only the accessing thread's L1/L2",
    )
    @pytest.mark.parametrize(
        "machine",
        (
            MachineConfig(llc_sets_mult=2.0),
            MachineConfig(arch=ARCH_BASE_VICTIM, llc_sets_mult=2.0),
        ),
        ids=lambda m: m.label,
    )
    def test_every_private_l2_line_is_in_the_shared_llc(
        self, suite, monkeypatch, machine
    ):
        hierarchies = []
        real = multi_core.CacheHierarchy

        def collecting(*args, **kwargs):
            hierarchy = real(*args, **kwargs)
            hierarchies.append(hierarchy)
            return hierarchy

        monkeypatch.setattr(multi_core, "CacheHierarchy", collecting)
        simulate_mix(build_mixes()[0], machine, TEST, suite)
        llc = hierarchies[0].llc
        stranded = [
            addr
            for hierarchy in hierarchies
            for addr in hierarchy.l2.resident_lines()
            if not llc.contains(addr)
        ]
        assert stranded == []
