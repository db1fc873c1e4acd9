"""Integration tests for the single-core / multi-core drivers and runner."""

from array import array

import pytest

from repro.memory.dram import DRAMModel
from repro.sim import single_core
from repro.sim.config import (
    ARCH_BASE_VICTIM,
    BASE_VICTIM_2MB,
    BASELINE_2MB,
    MachineConfig,
    PRESETS,
    TEST,
    TWO_TAG_2MB,
    UNCOMPRESSED_3MB,
)
from repro.sim.experiment import ExperimentRunner
from repro.sim.multi_core import simulate_mix
from repro.sim.single_core import RunResult, simulate_trace
from repro.workloads.datagen import LineDataModel, build_palette
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import TraceSuite
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return ExperimentRunner(TEST, cache_dir=tmp_path_factory.mktemp("cache"))


@pytest.fixture(scope="module")
def suite():
    return TraceSuite(TEST.reference_llc_lines, TEST.trace_length)


class TestPresets:
    def test_registry(self):
        assert set(PRESETS) == {"paper", "bench", "test"}

    def test_paper_llc_geometry(self):
        geometry = PRESETS["paper"].llc_geometry(16, 1.0)
        assert geometry.size_bytes == 2 * 2**20
        assert geometry.num_sets == 2048

    def test_3mb_geometry_via_ways(self):
        geometry = PRESETS["paper"].llc_geometry(24, 1.0)
        assert geometry.size_bytes == 3 * 2**20

    def test_4mb_geometry_via_sets(self):
        geometry = PRESETS["paper"].llc_geometry(16, 2.0)
        assert geometry.size_bytes == 4 * 2**20

    def test_invalid_sets_mult_rejected(self):
        with pytest.raises(ValueError):
            PRESETS["paper"].llc_geometry(16, 1.5)

    def test_machine_labels_distinguish_configs(self):
        labels = {
            BASELINE_2MB.label,
            BASE_VICTIM_2MB.label,
            TWO_TAG_2MB.label,
            UNCOMPRESSED_3MB.label,
            BASELINE_2MB.with_capacity(16, 2.0).label,
        }
        assert len(labels) == 5

    def test_build_llc_dispatch(self):
        for machine in (BASELINE_2MB, BASE_VICTIM_2MB, TWO_TAG_2MB):
            llc = machine.build_llc(TEST)
            assert llc.geometry.associativity == 16

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(arch="hopeful").build_llc(TEST)


class TestSingleCore:
    def test_run_produces_consistent_counts(self, suite):
        trace = suite.trace("mcf.1")
        data = suite.data_model("mcf.1")
        result = simulate_trace(trace, data, BASELINE_2MB, TEST)
        assert result.accesses == len(trace)
        assert result.instructions == trace.instructions
        assert result.cycles > 0
        assert result.ipc > 0
        assert result.l1_hits + result.l2_hits >= 0
        assert result.llc_hits + result.llc_misses <= result.accesses

    def test_runs_are_deterministic(self, suite):
        trace = suite.trace("omnetpp.1")
        a = simulate_trace(trace, suite.data_model("omnetpp.1"), BASELINE_2MB, TEST)
        b = simulate_trace(trace, suite.data_model("omnetpp.1"), BASELINE_2MB, TEST)
        assert a.to_dict() == b.to_dict()

    def test_base_victim_never_misses_more(self, suite):
        for name in ("mcf.1", "sysmark.1", "octane.1"):
            trace = suite.trace(name)
            base = simulate_trace(trace, suite.data_model(name), BASELINE_2MB, TEST)
            bv = simulate_trace(trace, suite.data_model(name), BASE_VICTIM_2MB, TEST)
            assert bv.llc_misses <= base.llc_misses, name

    def test_round_trip_serialisation(self, suite):
        trace = suite.trace("mcf.1")
        result = simulate_trace(trace, suite.data_model("mcf.1"), BASELINE_2MB, TEST)
        assert RunResult.from_dict(result.to_dict()) == result


class TestDirtyVictimWriteback:
    """A dirty LLC victim's writeback goes to the victim's DRAM address.

    Every DRAM write of an LLC access result is issued at the requested
    address (``CacheHierarchy._llc_access``, and the kernel's
    ``llc_call``, ``unc_fill`` and ``bv_fill``), so a dirty victim's
    writeback lands in the demand line's bank and row, right after
    that row's read.  Fixing it moves most cells, so it needs its own
    change with a regenerated cache; until then this test fails.

    The trace stores to line 0 and then loads lines 64, 128, ...: one
    set in L1, L2 and LLC, and one 4KB page each, so the stream
    prefetcher never trains.
    Line 0 leaves the L2 dirty and is written back into the LLC.  With
    9 LLC ways, the next miss finds every NRU bit set and evicts it;
    LRU evicts it a few misses later.  The three machines cover the
    kernel's uncompressed-NRU, Base-Victim and generic lanes.
    """

    @pytest.mark.xfail(
        strict=True, reason="LLC writebacks are issued at the requested address"
    )
    @pytest.mark.parametrize("engine", ["batch", "traced"])
    @pytest.mark.parametrize(
        "machine",
        (
            MachineConfig(llc_ways=9),
            MachineConfig(arch=ARCH_BASE_VICTIM, llc_ways=9),
            MachineConfig(llc_ways=9, policy="lru"),
        ),
        ids=lambda m: m.label,
    )
    def test_write_goes_to_the_victim_line(self, monkeypatch, machine, engine):
        written = []

        class RecordingDRAM(DRAMModel):
            def write(self, line_addr, now):
                written.append(line_addr)
                super().write(line_addr, now)

        monkeypatch.setattr(single_core, "DRAMModel", RecordingDRAM)
        loads = 24
        meta = TraceMeta("dirty-victim", "test", 0, loads + 1, "mixed", True)
        trace = Trace(
            meta,
            array("b", [STORE] + [LOAD] * loads),
            array("q", [64 * k for k in range(loads + 1)]),
            array("i", [1] * (loads + 1)),
        )
        data = LineDataModel(build_palette("ispec", "mixed", 0), seed=0)
        simulate_trace(trace, data, machine, TEST, engine=engine)
        assert written == [0]


class TestRunnerCaching:
    def test_cache_hit_returns_equal_result(self, runner):
        first = runner.run_single(BASELINE_2MB, "mcf.1")
        second = runner.run_single(BASELINE_2MB, "mcf.1")
        assert first.to_dict() == second.to_dict()

    def test_disk_cache_survives_new_runner(self, tmp_path):
        r1 = ExperimentRunner(TEST, cache_dir=tmp_path)
        first = r1.run_single(BASELINE_2MB, "sjeng.1")
        r2 = ExperimentRunner(TEST, cache_dir=tmp_path)
        # The new runner must not re-simulate: verify via identical result
        # and no cache miss.
        second = r2.run_single(BASELINE_2MB, "sjeng.1")
        assert first.to_dict() == second.to_dict()
        assert r2.cache_misses == 0

    def test_distinct_machines_distinct_entries(self, runner):
        a = runner.run_single(BASELINE_2MB, "gcc.1")
        b = runner.run_single(BASE_VICTIM_2MB, "gcc.1")
        assert a.machine != b.machine


class TestMultiCore:
    def test_mix_runs_all_threads(self, suite):
        mix = MixSpec("m1", ("mcf.1", "omnetpp.1", "sysmark.1", "octane.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        assert len(result.threads) == 4
        for thread in result.thread_results:
            assert thread.instructions > 0
            assert thread.ipc > 0

    def test_shared_cache_slower_than_alone(self, suite):
        mix = MixSpec("m2", ("mcf.1", "mcf.2", "omnetpp.1", "gcc.1"))
        shared = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        for thread in shared.thread_results:
            alone = simulate_trace(
                suite.trace(thread.trace),
                suite.data_model(thread.trace),
                BASELINE_2MB,
                TEST,
            )
            assert thread.ipc <= alone.ipc * 1.05  # contention can't speed it up

    def test_duplicate_traces_do_not_share_lines(self, suite):
        mix = MixSpec("m3", ("mcf.1", "mcf.1", "mcf.1", "mcf.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        # Four copies contend: per-thread IPC must drop vs a single copy.
        alone = simulate_trace(
            suite.trace("mcf.1"), suite.data_model("mcf.1"), BASELINE_2MB, TEST
        )
        for thread in result.thread_results:
            assert thread.ipc < alone.ipc

    def test_mix_result_serialisation(self, suite):
        from repro.sim.multi_core import MixRunResult

        mix = MixSpec("m4", ("gcc.1", "gcc.2", "sjeng.1", "gobmk.1"))
        result = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        assert MixRunResult.from_dict(result.to_dict()).to_dict() == result.to_dict()

    def test_base_victim_hit_rate_guarantee_holds_for_mixes(self, suite):
        mix = MixSpec("m5", ("mcf.1", "omnetpp.1", "speech.1", "sysmark.1"))
        base = simulate_mix(mix, BASELINE_2MB, TEST, suite)
        bv = simulate_mix(mix, BASE_VICTIM_2MB, TEST, suite)
        assert bv.llc_hit_rate >= base.llc_hit_rate - 1e-9
