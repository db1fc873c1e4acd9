"""Differential tests: the scalar kernel vs the traced reference loop.

``simulate_trace`` runs the scalar access kernel of ``repro.sim.batch``
over the whole trace, which inlines the demand path over hoisted
columns, batches its counters and collects its occupancy samples for
one histogram update at the end.  Its traced reference loop
(``engine="traced"``, or any active tracer) runs one
``hierarchy.access`` per demand access through the per-method cache
layers.  A tracer forces the reference loop, so running the same
(trace, machine) pair with and without one is a direct differential
test of the kernel: every ``RunResult`` field and every serialised
observation must be byte-identical.  Both drivers reject any other
engine name, so an oracle that asks for the reference loop gets it.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.tracing import TraceRecorder
from repro.sim import multi_core, single_core
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST, Preset
from repro.sim.multi_core import simulate_mix
from repro.sim.single_core import simulate_trace
from repro.workloads.mixes import MixSpec
from repro.workloads.suite import TraceSuite

MACHINES = (BASELINE_2MB, BASE_VICTIM_2MB)
TRACES = ("mcf.1", "sjeng.1")


def run_once(machine, trace_name, tracer=None, engine="batch"):
    """One deterministic run; a fresh suite/data model every time."""
    suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
    trace = suite.trace(trace_name)
    data = suite.data_model(trace_name)
    return simulate_trace(trace, data, machine, TEST, tracer=tracer, engine=engine)


class TestTracedVsBatchLoop:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.label)
    @pytest.mark.parametrize("trace_name", TRACES)
    def test_results_and_observations_byte_identical(self, machine, trace_name):
        batched = run_once(machine, trace_name)
        traced = run_once(machine, trace_name, tracer=TraceRecorder(limit=64))
        assert json.dumps(batched.to_dict(), sort_keys=True) == json.dumps(
            traced.to_dict(), sort_keys=True
        )

    def test_traced_loop_actually_records_events(self):
        tracer = TraceRecorder(limit=16)
        run_once(BASE_VICTIM_2MB, "mcf.1", tracer=tracer)
        # One run-header event plus per-access events up to the window.
        assert tracer.events[0]["event"] == "run"
        assert len(tracer.events) == 16
        assert tracer.dropped > 0
        access_event = tracer.events[1]
        assert set(access_event) == {"i", "addr", "write", "level"}

    def test_occupancy_samples_identical_across_loops(self):
        """The batch loop batches occupancy samples; the histogram must not
        notice (this is the counter-flush batching the tracer bypasses)."""
        batched = run_once(BASE_VICTIM_2MB, "mcf.1")
        traced = run_once(
            BASE_VICTIM_2MB, "mcf.1", tracer=TraceRecorder(limit=8)
        )
        key = "llc/victim_occupancy"
        assert batched.obs[key] == traced.obs[key]
        assert sum(batched.obs[key]["buckets"].values()) > 0


class TestEngineArgument:
    """``engine=`` reaches the reference loop, and nothing else does."""

    class Unbuildable:
        """A machine whose LLC must never be built."""

        def build_llc(self, preset):
            pytest.fail("built an LLC before rejecting the engine")

    def test_simulate_trace_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine 'trace'"):
            simulate_trace(None, None, self.Unbuildable(), TEST, engine="trace")

    def test_simulate_mix_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine 'trace'"):
            simulate_mix(None, self.Unbuildable(), TEST, None, engine="trace")

    @staticmethod
    def no_kernel(*args, **kwargs):
        pytest.fail("the traced loop built a scalar kernel")

    def test_traced_trace_runs_without_the_kernel(self, monkeypatch):
        monkeypatch.setattr(single_core, "scalar_kernel", self.no_kernel)
        result = run_once(BASE_VICTIM_2MB, "sjeng.1", engine="traced")
        assert result.accesses == TEST.trace_length

    def test_traced_mix_runs_without_the_kernel(self, monkeypatch):
        monkeypatch.setattr(multi_core, "scalar_kernel", self.no_kernel)
        short = Preset("test-short", TEST.scale, 500)
        suite = TraceSuite(short.reference_llc_lines, short.trace_length)
        mix = MixSpec("four", ("mcf.1", "sjeng.1", "lbm.1", "astar.1"))
        result = simulate_mix(mix, BASE_VICTIM_2MB, short, suite, engine="traced")
        assert [thread["trace"] for thread in result.threads] == list(mix.trace_names)


class TestVictimOccupancyCounter:
    def test_counter_matches_recount_after_a_run(self):
        """The O(1) resident counter must track the per-set dicts exactly
        through a full run's fills, promotions, demotions and evictions."""
        suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
        llc = BASE_VICTIM_2MB.build_llc(TEST)
        data = suite.data_model("mcf.1")
        trace = suite.trace("mcf.1")
        kind_of = {0: 0, 1: 2}  # loads -> READ, stores -> WRITE
        for addr, kind in zip(trace.addrs, trace.kinds):
            if kind == 1:
                data.on_write(addr)
            llc.access(addr, kind_of[kind], data.size_of(addr))
        recount = sum(len(cset.vict_lookup) for cset in llc._sets)
        assert llc.victim_occupancy() == recount
        assert recount > 0  # the run actually exercised the victim cache
        llc.check_invariants()
