"""Differential tests: the default engine vs the traced reference loop.

``simulate_trace``'s traced engine (see ``repro.sim.engine``) runs one
``hierarchy.access`` per demand access through the per-method cache
layers; the default batch engine vector-resolves L1 hit runs and hands
misses to the scalar access kernel of ``repro.sim.batch``, which inlines
the whole demand path over hoisted columns and batches its counters.  A
tracer forces the reference loop, so running the same (trace, machine)
pair with and without one is a direct differential test of the default
engine: every ``RunResult`` field and every serialised observation must
be byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.tracing import TRACE_ENV, TRACE_FILE_ENV, TraceRecorder
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST
from repro.sim.single_core import simulate_trace
from repro.workloads.suite import TraceSuite

MACHINES = (BASELINE_2MB, BASE_VICTIM_2MB)
TRACES = ("mcf.1", "sjeng.1")


def run_once(machine, trace_name, tracer=None):
    """One deterministic run; a fresh suite/data model every time."""
    suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
    trace = suite.trace(trace_name)
    data = suite.data_model(trace_name)
    return simulate_trace(trace, data, machine, TEST, tracer=tracer)


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


class TestReproTraceEnvEquivalence:
    def test_env_tracing_changes_no_simulation_state(self, tmp_path, monkeypatch):
        baseline = run_once(BASE_VICTIM_2MB, "sjeng.1")

        out = tmp_path / "events.jsonl"
        monkeypatch.setenv(TRACE_ENV, "1")
        monkeypatch.setenv(TRACE_FILE_ENV, str(out))
        traced = run_once(BASE_VICTIM_2MB, "sjeng.1")

        assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
            baseline.to_dict(), sort_keys=True
        )
        events = [json.loads(line) for line in out.read_text().splitlines()]
        assert events[0] == {
            "event": "run",
            "trace": "sjeng.1",
            "machine": BASE_VICTIM_2MB.label,
        }
        assert any("addr" in event for event in events)


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
