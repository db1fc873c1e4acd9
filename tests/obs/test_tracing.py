"""Unit tests for the bounded-window trace recorder."""

import io
import json

import pytest

from repro.cli import main
from repro.obs.tracing import (
    DEFAULT_LIMIT,
    TRACE_FILE_ENV,
    TRACE_LIMIT_ENV,
    TraceRecorder,
)
from repro.sim.config import BASE_VICTIM_2MB, TEST
from repro.sim.experiment import ExperimentRunner
from repro.sim.single_core import simulate_trace


class TestRecorder:
    def test_window_bounds_and_dropped_count(self):
        rec = TraceRecorder(limit=3)
        for i in range(5):
            rec.record(i=i)
        assert [e["i"] for e in rec.events] == [0, 1, 2]
        assert rec.dropped == 2
        assert not rec.active

    def test_flush_writes_jsonl_and_resets(self):
        rec = TraceRecorder(limit=2)
        for i in range(3):
            rec.record(i=i, addr=i * 64)
        out = io.StringIO()
        assert rec.flush(out) == 2
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        assert lines[0] == {"addr": 0, "i": 0}
        assert lines[-1] == {"truncated": True, "dropped_events": 1}
        assert rec.events == [] and rec.dropped == 0

    def test_flush_empty_window_writes_nothing(self):
        out = io.StringIO()
        assert TraceRecorder().flush(out) == 0
        assert out.getvalue() == ""

    def test_positive_limit_required(self):
        with pytest.raises(ValueError):
            TraceRecorder(limit=0)


class TestFromEnv:
    def test_limit_and_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv(TRACE_LIMIT_ENV, "17")
        monkeypatch.setenv(TRACE_FILE_ENV, str(tmp_path / "events.jsonl"))
        rec = TraceRecorder.from_env()
        assert rec.limit == 17
        assert rec.path == str(tmp_path / "events.jsonl")

    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv(TRACE_LIMIT_ENV, raising=False)
        monkeypatch.delenv(TRACE_FILE_ENV, raising=False)
        rec = TraceRecorder.from_env()
        assert (rec.limit, rec.path) == (DEFAULT_LIMIT, None)

    def test_garbage_limit_rejected(self, monkeypatch):
        monkeypatch.setenv(TRACE_LIMIT_ENV, "lots")
        with pytest.raises(ValueError, match=TRACE_LIMIT_ENV):
            TraceRecorder.from_env()


class TestTracedSimulation:
    def test_tracing_does_not_change_results(self):
        runner = ExperimentRunner(TEST, use_disk_cache=False)
        trace = runner.suite.trace("sjeng.1")

        plain = simulate_trace(
            trace, runner.suite.data_model("sjeng.1"), BASE_VICTIM_2MB, TEST
        )
        tracer = TraceRecorder(limit=50)
        traced = simulate_trace(
            trace,
            runner.suite.data_model("sjeng.1"),
            BASE_VICTIM_2MB,
            TEST,
            tracer=tracer,
        )
        assert traced.to_dict() == plain.to_dict()

        # One header event plus a full window of access events.
        assert tracer.events[0]["event"] == "run"
        assert tracer.events[0]["trace"] == "sjeng.1"
        access_events = tracer.events[1:]
        assert len(tracer.events) == 50
        assert [e["i"] for e in access_events] == list(range(49))
        assert all(e["level"] in (1, 2, 3, 4) for e in access_events)
        assert tracer.dropped == len(trace) - 49

    def test_stats_trace_events_simulates_a_cached_cell_to_file(
        self, monkeypatch, tmp_path, capsys
    ):
        """``repro stats --trace-events`` skips the cache and writes its window."""
        out = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        args = ["stats", "--trace", "sjeng.1", "--preset", "test"]
        assert main(args) == 0  # caches the cell
        assert not out.exists()

        monkeypatch.setenv(TRACE_LIMIT_ENV, "10")
        monkeypatch.setenv(TRACE_FILE_ENV, str(out))
        assert main([*args, "--trace-events"]) == 0
        capsys.readouterr()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 11  # 10-event window + truncation marker
        assert lines[0]["event"] == "run" and lines[0]["trace"] == "sjeng.1"
        assert [line["i"] for line in lines[1:-1]] == list(range(9))
        assert lines[-1]["truncated"] is True
        assert lines[-1]["dropped_events"] == TEST.trace_length - 9
