"""Tests for the perf-benchmark subsystem and the committed baseline."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.sim.config import TEST
from repro.sim.perfbench import (
    SCHEMA_VERSION,
    aggregate_rate,
    check_regression,
    load_baseline,
    measure_matrix,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "BENCH_PERF.json"


def _payload(rate: float, cells: dict[tuple[str, str], float] | None = None) -> dict:
    entries = [
        {"machine": machine, "trace": trace, "accesses_per_sec": cell_rate}
        for (machine, trace), cell_rate in (cells or {}).items()
    ]
    return {
        "schema": SCHEMA_VERSION,
        "entries": entries,
        "aggregate": {"accesses_per_sec": rate},
    }


class TestMeasureMatrix:
    def test_payload_shape_and_positive_rates(self):
        payload = measure_matrix(TEST, trace_names=("sjeng.1",), repeats=1)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["jobs"] == 1
        assert len(payload["entries"]) == 2  # two default machines
        for entry in payload["entries"]:
            assert entry["accesses"] > 0
            assert entry["accesses_per_sec"] > 0
            assert "simulate" in entry["phase_seconds"]
        assert aggregate_rate(payload) > 0

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_matrix(TEST, trace_names=("sjeng.1",), repeats=0)


class TestCheckRegression:
    def test_within_allowance_passes(self):
        assert check_regression(_payload(80.0), _payload(100.0), 0.30) == []

    def test_regression_past_allowance_fails_with_cells(self):
        current = _payload(60.0, {("m", "t"): 50.0})
        baseline = _payload(100.0, {("m", "t"): 100.0})
        problems = check_regression(current, baseline, 0.30)
        assert len(problems) == 2
        assert "aggregate throughput regressed" in problems[0]
        assert "cell m|t" in problems[1]

    def test_faster_is_never_a_problem(self):
        assert check_regression(_payload(250.0), _payload(100.0), 0.30) == []

    def test_only_the_rates_are_compared(self):
        """The committed payloads carry fields the gate never reads (such
        as the name of the loop they were taken with)."""
        baseline = {**_payload(100.0), "engine": "batch", "host": {"cpu": "x"}}
        assert check_regression(_payload(100.0), baseline, 0.30) == []
        problems = check_regression(_payload(50.0), baseline, 0.30)
        assert len(problems) == 1
        assert "aggregate throughput regressed" in problems[0]


class TestCommittedBaseline:
    def test_baseline_sections_load(self):
        for section in ("bench", "test-ci"):
            payload = load_baseline(BASELINE_PATH, section)
            assert payload["schema"] == SCHEMA_VERSION
            assert aggregate_rate(payload) > 0

    def test_unknown_section_is_a_clear_error(self):
        with pytest.raises(KeyError, match="known sections"):
            load_baseline(BASELINE_PATH, "nope")

    def test_committed_baseline_was_not_profiled(self):
        """Neither side of a committed section was taken under cProfile,
        whose timings are not comparable throughput."""
        data = json.loads(BASELINE_PATH.read_text())
        for section in ("bench", "test-ci"):
            matrix = data["matrices"][section]
            assert not matrix["before"].get("profiled")
            assert not matrix["after"].get("profiled")

    def test_committed_speedup_is_consistent_and_not_a_regression(self):
        """The shipped code must be no slower than the code state it was
        measured against on the Figure 8 single-core (bench) matrix, and
        the recorded speedup must match the recorded payloads."""
        data = json.loads(BASELINE_PATH.read_text())
        bench = data["matrices"]["bench"]
        ratio = (
            bench["after"]["aggregate"]["accesses_per_sec"]
            / bench["before"]["aggregate"]["accesses_per_sec"]
        )
        assert ratio >= 1.0
        assert bench["speedup"] == pytest.approx(ratio, abs=5e-4)


class TestPerfCommand:
    """``repro perf --check``: the exit path CI's perf-smoke job gates on."""

    SLICE = [
        "perf", "--preset", "test", "--trace", "sjeng.1",
        "--machine", "baseline", "--repeats", "1",
    ]

    def _baseline(self, tmp_path, rate: float) -> Path:
        path = tmp_path / "BENCH_PERF.json"
        matrix = {"after": _payload(rate)}
        path.write_text(json.dumps({"matrices": {"test-ci": matrix}}))
        return path

    def _perf(self, tmp_path, rate: float) -> int:
        baseline = self._baseline(tmp_path, rate)
        return main(
            [*self.SLICE, "--check", str(baseline), "--section", "test-ci",
             "--output", str(tmp_path / "measured.json")]
        )

    def test_beaten_baseline_exits_0(self, tmp_path, capsys):
        assert self._perf(tmp_path, rate=1.0) == 0
        assert "perf gate OK" in capsys.readouterr().out
        measured = json.loads((tmp_path / "measured.json").read_text())
        assert [e["trace"] for e in measured["entries"]] == ["sjeng.1"]

    def test_unreachable_baseline_exits_1(self, tmp_path, capsys):
        assert self._perf(tmp_path, rate=1e15) == 1
        assert "PERF REGRESSION" in capsys.readouterr().err

    def _refused(self, monkeypatch, capsys, check, section: str) -> list[str]:
        """Run ``--check`` against a baseline that must fail before measuring."""

        def measure_matrix(*args, **kwargs):
            pytest.fail("measured the matrix before rejecting the baseline")

        monkeypatch.setattr("repro.sim.perfbench.measure_matrix", measure_matrix)
        code = main([*self.SLICE, "--check", str(check), "--section", section])
        assert code == 2
        return capsys.readouterr().err.splitlines()

    def test_missing_baseline_exits_2_before_measuring(
        self, tmp_path, monkeypatch, capsys
    ):
        missing = tmp_path / "nonexistent.json"
        err = self._refused(monkeypatch, capsys, missing, "test-ci")
        assert err == [f"error: baseline {missing}: No such file or directory"]

    def test_invalid_baseline_json_exits_2_before_measuring(
        self, tmp_path, monkeypatch, capsys
    ):
        garbled = tmp_path / "BENCH_PERF.json"
        garbled.write_text("{not json")
        err = self._refused(monkeypatch, capsys, garbled, "test-ci")
        assert len(err) == 1
        assert err[0].startswith(f"error: baseline {garbled}: Expecting ")

    def test_unknown_section_exits_2_before_measuring(
        self, tmp_path, monkeypatch, capsys
    ):
        baseline = self._baseline(tmp_path, rate=1.0)
        err = self._refused(monkeypatch, capsys, baseline, "typo")
        assert err == [
            f"error: baseline {baseline}: no section 'typo' with an 'after' "
            "payload (known sections: test-ci)"
        ]

    @pytest.mark.parametrize(
        "data, reason",
        [
            ([1], "not a measurement payload: expected a measurement object, got list"),
            (1, "not a measurement payload: expected a measurement object, got int"),
            (
                {"entries": []},
                "not a measurement payload: 'aggregate.accesses_per_sec' is not "
                "a positive number",
            ),
            (
                {"matrices": {"test-ci": {"after": {"entries": []}}}},
                "not a measurement payload: 'aggregate.accesses_per_sec' is not "
                "a positive number",
            ),
            (
                {"engine": "batch", "entries": {}, "aggregate": {"accesses_per_sec": 1}},
                "not a measurement payload: 'entries' is not a list",
            ),
            (
                {"engine": "batch", "entries": [], "aggregate": {"accesses_per_sec": 0}},
                "not a measurement payload: 'aggregate.accesses_per_sec' is not "
                "a positive number",
            ),
            ({"matrices": [1]}, "'matrices' is not an object"),
        ],
        ids=["list", "number", "no-aggregate", "wrapped", "entries", "rate", "matrices"],
    )
    def test_non_measurement_baseline_exits_2_before_measuring(
        self, tmp_path, monkeypatch, capsys, data, reason
    ):
        baseline = tmp_path / "BENCH_PERF.json"
        baseline.write_text(json.dumps(data))
        err = self._refused(monkeypatch, capsys, baseline, "test-ci")
        assert err == [f"error: baseline {baseline}: {reason}"]
