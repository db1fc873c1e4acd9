"""Self-test of the end-to-end benchmark harness (about 15 s).

Run from the repository root with either of::

    python3 benchmarks/e2e/selftest.py
    PYTHONPATH=src python3 -m pytest benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST  # noqa: E402
from repro.sim.single_core import simulate_trace  # noqa: E402
from repro.workloads.suite import TraceSuite, sensitive_specs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_drive_equals_simulate_trace_and_replays_reproduce_it():
    suite = TraceSuite(TEST.reference_llc_lines, TEST.trace_length)
    trace = suite.trace("mcf.1")
    for machine in (BASELINE_2MB, BASE_VICTIM_2MB):
        expected = simulate_trace(trace, suite.data_model("mcf.1"), machine, TEST)
        result = layers.drive(trace, suite.data_model("mcf.1"), machine, TEST)
        for field in layers.DRIVE_FIELDS:
            assert result.counts[field] == getattr(expected, field), field
        assert result.llc.log and result.dram.log
        assert layers.verify_llc(machine, TEST, result.llc.log)
        assert layers.verify_dram(result.dram.log)

        # A changed outcome anywhere in a stream must fail its replay.
        op, addr, kind, size, outcome = next(e for e in result.llc.log if e[0] == 0)
        flipped = (not outcome[0],) + outcome[1:]
        bad = [(op, addr, kind, size, flipped)] + result.llc.log[1:]
        assert not layers.verify_llc(machine, TEST, bad)
        read = next(i for i, e in enumerate(result.dram.log) if e[0] == 0)
        bad = list(result.dram.log)
        bad[read] = bad[read][:3] + (bad[read][3] + 1,)
        assert not layers.verify_dram(bad)


def _tampered_reference(directory: Path) -> Path:
    """The committed cache with one Figure 8 cell's cycle count changed."""
    source = oracle.default_reference(ROOT)
    assert source is not None
    lines = source.read_text().splitlines()
    target = f"|{BASELINE_2MB.label}|{sensitive_specs()[0].name}|"
    for index, line in enumerate(lines):
        payload = line.rpartition("#")[0]
        entry = json.loads(payload)
        if target in entry["key"]:
            entry["result"]["cycles"] += 1.0
            payload = json.dumps(entry, sort_keys=True)
            lines[index] = f"{payload}#{zlib.crc32(payload.encode()) & 0xFFFFFFFF:08x}"
            break
    else:
        raise AssertionError(f"no committed cell matches {target}")
    path = directory / "tampered.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tampered_payload_is_counted_failed_and_the_run_exits_1():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as directory:
        tampered = _tampered_reference(Path(directory))
        reference = oracle.Reference(tampered)
        committed = oracle.Reference(oracle.default_reference(ROOT))
        [key] = [
            k for k in reference.canonical
            if reference.canonical[k] != committed.canonical[k]
        ]
        assert reference.matches(key, json.loads(reference.canonical[key]))
        assert not reference.matches(key, json.loads(committed.canonical[key]))
        assert not reference.matches(None, {})

        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "figs-warm",
             "--seconds", "1", "--reference", str(tampered)],
            capture_output=True,
            text=True,
            timeout=170,
        )
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] < result["attempted"]
    assert set(result["metrics"]) == set(worker.E2E_METRICS)


def test_self_time_subtracts_the_union_of_children():
    records = [
        (1, "a", 0.0, 10.0, 0, "client"),
        (2, "b", 1.0, 4.0, 1, "client"),
        (3, "c", 3.0, 6.0, 1, "client"),  # overlaps b: union is [1, 6]
        (4, "d", 2.0, 3.0, 2, "client"),
        (1, "a", 20.0, 25.0, 0, "server"),  # same id, other process
    ]
    selfs = spans.self_times(records)
    assert selfs[("client", 1)] == 5.0
    assert selfs[("client", 2)] == 2.0
    assert selfs[("client", 3)] == 3.0
    assert selfs[("client", 4)] == 1.0
    assert selfs[("server", 1)] == 5.0
    for span_id, _, start, end, _, run_id in records:
        assert 0.0 <= selfs[(run_id, span_id)] <= end - start
    assert spans.by_name(records)["a"] == (2, 10.0)


def test_wrapped_calls_nest_and_restore():
    recorder = spans.Spans("test")

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    recorder.wrap("outer", Layer, "outer")
    recorder.wrap("inner", Layer, "inner")
    assert Layer().outer() == 2
    recorder.restore()
    assert Layer.outer is original
    inner, outer = recorder.records
    assert (inner[1], outer[1]) == ("inner", "outer")
    assert inner[4] == outer[0] and outer[4] == 0
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]


def test_seed_chooses_cells_and_the_same_seed_the_same_ones():
    names = sorted(spec.name for spec in sensitive_specs())
    assert sorted(t for stratum in oracle.COST_STRATA for t in stratum) == names
    assert oracle.cold_traces(0) == oracle.cold_traces(0)
    assert oracle.cold_traces(0) != oracle.cold_traces(1)
    assert sorted(oracle.cold_traces(1)) == names
    cycle = len(oracle.STRATUM_ORDER)
    first = oracle.cold_traces(5)[:cycle]
    assert sorted(next(i for i, s in enumerate(oracle.COST_STRATA) if t in s)
                  for t in first) == list(range(cycle))
    assert layers.drive_traces(0) == layers.drive_traces(0)
    assert layers.drive_traces(0) != layers.drive_traces(1)


def test_metric_names_are_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == worker.E2E_METRICS
    assert declared_layers == worker.LAYER_METRICS
    for name in (*declared_e2e, *declared_layers):
        assert NAME.fullmatch(name), name
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(worker.WORKLOADS) == list(run.WORKLOADS)


if __name__ == "__main__":
    tests = [value for key, value in sorted(globals().items()) if key.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
