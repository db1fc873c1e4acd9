"""Differential tests: parallel sweeps must be bit-identical to serial.

The parallel engine (``repro.sim.parallel``) may only ever be a
*scheduling* change: the same sweep run with ``jobs=1`` and ``jobs=4``
must produce identical result dicts, identical cache-hit accounting and
byte-identical cache files, sorted by key, on the first pass and on a
second (fully cached) pass.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.registry import merge_observations
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST
from repro.sim.experiment import ExperimentRunner
from repro.sim.parallel import JOBS_ENV, resolve_jobs
from repro.workloads.mixes import build_mixes

#: A small but heterogeneous sweep: four traces x two machines.
TRACES = ["sjeng.1", "mcf.1", "lbm.1", "octane.1"]


def _sweep(runner: ExperimentRunner) -> list[tuple[dict, dict]]:
    return [
        (base.to_dict(), bv.to_dict())
        for base, bv in runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, TRACES)
    ]


class TestDifferentialSingles:
    def test_jobs4_matches_jobs1_results_and_cache_bytes(self, tmp_path):
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "parallel", jobs=4)
        assert serial.jobs == 1 and parallel.jobs == 4

        assert _sweep(serial) == _sweep(parallel)

        serial_bytes = serial._cache_path.read_bytes()
        parallel_bytes = parallel._cache_path.read_bytes()
        assert serial_bytes  # something was actually written
        assert serial_bytes == parallel_bytes
        lines = serial_bytes.splitlines()
        assert lines == sorted(lines)  # each batch ends sorted by key

        # Identical accounting: nothing cached, 8 unique jobs simulated.
        assert (serial.cache_hits, serial.cache_misses) == (0, len(TRACES) * 2)
        assert (parallel.cache_hits, parallel.cache_misses) == (0, len(TRACES) * 2)

    def test_second_pass_is_all_cache_hits_and_leaves_file_untouched(self, tmp_path):
        first = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        results = _sweep(first)
        cache_bytes = first._cache_path.read_bytes()

        again = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        assert _sweep(again) == results
        assert (again.cache_hits, again.cache_misses) == (len(TRACES) * 2, 0)
        assert again._cache_path.read_bytes() == cache_bytes

    def test_no_shard_files_survive_a_sweep(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        _sweep(runner)
        leftovers = [p for p in tmp_path.rglob("*") if "shard" in p.name]
        assert leftovers == []

    def test_duplicate_requests_count_as_hits(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=4)
        runner.run_many(BASELINE_2MB, ["sjeng.1", "sjeng.1", "mcf.1"])
        assert runner.cache_misses == 2
        assert runner.cache_hits == 1


class TestObservationDeterminism:
    """Counters must merge across worker shards without drift."""

    def test_jobs4_counters_byte_identical_to_jobs1(self, tmp_path):
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "parallel", jobs=4)

        serial_obs = [
            run.obs for run in serial.run_many(BASE_VICTIM_2MB, TRACES)
        ]
        parallel_obs = [
            run.obs for run in parallel.run_many(BASE_VICTIM_2MB, TRACES)
        ]
        for ser, par in zip(serial_obs, parallel_obs):
            assert json.dumps(ser, sort_keys=True) == json.dumps(par, sort_keys=True)
        # Merged suite-level counters are byte-identical too.
        assert json.dumps(merge_observations(serial_obs)) == json.dumps(
            merge_observations(parallel_obs)
        )

    def test_runs_publish_the_papers_observables(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        obs = runner.run_single(BASE_VICTIM_2MB, "mcf.1").obs
        assert obs["llc/partner_evictions"]["kind"] == "counter"
        assert obs["llc/victim_occupancy"]["kind"] == "histogram"
        assert sum(obs["llc/victim_occupancy"]["buckets"].values()) > 0
        assert obs["hits/llc_victim"]["value"] == obs["llc/victim_hits"]["value"]
        for codec in ("bdi", "fpc", "cpack", "sc2", "zero"):
            assert obs[f"codec/{codec}/size_bytes"]["kind"] == "histogram"

    def test_no_timers_ever_serialise(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        obs = runner.run_single(BASE_VICTIM_2MB, "sjeng.1").obs
        assert obs  # the run did publish something
        assert all(metric["kind"] != "timer" for metric in obs.values())


class TestDifferentialMixes:
    def test_mix_sweep_parallel_matches_serial(self, tmp_path):
        mixes = build_mixes()[:2]
        serial = ExperimentRunner(TEST, cache_dir=tmp_path / "s", jobs=1)
        parallel = ExperimentRunner(TEST, cache_dir=tmp_path / "p", jobs=2)

        serial_results = serial.run_mixes(BASELINE_2MB, mixes)
        parallel_results = parallel.run_mixes(BASELINE_2MB, mixes)

        assert [r.to_dict() for r in serial_results] == [
            r.to_dict() for r in parallel_results
        ]
        assert serial._cache_path.read_bytes() == parallel._cache_path.read_bytes()
        assert (parallel.cache_hits, parallel.cache_misses) == (0, 2)


class TestMemoryOnlySweeps:
    def test_parallel_sweep_without_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        runner = ExperimentRunner(TEST, use_disk_cache=False, jobs=4)
        results = runner.run_many(BASELINE_2MB, TRACES)
        assert len(results) == len(TRACES)
        assert not (tmp_path / ".repro_cache").exists()


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(None, default=4) == 4

    def test_zero_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            resolve_jobs(None)
