"""Fault-tolerance tests: injected failures must never corrupt a sweep.

Every test arms :mod:`repro.sim.faultinject` through the environment
(inherited by pool workers) and asserts the two invariants of the
fault-tolerance layer:

* a sweep that survives its faults is *byte-identical* to a clean
  ``jobs=1`` run — retries, pool rebuilds and shard salvage are pure
  scheduling noise;
* a sweep that cannot survive degrades gracefully — structured
  :class:`~repro.sim.retry.FailedCell` records and ``sweep/*`` counters,
  never a missing cell without provenance.
"""

from __future__ import annotations

import threading

import pytest

from repro.cli import main
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST
from repro.sim.experiment import CACHE_DIR_ENV, ExperimentRunner
from repro.sim.faultinject import (
    FAULTS_DIR_ENV,
    FAULTS_ENV,
    Fault,
    InjectedFault,
    parse_faults,
)
from repro.sim.resultcache import encode_entry
from repro.sim.retry import RetryPolicy, SweepFailedError

TRACES = ["sjeng.1", "mcf.1", "lbm.1", "octane.1"]


def _sweep(runner: ExperimentRunner) -> list[tuple[dict, dict]]:
    return [
        (base.to_dict(), bv.to_dict())
        for base, bv in runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, TRACES)
    ]


@pytest.fixture()
def clean_reference(tmp_path):
    """A clean serial sweep: (results, cache bytes) to diff against."""
    runner = ExperimentRunner(TEST, cache_dir=tmp_path / "reference", jobs=1)
    results = _sweep(runner)
    return results, runner._cache_path.read_bytes()


def _arm(monkeypatch, tmp_path, spec: str) -> None:
    monkeypatch.setenv(FAULTS_ENV, spec)
    monkeypatch.setenv(FAULTS_DIR_ENV, str(tmp_path / "stamps"))


def _counter(runner: ExperimentRunner, name: str) -> int:
    metric = runner.registry.as_dict().get(name)
    return metric["value"] if metric else 0


class TestTransientFaults:
    def test_transient_failure_retries_to_byte_identity(
        self, tmp_path, monkeypatch, clean_reference
    ):
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "fail:2:2")
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path / "faulty", jobs=4, retries=3
        )
        assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert runner.failed_cells == []
        assert _counter(runner, "sweep/retries") >= 2
        assert _counter(runner, "sweep/failures") == 0

    def test_worker_crash_is_recovered_to_byte_identity(
        self, tmp_path, monkeypatch, clean_reference
    ):
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "crash:3:1")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "crashy", jobs=4)
        assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "sweep/recovered_workers") == 1
        # No shard litter after recovery either.
        leftovers = [p for p in (tmp_path / "crashy").rglob("*") if "shard" in p.name]
        assert leftovers == []

    def test_crash_plus_transient_failure_in_one_sweep(
        self, tmp_path, monkeypatch, clean_reference
    ):
        """The acceptance scenario: crash + transient fault, no operator."""
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "fail:1:2,crash:5:1")
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path / "both", jobs=3, retries=3
        )
        assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert runner.failed_cells == []
        assert _counter(runner, "sweep/recovered_workers") == 1

    def test_hang_is_cut_by_watchdog_and_retried(
        self, tmp_path, monkeypatch, clean_reference
    ):
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "hang:0:1")
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path / "hung", jobs=2, retries=1, job_timeout=1.0
        )
        assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "sweep/retries") == 1

    def test_serial_path_retries_identically(
        self, tmp_path, monkeypatch, clean_reference
    ):
        """jobs=1 goes through the same retry primitive as the workers."""
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "fail:0:1")
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path / "serial-faulty", jobs=1, retries=2
        )
        assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "sweep/retries") == 1


class TestGracefulDegradation:
    def test_retry_exhaustion_becomes_failed_cell(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "fail:0:99")
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path, jobs=2, retries=1, strict=False
        )
        done = runner.prewarm(
            [(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")]
        )
        assert done == 1  # the healthy cell completed
        [failure] = runner.failed_cells
        assert failure.error == "InjectedFault"
        assert failure.attempts == 2  # first try + one retry
        assert failure.elapsed > 0
        assert _counter(runner, "sweep/failures") == 1
        # The failed cell stays uncached; the healthy one is cached.
        assert runner.has_cached(BASELINE_2MB, "mcf.1")
        assert not runner.has_cached(BASELINE_2MB, "sjeng.1")

    @pytest.mark.parametrize(
        "jobs, cells, on_thread",
        [
            (2, [(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")], False),
            # A serve batch runs prewarm on its executor thread, where a
            # signal cannot arm the watchdog in-process.
            (1, [(BASELINE_2MB, "sjeng.1")], True),
        ],
        ids=["pool", "thread"],
    )
    def test_timeout_exhaustion_is_reported_as_timeout(
        self, tmp_path, monkeypatch, jobs, cells, on_thread
    ):
        _arm(monkeypatch, tmp_path, "hang:0:99")
        runner = ExperimentRunner(
            TEST,
            cache_dir=tmp_path,
            jobs=jobs,
            retries=0,
            job_timeout=0.5,
            strict=False,
        )
        if on_thread:
            thread = threading.Thread(
                target=runner.prewarm, args=(cells,), daemon=True
            )
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive(), "the hung job was never timed out"
        else:
            runner.prewarm(cells)
        [failure] = runner.failed_cells
        assert failure.error == "JobTimeoutError"
        assert failure.attempts == 1

    def test_strict_mode_raises_after_caching_survivors(self, tmp_path, monkeypatch):
        _arm(monkeypatch, tmp_path, "fail:0:99")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=2, retries=0)
        with pytest.raises(SweepFailedError) as excinfo:
            runner.prewarm([(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")])
        assert len(excinfo.value.failures) == 1
        assert runner.has_cached(BASELINE_2MB, "mcf.1")  # survivor cached


class TestSingleRun:
    """A ``repro run`` miss runs under the sweep's retry primitive."""

    def test_run_honours_retries(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        _arm(monkeypatch, tmp_path, "fail:0:1")
        command = ["run", "--preset", "test", "--trace", "mcf.1"]
        assert main(command) == 1
        assert "1 sweep job(s) failed after retries" in capsys.readouterr().err
        assert main(command + ["--retries", "1"]) == 0
        assert "IPC:" in capsys.readouterr().out

    def test_a_failed_cell_of_a_lenient_runner_raises_sweep_failed(
        self, tmp_path, monkeypatch
    ):
        _arm(monkeypatch, tmp_path, "fail:0:99")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1, strict=False)
        with pytest.raises(SweepFailedError) as excinfo:
            runner.run_single(BASELINE_2MB, "sjeng.1")
        [failure] = excinfo.value.failures
        assert failure.error == "InjectedFault"


class TestCorruptShards:
    def test_corrupt_shard_line_is_counted_and_harmless(
        self, tmp_path, monkeypatch, clean_reference
    ):
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "corrupt:0:1")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "torn", jobs=2)
        with pytest.warns(RuntimeWarning, match="corrupt cache line"):
            assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "sweep/corrupt_lines") == 1
        assert runner.corrupt_lines_skipped == 1

    def test_torn_write_is_caught_by_crc_and_harmless(
        self, tmp_path, monkeypatch, clean_reference
    ):
        """A checksum-failed shard line is detected, counted, skipped."""
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "torn-write:0:1")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "torn-v5", jobs=2)
        with pytest.warns(RuntimeWarning, match="CRC"):
            assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "cache/crc_failures") == 1
        # CRC failures are a subset of the corrupt-line tally.
        assert _counter(runner, "sweep/corrupt_lines") == 1

    def test_corrupt_main_cache_lines_are_accounted_on_load(self, tmp_path):
        donor = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        donor.run_single(BASELINE_2MB, "sjeng.1")
        with donor._cache_path.open("a") as handle:
            handle.write('{"key": "torn-mid-wri\n')
        with pytest.warns(RuntimeWarning):
            again = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        assert again.corrupt_lines_skipped == 1
        assert _counter(again, "sweep/corrupt_lines") == 1

    def test_main_file_rejections_count_once_serial_or_parallel(self, tmp_path):
        """A torn and a CRC-failed main-file line count once, at load,
        whether the next batch runs serially or merges worker shards."""
        donor = ExperimentRunner(TEST, cache_dir=tmp_path / "donor", jobs=1)
        donor.run_single(BASELINE_2MB, "sjeng.1")
        [line] = donor._cache_path.read_text().splitlines()
        flipped = line.replace("sjeng.1", "sjeng.9", 1)  # CRC no longer matches
        torn = '{"key": "torn-mid-wri'
        counts = {}
        for jobs in (1, 2):
            directory = tmp_path / f"jobs-{jobs}"
            directory.mkdir()
            (directory / donor._cache_path.name).write_text(
                "\n".join((line, torn, flipped)) + "\n"
            )
            with pytest.warns(RuntimeWarning):
                runner = ExperimentRunner(TEST, cache_dir=directory, jobs=jobs)
            assert runner.prewarm(
                [(BASELINE_2MB, "mcf.1"), (BASE_VICTIM_2MB, "mcf.1")]
            ) == 2
            counts[jobs] = (
                runner.corrupt_lines_skipped,
                _counter(runner, "cache/crc_failures"),
            )
        assert counts[1] == counts[2] == (2, 1)


class TestResume:
    def _orphan_shards(self, runner: ExperimentRunner, donor, keys) -> None:
        """Fabricate what a SIGKILLed sweep leaves behind: shard files
        from a dead pid, never merged into the main cache."""
        shard_dir = runner._cache_path.parent / (
            runner._cache_path.stem + ".shards-999999999"
        )
        shard_dir.mkdir()
        with (shard_dir / "shard-1.jsonl").open("w") as handle:
            for key in keys:
                handle.write(encode_entry(key, donor._memory[key]) + "\n")

    def test_resume_recovers_exactly_the_completed_cells(self, tmp_path):
        donor = ExperimentRunner(TEST, cache_dir=tmp_path / "donor", jobs=1)
        donor.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, TRACES)

        interrupted = ExperimentRunner(TEST, cache_dir=tmp_path / "killed", jobs=1)
        completed = sorted(donor._memory)[:3]
        self._orphan_shards(interrupted, donor, completed)

        resumed = ExperimentRunner(TEST, cache_dir=tmp_path / "killed", jobs=1)
        salvaged = resumed.resume_orphan_shards()
        assert salvaged == sorted(completed)
        assert _counter(resumed, "sweep/resumed_cells") == 3
        # The orphan directory is gone; entries are on disk now.
        assert not list((tmp_path / "killed").glob("*.shards-*"))

        # The resumed sweep recomputes only the missing cells.
        assert _sweep(resumed) == _sweep(donor)
        assert resumed.cache_misses == len(TRACES) * 2 - 3
        assert resumed.cache_hits == 3

    def test_resume_is_idempotent_and_skips_cached_keys(self, tmp_path):
        donor = ExperimentRunner(TEST, cache_dir=tmp_path / "donor", jobs=1)
        donor.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, TRACES[:2])

        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "r", jobs=1)
        keys = sorted(donor._memory)[:2]
        self._orphan_shards(runner, donor, keys)
        fresh = ExperimentRunner(TEST, cache_dir=tmp_path / "r", jobs=1)
        assert fresh.resume_orphan_shards() == keys
        assert fresh.resume_orphan_shards() == []  # nothing left to salvage

        # A shard whose keys are already cached contributes nothing.
        self._orphan_shards(fresh, donor, keys)
        assert fresh.resume_orphan_shards() == []

    def test_live_shard_directories_are_left_alone(self, tmp_path):
        import os

        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        live_dir = runner._cache_path.parent / (
            runner._cache_path.stem + f".shards-{os.getpid()}"
        )
        live_dir.mkdir()
        try:
            assert runner.resume_orphan_shards() == []
            assert live_dir.exists()
        finally:
            live_dir.rmdir()


class TestRetryPolicyUnit:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, backoff_base=0.05, backoff_cap=0.4)
        delays = [policy.delay("some|key", attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.delay("some|key", a) for a in (1, 2, 3, 9)]
        assert all(d > 0 for d in delays)
        assert max(delays) <= 0.4 * (1 + policy.jitter)
        assert policy.delay("other|key", 1) != delays[0]  # per-key jitter

    def test_env_resolution(self, monkeypatch):
        from repro.sim.retry import (
            JOB_TIMEOUT_ENV,
            RETRIES_ENV,
            resolve_job_timeout,
            resolve_retries,
        )

        monkeypatch.setenv(RETRIES_ENV, "3")
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "2.5")
        assert resolve_retries() == 3
        assert resolve_retries(1) == 1  # explicit beats env
        assert resolve_job_timeout() == 2.5
        monkeypatch.setenv(JOB_TIMEOUT_ENV, "0")
        assert resolve_job_timeout() is None  # <= 0 disables
        monkeypatch.setenv(RETRIES_ENV, "lots")
        with pytest.raises(ValueError, match=RETRIES_ENV):
            resolve_retries()


class TestFaultSpecUnit:
    def test_parse_round_trip(self):
        assert parse_faults("fail:2:1, crash:0:1") == (
            Fault("fail", 2, 1),
            Fault("crash", 0, 1),
        )
        assert parse_faults("") == ()

    def test_malformed_specs_rejected(self):
        for bad in ("explode:1:1", "fail:1", "fail:x:1"):
            with pytest.raises(ValueError):
                parse_faults(bad)

    def test_fail_fault_fires_by_attempt(self, monkeypatch):
        from repro.sim import faultinject

        monkeypatch.setenv(FAULTS_ENV, "fail:7:2")
        with pytest.raises(InjectedFault):
            faultinject.before_attempt(7, 1)
        with pytest.raises(InjectedFault):
            faultinject.before_attempt(7, 2)
        faultinject.before_attempt(7, 3)  # past its budget: no fault
        faultinject.before_attempt(8, 1)  # other jobs untouched

    def test_crash_without_stamp_dir_is_disarmed(self, monkeypatch):
        from repro.sim import faultinject

        monkeypatch.setenv(FAULTS_ENV, "crash:0:1")
        monkeypatch.delenv(FAULTS_DIR_ENV, raising=False)
        faultinject.before_attempt(0, 1)  # must NOT os._exit
