"""Fault-tolerance tests: injected failures must never corrupt a sweep.

Every test arms :mod:`repro.sim.faultinject` through the environment
(inherited by pool workers) and asserts the two invariants of the
fault-tolerance layer:

* a sweep that survives its faults is *byte-identical* to a clean
  ``jobs=1`` run — retries, pool rebuilds and torn appends are pure
  scheduling noise, and a killed sweep's rerun recomputes only what it
  had not finished;
* a sweep that cannot survive degrades gracefully — structured
  :class:`~repro.sim.retry.FailedCell` records and ``sweep/*`` counters,
  never a missing cell without provenance.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.sim.experiment as experiment
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
from repro.sim.locking import FileLock
from repro.sim.parallel import SINGLE, SweepJob, run_sweep
from repro.sim.resultcache import scan_cache_file
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

    def test_a_broken_pool_takes_what_it_appended_from_the_cache(
        self, tmp_path, monkeypatch
    ):
        """One worker runs all three jobs and dies before the last: the
        two it appended are read back from the cache, not recomputed."""
        reference = ExperimentRunner(TEST, use_disk_cache=False)
        expected = [
            reference.run_single(BASELINE_2MB, trace).to_dict()
            for trace in TRACES[:3]
        ]
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "crashy")
        jobs = [
            SweepJob(
                key=runner.job_key(BASELINE_2MB, trace),
                kind=SINGLE,
                machine=BASELINE_2MB,
                trace_name=trace,
            )
            for trace in TRACES[:3]
        ]
        _arm(monkeypatch, tmp_path, "crash:2:1")
        outcome = run_sweep(
            TEST, jobs, jobs=1, chunksize=3, cache_path=runner.cache_path
        )
        assert (outcome.recovered_workers, outcome.cache_recovered) == (1, 2)
        assert outcome.results == expected

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


class TestTornAppends:
    """A line torn beside a pool worker's append is scrubbed by the batch end."""

    def test_corrupt_shard_line_is_counted_and_harmless(
        self, tmp_path, monkeypatch, clean_reference
    ):
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "corrupt:0:1")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "torn", jobs=2)
        scrubbed = rf"{runner._cache_path.name}: skipped 1 corrupt .*scrubbed"
        with pytest.warns(RuntimeWarning, match=scrubbed):
            assert _sweep(runner) == results
        assert runner._cache_path.read_bytes() == cache_bytes
        assert _counter(runner, "sweep/corrupt_lines") == 1
        assert runner.corrupt_lines_skipped == 1

    def test_torn_write_is_caught_by_crc_and_harmless(
        self, tmp_path, monkeypatch, clean_reference
    ):
        """A checksum-failed cache line is detected, counted, scrubbed."""
        results, cache_bytes = clean_reference
        _arm(monkeypatch, tmp_path, "torn-write:0:1")
        runner = ExperimentRunner(TEST, cache_dir=tmp_path / "torn-v5", jobs=2)
        scrubbed = rf"{runner._cache_path.name}: skipped 1 .*CRC.*scrubbed"
        with pytest.warns(RuntimeWarning, match=scrubbed):
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
        whether the next batch runs serially or in a worker pool."""
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


class TestLockTimeout:
    def test_a_worker_append_that_gives_up_still_delivers_its_cell(
        self, tmp_path, monkeypatch
    ):
        """The batch end writes what a worker could not append."""
        cells = [(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")]
        reference = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        reference.prewarm(cells)
        runner = ExperimentRunner(
            TEST, cache_dir=tmp_path / "locked", jobs=2, lock_timeout=0
        )
        holder = FileLock.for_target(runner.cache_path).acquire()
        sweep = experiment.run_sweep

        def sweep_then_release(*args, **kwargs):
            try:
                return sweep(*args, **kwargs)
            finally:
                holder.release()

        monkeypatch.setattr(experiment, "run_sweep", sweep_then_release)
        assert runner.prewarm(cells) == 2
        assert not holder.held
        assert all(runner.has_cached(*cell) for cell in cells)
        assert _counter(runner, "cache/lock_timeouts") == 2
        assert runner.cache_path.read_bytes() == reference.cache_path.read_bytes()


#: The killed sweep: 3 traces x 2 machines, its last job (index 5) hung.
KILLED_TRACES = ["sjeng.1", "mcf.1", "astar.1"]
KILLED_CELLS = [
    (machine, trace)
    for machine in (BASELINE_2MB, BASE_VICTIM_2MB)
    for trace in KILLED_TRACES
]


def _cells_on_disk(directory: Path) -> int:
    """Valid entries in every cache or shard file under ``directory``."""
    return sum(
        scan_cache_file(path).entries
        for path in directory.rglob("*.jsonl")
        if path.is_file()
    )


class TestKilledSweep:
    def test_a_rerun_recomputes_only_what_the_killed_sweep_left(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL a parallel sweep whose last job hangs, then rerun it.

        The five cells it finished are in the cache, so the rerun takes
        them as hits and simulates only the hung one.
        """
        cache_dir = tmp_path / "killed"
        env = os.environ.copy()
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env[CACHE_DIR_ENV] = str(cache_dir)
        env[FAULTS_ENV] = f"hang:{len(KILLED_CELLS) - 1}:1"
        env.pop(FAULTS_DIR_ENV, None)
        trace_args = [arg for trace in KILLED_TRACES for arg in ("--trace", trace)]
        sweep = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", "--preset", "test",
             "--jobs", "2", *trace_args],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            while _cells_on_disk(cache_dir) < len(KILLED_CELLS) - 1:
                assert sweep.poll() is None, "the sweep exited before it hung"
                assert time.monotonic() < deadline, "five cells never landed"
                time.sleep(0.2)
        finally:
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait(timeout=60)

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        rerun = ExperimentRunner(TEST, cache_dir=cache_dir, jobs=1)
        cached = [cell for cell in KILLED_CELLS if rerun.has_cached(*cell)]
        assert cached == KILLED_CELLS[:-1]
        assert rerun.prewarm(KILLED_CELLS) == 1
        assert (rerun.cache_hits, rerun.cache_misses) == (5, 1)
        assert list(cache_dir.glob("*.shards-*")) == []

        reference = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        reference.prewarm(KILLED_CELLS)
        assert rerun.cache_path.read_bytes() == reference.cache_path.read_bytes()

    def test_a_second_rerun_simulates_nothing_and_keeps_the_bytes(self, tmp_path):
        """A killed sweep leaves its cells in the order they finished and,
        if the kill landed mid-append, a torn tail.  The first rerun counts
        the tear once, recomputes the rest and leaves the serial sweep's
        sorted bytes; a second rerun simulates nothing and rewrites
        nothing."""
        reference = ExperimentRunner(TEST, cache_dir=tmp_path / "serial", jobs=1)
        reference.prewarm(KILLED_CELLS)
        serial = reference.cache_path.read_bytes()
        lines = serial.splitlines(keepends=True)
        path = tmp_path / "killed" / reference.cache_path.name
        path.parent.mkdir()
        path.write_bytes(b"".join(lines[2::-1]) + lines[3][: len(lines[3]) // 2])

        with pytest.warns(RuntimeWarning):
            rerun = ExperimentRunner(TEST, cache_dir=path.parent, jobs=2)
        assert rerun.prewarm(KILLED_CELLS) == 3
        assert (rerun.cache_hits, rerun.cache_misses) == (3, 3)
        assert _counter(rerun, "sweep/corrupt_lines") == 1
        assert path.read_bytes() == serial

        inode = path.stat().st_ino
        again = ExperimentRunner(TEST, cache_dir=path.parent, jobs=2)
        assert again.prewarm(KILLED_CELLS) == 0
        assert (again.cache_hits, again.cache_misses) == (6, 0)
        assert path.stat().st_ino == inode
        assert path.read_bytes() == serial


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
