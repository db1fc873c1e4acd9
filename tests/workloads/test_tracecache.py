"""Tests for the bounded per-process trace memo (batch-wide reuse)."""

import gc
import weakref

import pytest

from repro.cli import main
from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, TEST
from repro.sim.experiment import ExperimentRunner
from repro.sim.faultinject import FAULTS_DIR_ENV, FAULTS_ENV
from repro.sim.retry import SweepFailedError
from repro.workloads import tracecache
from repro.workloads.datagen import build_palette, LineDataModel
from repro.workloads.suite import TraceSuite
from repro.workloads.tracecache import (
    TraceCache,
    process_cache,
    reset_process_cache,
)


@pytest.fixture(autouse=True)
def _fresh_process_cache():
    """Isolate every test from cache state built by earlier ones."""
    reset_process_cache()
    yield
    reset_process_cache()


class TestTraceCache:
    def test_loader_runs_once_per_key(self):
        cache = TraceCache(max_entries=4)
        calls = []
        for _ in range(3):
            value = cache.get(("k", 1), lambda: calls.append(1) or "v")
            assert value == "v"
        assert calls == [1]
        assert cache.stat_misses == 1
        assert cache.stat_hits == 2

    def test_lru_bound_evicts_oldest(self):
        cache = TraceCache(max_entries=2)
        cache.get(("a",), lambda: 1)
        cache.get(("b",), lambda: 2)
        cache.get(("a",), lambda: 1)  # refresh a; b is now oldest
        cache.get(("c",), lambda: 3)  # evicts b
        assert cache.stat_evictions == 1
        assert len(cache) == 2
        cache.get(("a",), lambda: pytest.fail("a must still be resident"))
        cache.get(("b",), lambda: 4)  # miss: was evicted
        assert cache.stat_misses == 4

    def test_zero_entries_disables_retention_but_counts(self):
        cache = TraceCache(max_entries=0)
        calls = []
        cache.get(("k",), lambda: calls.append(1) or "v")
        cache.get(("k",), lambda: calls.append(1) or "v")
        assert calls == [1, 1]
        assert cache.stat_misses == 2
        assert cache.stat_hits == 0
        assert cache.stat_evictions == 0
        assert len(cache) == 0
        assert cache.stat_load_seconds >= 0.0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=-1)

    def test_clear_keeps_lifetime_counters(self):
        cache = TraceCache(max_entries=4)
        cache.get(("k",), lambda: 1)
        cache.get(("k",), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        snap = cache.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["entries"] == 0

    def test_snapshot_shape(self):
        snap = TraceCache(max_entries=3).snapshot()
        assert set(snap) == {
            "hits",
            "misses",
            "evictions",
            "entries",
            "max_entries",
            "load_seconds",
        }


class TestProcessCache:
    def test_singleton_identity(self):
        assert process_cache() is process_cache()

    def test_env_bound_override(self, monkeypatch):
        monkeypatch.setenv(tracecache.MAX_ENTRIES_ENV, "5")
        reset_process_cache()
        assert process_cache().max_entries == 5

    def test_env_bound_garbage_is_rejected(self, monkeypatch):
        monkeypatch.setenv(tracecache.MAX_ENTRIES_ENV, "not-a-number")
        reset_process_cache()
        with pytest.raises(ValueError, match="must be an integer, got 'not-a-number'"):
            process_cache()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_env_bound_garbage_fails_the_command(
        self, command, capsys, tmp_path, monkeypatch
    ):
        """Resolved when the runner is built, so a malformed bound exits 2
        instead of failing every cell (which a relaxed sweep exits 0 on)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv(tracecache.MAX_ENTRIES_ENV, "abc")
        reset_process_cache()
        assert main([command, "--preset", "test", "--trace", "sjeng.1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "error: $REPRO_TRACE_CACHE_ENTRIES must be an integer, got 'abc'"
        ]
        assert not list(tmp_path.iterdir())


class TestSuiteIntegration:
    def test_trace_shared_across_suite_instances(self):
        one = TraceSuite(reference_llc_lines=512, length=400)
        two = TraceSuite(reference_llc_lines=512, length=400)
        trace = one.trace("mcf.1")
        assert two.trace("mcf.1") is trace
        snap = process_cache().snapshot()
        assert snap["misses"] == 1
        assert snap["hits"] == 1

    def test_presets_do_not_collide(self):
        short = TraceSuite(reference_llc_lines=512, length=400)
        long = TraceSuite(reference_llc_lines=512, length=800)
        assert len(short.trace("mcf.1")) == 400
        assert len(long.trace("mcf.1")) == 800
        assert process_cache().snapshot()["misses"] == 2

    def test_repeat_call_is_one_process_cache_hit(self):
        suite = TraceSuite(reference_llc_lines=512, length=400)
        trace = suite.trace("mcf.1")
        assert suite.trace("mcf.1") is trace
        snap = process_cache().snapshot()
        assert (snap["misses"], snap["hits"]) == (1, 1)

    def test_bound_limits_what_a_suite_keeps(self, monkeypatch):
        monkeypatch.setenv(tracecache.MAX_ENTRIES_ENV, "1")
        reset_process_cache()
        suite = TraceSuite(reference_llc_lines=512, length=400)
        first = weakref.ref(suite.trace("mcf.1"))
        suite.trace("sjeng.1")
        gc.collect()
        # The suite holds no trace of its own: once the bound evicts
        # mcf.1, nothing keeps it alive.
        assert first() is None

    def test_primed_size_memo_matches_unprimed_model(self):
        suite = TraceSuite(reference_llc_lines=512, length=400)
        trace = suite.trace("mcf.1")

        primed = suite.data_model("mcf.1")
        primed.prime_size_memo(trace.addrs)

        spec = suite.spec("mcf.1")
        fresh = LineDataModel(
            build_palette(spec.category, spec.comp_class, spec.seed),
            seed=spec.seed,
        )
        for addr in set(trace.addrs):
            assert primed.size_of(addr) == fresh.size_of(addr)

    def test_models_of_one_trace_prime_equal_independent_memos(self):
        suite = TraceSuite(reference_llc_lines=512, length=400)
        trace = suite.trace("mcf.1")
        first = suite.data_model("mcf.1")
        first.prime_size_memo(trace.addrs)
        second = suite.data_model("mcf.1")
        second.prime_size_memo(trace.addrs)
        assert second.size_memo == first.size_memo
        # Size tables are not memoised: the trace is the only entry.
        assert len(process_cache()) == 1
        addr = trace.addrs[0]
        version0 = second.size_memo[addr]
        for _ in range(64):
            first.on_write(addr)
        assert first.size_memo[addr] != version0  # the stores rotated it
        assert second.size_memo[addr] == version0
        assert second.size_of(addr) == version0

    def test_priming_after_a_store_is_refused(self):
        suite = TraceSuite(reference_llc_lines=512, length=400)
        trace = suite.trace("mcf.1")
        model = suite.data_model("mcf.1")
        model.on_write(trace.addrs[0])
        with pytest.raises(ValueError, match="before any on_write"):
            model.prime_size_memo(trace.addrs)


class TestBatchScope:
    """A batch generates each trace once and leaves nothing in the memo."""

    def test_run_pair_generates_the_trace_once_and_keeps_nothing(self, tmp_path):
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1)
        runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, ["mcf.1"])
        snap = process_cache().snapshot()
        assert (snap["misses"], snap["hits"]) == (1, 1)
        assert len(process_cache()) == 0

    def test_failed_strict_batch_keeps_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "fail:0:99")
        monkeypatch.setenv(FAULTS_DIR_ENV, str(tmp_path / "stamps"))
        runner = ExperimentRunner(TEST, cache_dir=tmp_path, jobs=1, retries=0)
        with pytest.raises(SweepFailedError):
            runner.prewarm([(BASELINE_2MB, "sjeng.1"), (BASELINE_2MB, "mcf.1")])
        assert process_cache().stat_misses == 1  # the surviving cell's trace
        assert len(process_cache()) == 0
