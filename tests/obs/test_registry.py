"""Unit tests for the observability registry and merge semantics."""

import json

import pytest

from repro.obs.registry import (
    CounterRegistry,
    MetricKindError,
    load_snapshots,
    merge_observations,
)


class TestCounterRegistry:
    def test_counter_accumulates(self):
        reg = CounterRegistry()
        reg.inc("llc/hits")
        reg.inc("llc/hits", 4)
        assert reg.counter("llc/hits").value == 5

    def test_histogram_buckets(self):
        reg = CounterRegistry()
        reg.observe("sizes", 8)
        reg.observe("sizes", 8)
        reg.observe("sizes", 64)
        hist = reg.histogram("sizes")
        assert hist.buckets == {8: 2, 64: 1}
        assert hist.total == 3

    def test_scoped_prefixes_and_nests(self):
        reg = CounterRegistry()
        llc = reg.scoped("llc")
        llc.inc("misses", 3)
        llc.scoped("victim").observe("occupancy", 7)
        assert reg.counter("llc/misses").value == 3
        assert reg.histogram("llc/victim/occupancy").buckets == {7: 1}

    def test_kind_mismatch_rejected(self):
        reg = CounterRegistry()
        reg.inc("metric")
        with pytest.raises(MetricKindError):
            reg.histogram("metric")
        with pytest.raises(MetricKindError):
            reg.timer("metric")

    def test_as_dict_sorted_and_without_timers(self):
        reg = CounterRegistry()
        reg.inc("z/last")
        reg.observe("a/first", 1)
        with reg.timer("phase/work"):
            pass
        out = reg.as_dict()
        assert list(out) == ["a/first", "z/last"]
        assert all(metric["kind"] != "timer" for metric in out.values())
        assert reg.timers["phase/work"] >= 0.0

    def test_as_dict_histogram_keys_are_strings(self):
        reg = CounterRegistry()
        reg.observe("h", 10)
        reg.observe("h", 2)
        out = reg.as_dict()["h"]
        assert out == {"kind": "histogram", "buckets": {"2": 1, "10": 1}}
        json.dumps(out)  # JSON-serialisable as-is

    def test_timer_accumulates_wall_time(self):
        reg = CounterRegistry()
        timer = reg.timer("phase/x")
        with timer:
            pass
        with timer:
            pass
        assert timer.seconds >= 0.0


class TestMergeObservations:
    def test_empty_inputs(self):
        assert merge_observations([]) == {}
        assert merge_observations([{}, {}]) == {}

    def test_counters_sum(self):
        a = {"c": {"kind": "counter", "value": 2}}
        b = {"c": {"kind": "counter", "value": 5}}
        assert merge_observations([a, b])["c"]["value"] == 7

    def test_empty_shard_is_identity(self):
        a = {"c": {"kind": "counter", "value": 2}}
        assert merge_observations([a, {}]) == merge_observations([a])

    def test_histograms_merge_disjoint_buckets(self):
        a = {"h": {"kind": "histogram", "buckets": {"1": 2}}}
        b = {"h": {"kind": "histogram", "buckets": {"9": 4}}}
        merged = merge_observations([a, b])
        assert merged["h"]["buckets"] == {"1": 2, "9": 4}

    def test_histograms_sum_shared_buckets(self):
        a = {"h": {"kind": "histogram", "buckets": {"1": 2, "3": 1}}}
        b = {"h": {"kind": "histogram", "buckets": {"3": 5}}}
        assert merge_observations([a, b])["h"]["buckets"] == {"1": 2, "3": 6}

    def test_bucket_keys_sorted_numerically(self):
        a = {"h": {"kind": "histogram", "buckets": {"10": 1}}}
        b = {"h": {"kind": "histogram", "buckets": {"2": 1}}}
        assert list(merge_observations([a, b])["h"]["buckets"]) == ["2", "10"]

    def test_kind_mismatch_between_shards_rejected(self):
        a = {"m": {"kind": "counter", "value": 1}}
        b = {"m": {"kind": "histogram", "buckets": {"1": 1}}}
        with pytest.raises(MetricKindError):
            merge_observations([a, b])

    def test_timers_rejected(self):
        with pytest.raises(MetricKindError):
            merge_observations([{"t": {"kind": "timer", "seconds": 1.0}}])

    def test_merge_does_not_mutate_inputs(self):
        a = {"h": {"kind": "histogram", "buckets": {"1": 1}}}
        b = {"h": {"kind": "histogram", "buckets": {"1": 1}}}
        merge_observations([a, b])
        assert a["h"]["buckets"] == {"1": 1}

    def test_registry_roundtrip_through_json(self):
        reg = CounterRegistry()
        reg.inc("c", 3)
        reg.observe("h", 5, 2)
        serialised = json.loads(json.dumps(reg.as_dict()))
        merged = merge_observations([serialised, serialised])
        assert merged["c"]["value"] == 6
        assert merged["h"]["buckets"] == {"5": 4}


class TestSnapshots:
    def test_write_then_load_round_trips_by_component(self, tmp_path):
        reg = CounterRegistry()
        reg.inc("serve/jobs_submitted", 3)
        with reg.timer("serve/batch"):
            pass
        reg.write_snapshot(tmp_path, "serve", pid=7, final=True)
        other = CounterRegistry()
        other.inc("dist/workers_lost")
        other.write_snapshot(tmp_path, "dist", report={"jobs": 2})

        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dist-stats.json",
            "serve-stats.json",
        ]
        snapshots = load_snapshots(tmp_path)
        assert list(snapshots) == ["dist", "serve"]
        serve = snapshots["serve"]
        assert serve["pid"] == 7 and serve["final"] is True
        assert serve["counters"] == reg.as_dict()
        assert set(serve["timers"]) == {"serve/batch"}
        assert snapshots["dist"]["report"] == {"jobs": 2}
        assert snapshots["dist"]["counters"]["dist/workers_lost"]["value"] == 1

    def test_rewrite_replaces_the_previous_snapshot(self, tmp_path):
        reg = CounterRegistry()
        reg.write_snapshot(tmp_path, "serve", final=False)
        reg.inc("serve/jobs_completed")
        reg.write_snapshot(tmp_path, "serve", final=True)
        snapshot = load_snapshots(tmp_path)["serve"]
        assert snapshot["final"] is True
        assert snapshot["counters"]["serve/jobs_completed"]["value"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["serve-stats.json"]

    def test_corrupt_or_non_object_snapshot_reads_as_absent(self, tmp_path):
        CounterRegistry().write_snapshot(tmp_path, "serve")
        (tmp_path / "dist-stats.json").write_text('{"counters": ')
        (tmp_path / "odd-stats.json").write_text("[1, 2]")
        assert list(load_snapshots(tmp_path)) == ["serve"]

    def test_missing_directory_has_no_snapshots(self, tmp_path):
        assert load_snapshots(tmp_path / "absent") == {}

    def test_unwritable_directory_is_swallowed(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        CounterRegistry().write_snapshot(blocker / "cache", "serve")
        assert load_snapshots(blocker / "cache") == {}
