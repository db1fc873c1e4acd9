"""Tests for pattern generators, the Table I suite and the mixes."""

import pytest

from repro.workloads.generators import PatternGenerator, PatternParams
from repro.workloads.mixes import build_mixes, NUM_MIXES, THREADS_PER_MIX
from repro.workloads.suite import (
    all_specs,
    CATEGORIES,
    friendly_specs,
    poor_specs,
    sensitive_specs,
    TraceSuite,
)
from repro.workloads.trace import TraceMeta


def make_trace(kind="zipf", footprint=512, length=2000, seed=3, **kwargs):
    params = PatternParams(kind=kind, footprint_lines=footprint, **kwargs)
    meta = TraceMeta(
        name="t",
        category="ispec",
        seed=seed,
        footprint_lines=footprint,
        comp_class="friendly",
        cache_sensitive=True,
    )
    return PatternGenerator(params, seed).generate(meta, length)


class TestGenerators:
    def test_length_and_parallel_arrays(self):
        trace = make_trace(length=1000)
        assert len(trace) == 1000
        assert len(trace.kinds) == len(trace.addrs) == len(trace.deltas) == 1000

    def test_deterministic(self):
        a = make_trace(seed=9)
        b = make_trace(seed=9)
        assert list(a.addrs) == list(b.addrs)
        assert list(a.kinds) == list(b.kinds)

    def test_different_seeds_differ(self):
        assert list(make_trace(seed=1).addrs) != list(make_trace(seed=2).addrs)

    def test_write_fraction_respected(self):
        trace = make_trace(write_fraction=0.3, length=5000)
        assert 0.25 < trace.write_fraction < 0.35

    def test_zero_write_fraction(self):
        trace = make_trace(write_fraction=0.0, length=500)
        assert trace.write_fraction == 0.0

    def test_deltas_positive_with_requested_mean(self):
        trace = make_trace(instrs_per_access=8.0, length=5000)
        deltas = list(trace.deltas)
        assert all(d >= 1 for d in deltas)
        assert 6.5 < sum(deltas) / len(deltas) < 9.5

    def test_scan_touches_lines_once(self):
        trace = make_trace(kind="scan", footprint=10_000, length=3000)
        assert trace.unique_lines() == 3000

    def test_stream_is_sequential_within_pages(self):
        trace = make_trace(kind="stream", footprint=4096, length=3000,
                           hot_fraction=0.0, num_streams=1)
        increments = sum(
            1
            for i in range(1, len(trace))
            if trace.addrs[i] - trace.addrs[i - 1] == 1
        )
        assert increments > len(trace) * 0.8

    def test_footprint_respected(self):
        trace = make_trace(kind="zipf", footprint=256, length=5000,
                           hot_fraction=0.0)
        base = min(trace.addrs)
        assert max(trace.addrs) - base < 256

    def test_hot_fraction_creates_reuse(self):
        cold = make_trace(kind="zipf", footprint=65536, length=4000, hot_fraction=0.0)
        hot = make_trace(kind="zipf", footprint=65536, length=4000,
                         hot_fraction=0.5, hot_lines=32)
        assert hot.unique_lines() < cold.unique_lines()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PatternGenerator(PatternParams(kind="markov", footprint_lines=10), 1)

    def test_invalid_footprint_rejected(self):
        with pytest.raises(ValueError):
            PatternGenerator(PatternParams(kind="zipf", footprint_lines=0), 1)

    def test_empty_hot_set_rejected_when_hot_accesses_are_asked_for(self):
        with pytest.raises(ValueError, match="hot_lines"):
            PatternGenerator(
                PatternParams(kind="zipf", footprint_lines=64, hot_lines=0, hot_fraction=0.1), 1
            )
        # Without hot accesses the hot set is never drawn from.
        params = PatternParams(kind="zipf", footprint_lines=64, hot_lines=0, hot_fraction=0.0)
        meta = TraceMeta("t", "ispec", 1, 64, "friendly", True)
        got = PatternGenerator(params, 1).generate(meta, 500)
        want = PatternGenerator(params, 1)._reference_generate(meta, 500)
        assert got.addrs == want.addrs

    def test_deltas_beyond_int32_rejected(self):
        with pytest.raises(ValueError, match="instrs_per_access"):
            PatternGenerator(
                PatternParams(kind="zipf", footprint_lines=64, instrs_per_access=2.0**31), 1
            )

    def test_invalid_length_rejected(self):
        params = PatternParams(kind="zipf", footprint_lines=16)
        generator = PatternGenerator(params, 1)
        meta = TraceMeta("t", "ispec", 1, 16, "friendly", True)
        with pytest.raises(ValueError):
            generator.generate(meta, 0)


class TestSuitePopulation:
    """The suite must match Table I and Section VI.A's population."""

    def test_100_traces(self):
        assert len(all_specs()) == 100

    def test_category_counts_match_table1(self):
        counts = {cat: 0 for cat in CATEGORIES}
        for spec in all_specs():
            counts[spec.category] += 1
        assert counts == {
            "fspec": 30,
            "ispec": 29,
            "productivity": 14,
            "client": 27,
        }

    def test_60_cache_sensitive(self):
        assert len(sensitive_specs()) == 60

    def test_50_friendly_10_poor(self):
        assert len(friendly_specs()) == 50
        assert len(poor_specs()) == 10

    def test_names_are_unique(self):
        names = [spec.name for spec in all_specs()]
        assert len(names) == len(set(names))

    def test_seeds_are_unique(self):
        seeds = [spec.seed for spec in all_specs()]
        assert len(seeds) == len(set(seeds))


class TestTraceSuite:
    def test_trace_generation_and_caching(self):
        suite = TraceSuite(reference_llc_lines=1024, length=2000)
        first = suite.trace("mcf.1")
        second = suite.trace("mcf.1")
        assert first is second
        assert len(first) == 2000

    def test_unknown_trace_rejected(self):
        suite = TraceSuite(1024, 100)
        with pytest.raises(KeyError):
            suite.trace("doom.1")

    def test_working_sets_scale_with_reference(self):
        small = TraceSuite(512, 4000)
        large = TraceSuite(2048, 4000)
        assert (
            large.trace("mcf.1").unique_lines() > small.trace("mcf.1").unique_lines()
        )

    def test_data_models_are_fresh_per_call(self):
        suite = TraceSuite(512, 100)
        a = suite.data_model("mcf.1")
        b = suite.data_model("mcf.1")
        assert a is not b
        assert a.size_of(7) == b.size_of(7)

    def test_friendly_traces_have_compressible_data(self):
        suite = TraceSuite(512, 100)
        model = suite.data_model("mcf.1")
        assert model.average_size_fraction() < 0.6

    def test_poor_traces_have_incompressible_data(self):
        suite = TraceSuite(512, 100)
        for spec in poor_specs()[:3]:
            model = suite.data_model(spec.name)
            assert model.average_size_fraction() > 0.75

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TraceSuite(0, 100)
        with pytest.raises(ValueError):
            TraceSuite(100, 0)


class TestMixes:
    def test_20_mixes_of_4(self):
        mixes = build_mixes()
        assert len(mixes) == NUM_MIXES
        for mix in mixes:
            assert len(mix.trace_names) == THREADS_PER_MIX

    def test_mixes_draw_from_sensitive_traces(self):
        sensitive = {spec.name for spec in sensitive_specs()}
        for mix in build_mixes():
            assert set(mix.trace_names) <= sensitive

    def test_mixes_are_deterministic(self):
        assert build_mixes() == build_mixes()

    def test_mix_names_unique(self):
        names = [mix.name for mix in build_mixes()]
        assert len(names) == len(set(names))

    def test_custom_count(self):
        assert len(build_mixes(count=5)) == 5
