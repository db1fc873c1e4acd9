"""Smoke tests for the full-size (paper geometry) preset."""

import pytest

from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, PAPER, PRESETS, Preset
from repro.sim.single_core import simulate_trace
from repro.workloads.suite import TraceSuite


class TestPaperGeometry:
    def test_llc_matches_section_v(self):
        geometry = PAPER.llc_geometry(16, 1.0)
        assert geometry.size_bytes == 2 * 2**20
        assert geometry.associativity == 16
        assert geometry.num_sets == 2048

    def test_hierarchy_matches_section_v(self):
        config = PAPER.hierarchy_config()
        assert config.l1_geometry.size_bytes == 32 * 1024
        assert config.l1_geometry.associativity == 8
        assert config.l2_geometry.size_bytes == 256 * 1024
        assert config.l2_geometry.associativity == 8

    def test_reference_lines(self):
        assert PAPER.reference_llc_lines == 32768

    def test_multiprogram_llc_4mb(self):
        geometry = PAPER.llc_geometry(16, 2.0)
        assert geometry.size_bytes == 4 * 2**20


class TestScaledPresets:
    """Every preset shrinks the paper's private caches with its LLC."""

    @pytest.mark.parametrize(
        "preset", PRESETS.values(), ids=lambda preset: preset.name
    )
    def test_private_caches_scale_with_the_llc(self, preset):
        config = preset.hierarchy_config(prefetch_degree=4)
        llc_bytes = preset.llc_geometry(16, 1.0).size_bytes
        assert config.l1_geometry.size_bytes * 64 == llc_bytes
        assert config.l2_geometry.size_bytes * 8 == llc_bytes
        assert config.l1_geometry.associativity == 8
        assert config.l2_geometry.associativity == 8
        assert config.prefetch_degree == 4


class TestPaperScaleExecution:
    """A short run at full geometry: expensive paths must work unscaled."""

    @pytest.fixture(scope="class")
    def short_paper(self):
        return Preset("paper-smoke", 1.0, 4000)

    def test_runs_and_keeps_guarantee(self, short_paper):
        suite = TraceSuite(short_paper.reference_llc_lines, short_paper.trace_length)
        trace = suite.trace("mcf.1")
        base = simulate_trace(
            trace, suite.data_model("mcf.1"), BASELINE_2MB, short_paper
        )
        bv = simulate_trace(
            trace, suite.data_model("mcf.1"), BASE_VICTIM_2MB, short_paper
        )
        assert base.ipc > 0 and bv.ipc > 0
        assert bv.llc_misses <= base.llc_misses
        # Full-size footprint: in 4000 accesses over a 3x-of-2MB Zipf
        # working set, most touches are to distinct lines.
        assert trace.unique_lines() > 2000
