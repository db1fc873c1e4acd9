"""Additional report-formatting tests."""

from repro.sim.report import (
    category_table,
    sweep_health_summary,
    traffic_summary,
)
from repro.sim.single_core import RunResult


def run(trace, reads=100, writes=50, llc=1000):
    return RunResult(
        trace=trace,
        machine="m",
        memory_reads=reads,
        memory_writes=writes,
        llc_data_reads=llc,
    )


class TestCategoryTable:
    def test_contains_all_categories_and_average(self):
        table = category_table(
            {"bv": {"mcf.1": 1.1, "lbm.1": 1.05, "sysmark.1": 1.2, "octane.1": 1.0}},
            "Title",
        )
        for token in ("fspec", "ispec", "productivity", "client", "average", "bv"):
            assert token in table

    def test_multiple_rows(self):
        series = {
            "a": {"mcf.1": 1.0, "lbm.1": 1.0, "sysmark.1": 1.0, "octane.1": 1.0},
            "b": {"mcf.1": 2.0, "lbm.1": 2.0, "sysmark.1": 2.0, "octane.1": 2.0},
        }
        table = category_table(series, "T")
        assert "1.000" in table and "2.000" in table


class TestTrafficSummary:
    def test_ratios_computed(self):
        base = [run("a"), run("b")]
        bv = [run("a", reads=80, writes=50, llc=1310), run("b", reads=88, writes=50, llc=1310)]
        text = traffic_summary(bv, base)
        assert "0.840" in text  # reads ratio
        assert "1.000" in text  # writes ratio
        assert "1.310" in text  # LLC accesses ratio

    def test_zero_baselines_safe(self):
        base = [run("a", reads=0, writes=0, llc=0)]
        bv = [run("a", reads=0, writes=0, llc=0)]
        text = traffic_summary(bv, base)
        assert "DRAM reads ratio" in text


class TestSweepHealthSummary:
    def test_every_counter_in_order_with_unfired_ones_as_zero(self):
        line = sweep_health_summary(
            {
                "sweep/retries": {"kind": "counter", "value": 3},
                "cache/crc_failures": {"kind": "counter", "value": 1},
                "sweep/failures": {"kind": "gauge", "value": 9},
            }
        )
        assert line.split("  ") == [
            "retries: 3",
            "failures: 0",
            "recovered workers: 0",
            "cells recovered from crashed pools: 0",
            "corrupt cache lines skipped: 0",
            "lock waits: 0",
            "lock timeouts: 0",
            "CRC failures: 1",
        ]
