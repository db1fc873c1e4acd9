"""Tests for the DDR3 timing model."""

import pytest

from repro.memory.dram import DRAMConfig, DRAMModel, DRAMTimings


class TestTimings:
    def test_paper_parameters(self):
        t = DRAMTimings()
        assert (t.tCL, t.tRCD, t.tRP, t.tRAS) == (15, 15, 15, 34)

    def test_latency_classes_ordered(self):
        t = DRAMTimings()
        assert t.row_hit_cycles < t.row_empty_cycles < t.row_conflict_cycles


class TestRowBuffer:
    def test_first_access_activates(self):
        dram = DRAMModel()
        dram.read(0, 0.0)
        assert dram.stat_activates == 1
        assert dram.stat_row_hits == 0

    def test_sequential_lines_hit_open_rows(self):
        dram = DRAMModel()
        # Lines interleave channel (bit 0) then bank; re-reading the same
        # line is a guaranteed row hit.
        dram.read(0, 0.0)
        latency_hit = dram.read(0, 10_000.0)
        assert dram.stat_row_hits == 1
        dram_far = DRAMModel()
        dram_far.read(0, 0.0)
        latency_conflict = dram_far.read(
            0 + DRAMConfig().channels * DRAMConfig().banks_per_channel * DRAMConfig().lines_per_row,
            10_000.0,
        )
        assert dram_far.stat_row_conflicts == 1
        assert latency_conflict > latency_hit

    def test_row_hit_rate(self):
        dram = DRAMModel()
        for _ in range(10):
            dram.read(0, 100_000.0 * _)
        assert dram.row_hit_rate == pytest.approx(0.9)


class TestQueueing:
    def test_back_to_back_requests_queue(self):
        dram = DRAMModel()
        first = dram.read(0, 0.0)
        # Same bank, same instant: must wait for the first to finish.
        second = dram.read(0, 0.0)
        assert second > first

    def test_different_channels_do_not_queue(self):
        dram = DRAMModel()
        a = dram.read(0, 0.0)  # channel 0
        b = dram.read(1, 0.0)  # channel 1
        assert b == pytest.approx(a)

    def test_spaced_requests_do_not_queue(self):
        dram = DRAMModel()
        first = dram.read(0, 0.0)
        relaxed = dram.read(0, 1_000_000.0)
        assert relaxed <= first  # row hit, no queueing

    def test_heavier_traffic_raises_average_latency(self):
        tight = DRAMModel()
        for i in range(64):
            tight.read(i, 0.0)
        sparse = DRAMModel()
        for i in range(64):
            sparse.read(i, i * 10_000.0)
        assert tight.average_read_latency > sparse.average_read_latency


class TestWrites:
    def test_writes_counted_but_not_stalling(self):
        dram = DRAMModel()
        dram.write(0, 0.0)
        assert dram.stat_writes == 1
        assert dram.stat_reads == 0

    def test_writes_occupy_banks(self):
        dram = DRAMModel()
        dram.write(0, 0.0)
        delayed = dram.read(0, 0.0)
        fresh = DRAMModel().read(0, 0.0)
        assert delayed > fresh

    def test_average_latency_zero_without_reads(self):
        assert DRAMModel().average_read_latency == 0.0


class TestFlatBankTable:
    """``read`` and ``write`` reach the bank and row that ``_map`` names.

    The request path indexes one flat bank table by
    ``line % (channels * banks)``; bank ``b`` of channel ``c`` sits at
    ``c + channels * b`` and holds channel ``c``'s bus.
    """

    @pytest.mark.parametrize(
        "config",
        [DRAMConfig(), DRAMConfig(channels=3, banks_per_channel=5, lines_per_row=7)],
        ids=["default", "3x5x7"],
    )
    def test_every_request_lands_in_the_mapped_bank_and_row(self, config):
        dram = DRAMModel(config)
        channels = config.channels
        system_row = channels * config.banks_per_channel * config.lines_per_row
        # Three system rows, then the same small lines at each mix thread's
        # address-space offset (repro.sim.multi_core).
        lines = [*range(3 * system_row)]
        lines += [(k << 44) + line for k in range(1, 5) for line in range(64)]
        assert len({id(bank.bus) for bank in dram._banks}) == channels
        for n, line in enumerate(lines):
            channel, bank, row = dram._map(line)
            before = [(b.open_row, b.ready_time) for b in dram._banks]
            if n % 2:
                dram.write(line, float(n))
            else:
                dram.read(line, float(n))
            touched = [
                index
                for index, b in enumerate(dram._banks)
                if (b.open_row, b.ready_time) != before[index]
            ]
            assert touched == [channel + channels * bank], line
            target = dram._banks[touched[0]]
            assert target.open_row == row, line
            assert target.bus is dram._banks[channel].bus
            assert target.bus.free == target.ready_time
