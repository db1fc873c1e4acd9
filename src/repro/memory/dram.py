"""DDR3 main-memory timing model.

Models the paper's memory system (Section V): two channels of DDR3-1600
with timing parameters tCL-tRCD-tRP-tRAS = 15-15-15-34 (DRAM clock cycles
at 800 MHz; the CPU runs at 4 GHz, i.e. 5 CPU cycles per DRAM cycle).

The model is event-free but stateful: each bank tracks its open row and
the CPU-cycle time at which it next becomes available, and each channel
tracks data-bus occupancy.  A read's latency therefore includes queueing
behind earlier requests, so heavier read traffic yields longer average
latency — which is exactly the coupling that makes the paper's "DRAM Read
Ratio" curves track the IPC curves in Figures 6-8 and 12.

A request finds its bank in one flat table, indexed by the line address
modulo the number of banks in the system, and each bank holds its
channel's bus; ``DRAMModel._map`` documents the same mapping as
(channel, bank, row).

Writes are posted (they occupy banks and the bus but add no core stall).
Energy counters (activations, reads, writes) feed the Micron-style energy
model in :mod:`repro.memory.power`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DRAMTimings:
    """DDR3 timing parameters, in DRAM clock cycles."""

    tCL: int = 15
    tRCD: int = 15
    tRP: int = 15
    tRAS: int = 34
    #: Burst length 8 moves a 64B line in 4 DRAM clocks.
    burst_cycles: int = 4

    @property
    def row_hit_cycles(self) -> int:
        """DRAM cycles for an access that hits the open row."""
        return self.tCL

    @property
    def row_empty_cycles(self) -> int:
        """DRAM cycles for an access to a precharged bank."""
        return self.tRCD + self.tCL

    @property
    def row_conflict_cycles(self) -> int:
        """DRAM cycles for an access that closes and reopens a row."""
        return self.tRP + self.tRCD + self.tCL


@dataclass(frozen=True)
class DRAMConfig:
    """Organisation of the memory system (paper defaults)."""

    channels: int = 2
    banks_per_channel: int = 8
    #: 64B lines per row: 8KB rows.
    lines_per_row: int = 128
    timings: DRAMTimings = DRAMTimings()
    #: CPU cycles per DRAM cycle (4 GHz core / 800 MHz DDR3-1600 clock).
    cpu_per_dram_cycle: int = 5
    #: Fixed controller/interconnect latency in CPU cycles each way.
    controller_cycles: int = 30


class _Bus:
    """One channel's data bus: the CPU cycle at which it is next free."""

    __slots__ = ("free",)

    def __init__(self) -> None:
        self.free = 0.0


class _Bank:
    """One bank's open row and timing, and its channel's bus."""

    __slots__ = ("open_row", "ready_time", "activate_time", "bus")

    def __init__(self, bus: _Bus) -> None:
        self.open_row: int | None = None
        self.ready_time = 0.0
        self.activate_time = -(10**9)
        self.bus = bus


class DRAMModel:
    """Two-channel, multi-bank DDR3 with open-row policy and queueing."""

    def __init__(self, config: DRAMConfig | None = None) -> None:
        self.config = config or DRAMConfig()
        cfg = self.config
        # One flat bank table.  Bank ``b`` of channel ``c`` sits at index
        # ``c + channels * b``: for a line that _map sends to (c, b, row),
        # that index is ``line % (channels * banks)`` and the row is
        # ``line // (channels * banks * lines_per_row)``.
        buses = [_Bus() for _ in range(cfg.channels)]
        self._bank_count = cfg.channels * cfg.banks_per_channel
        self._banks = [
            _Bank(buses[index % cfg.channels]) for index in range(self._bank_count)
        ]
        self._system_row_lines = self._bank_count * cfg.lines_per_row
        # Hot-path constants, precomputed so read and write do no
        # dataclass field or property lookups.  All integer products, so
        # latencies are bit-identical to computing them per request.
        timings = cfg.timings
        ratio = cfg.cpu_per_dram_cycle
        self._controller = cfg.controller_cycles
        self._row_hit_cpu = timings.row_hit_cycles * ratio
        self._row_empty_cpu = timings.row_empty_cycles * ratio
        self._row_conflict_cpu = timings.row_conflict_cycles * ratio
        self._tras_cpu = timings.tRAS * ratio
        self._burst_cpu = timings.burst_cycles * ratio
        self.stat_reads = 0
        self.stat_writes = 0
        self.stat_row_hits = 0
        self.stat_row_conflicts = 0
        self.stat_activates = 0
        self.stat_total_read_latency = 0.0

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def _map(self, line_addr: int) -> tuple[int, int, int]:
        """line address -> (channel, bank, row).

        Channels interleave at line granularity and banks right above, so
        streaming accesses spread across the whole system.  ``read`` and
        ``write`` compute the same mapping as one index into the flat
        bank table and one row quotient (see ``__init__``).
        """
        cfg = self.config
        channel = line_addr % cfg.channels
        rest = line_addr // cfg.channels
        bank = rest % cfg.banks_per_channel
        rest //= cfg.banks_per_channel
        row = rest // cfg.lines_per_row
        return channel, bank, row

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def read(self, line_addr: int, now: float) -> float:
        """Issue a read at CPU-cycle ``now``; return its latency in CPU cycles."""
        # The request body (the mapping plus the precomputed CPU-cycle
        # constants) is duplicated across read/write: these are the two
        # hottest calls of a miss-dominated run, and a shared helper
        # would cost one extra frame per DRAM request.
        bank = self._banks[line_addr % self._bank_count]
        row = line_addr // self._system_row_lines

        controller = self._controller
        start = now + controller
        if bank.ready_time > start:
            start = bank.ready_time

        open_row = bank.open_row
        if open_row == row:
            access_cpu = self._row_hit_cpu
            self.stat_row_hits += 1
        elif open_row is None:
            access_cpu = self._row_empty_cpu
            self.stat_activates += 1
        else:
            # Conflict: respect tRAS since the previous activate before
            # precharging the old row.
            self.stat_row_conflicts += 1
            self.stat_activates += 1
            earliest_pre = bank.activate_time + self._tras_cpu
            if earliest_pre > start:
                start = earliest_pre
            access_cpu = self._row_conflict_cpu
        bank.open_row = row
        bank.activate_time = start

        data_ready = start + access_cpu
        bus = bank.bus
        if bus.free > data_ready:
            data_ready = bus.free
        completion = data_ready + self._burst_cpu
        bus.free = completion
        bank.ready_time = completion

        latency = completion + controller - now
        self.stat_reads += 1
        self.stat_total_read_latency += latency
        return latency

    def write(self, line_addr: int, now: float) -> None:
        """Issue a posted write; occupies the bank/bus but stalls nothing."""
        # Same request body as read(); see the comment there.
        bank = self._banks[line_addr % self._bank_count]
        row = line_addr // self._system_row_lines

        start = now + self._controller
        if bank.ready_time > start:
            start = bank.ready_time

        open_row = bank.open_row
        if open_row == row:
            access_cpu = self._row_hit_cpu
            self.stat_row_hits += 1
        elif open_row is None:
            access_cpu = self._row_empty_cpu
            self.stat_activates += 1
        else:
            self.stat_row_conflicts += 1
            self.stat_activates += 1
            earliest_pre = bank.activate_time + self._tras_cpu
            if earliest_pre > start:
                start = earliest_pre
            access_cpu = self._row_conflict_cpu
        bank.open_row = row
        bank.activate_time = start

        data_ready = start + access_cpu
        bus = bank.bus
        if bus.free > data_ready:
            data_ready = bus.free
        completion = data_ready + self._burst_cpu
        bus.free = completion
        bank.ready_time = completion

        self.stat_writes += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def average_read_latency(self) -> float:
        """Mean read latency in CPU cycles (0 when no reads were issued)."""
        if self.stat_reads == 0:
            return 0.0
        return self.stat_total_read_latency / self.stat_reads

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests that hit an open row."""
        total = self.stat_reads + self.stat_writes
        if total == 0:
            return 0.0
        return self.stat_row_hits / total
