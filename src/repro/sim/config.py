"""Simulation presets and machine configurations.

A **preset** fixes the scale of the experiment: the paper's geometry
(2MB LLC, 200M-instruction traces) or a proportionally scaled-down
version that runs in seconds per trace in pure Python.  Scaling the
caches and the workload footprints together preserves the reuse-distance/
capacity ratios, which is what every figure's *shape* depends on.

A **machine** fixes one hardware configuration under study: LLC
architecture, capacity (expressed as ways x set multiplier so 3MB-style
way additions and 4MB-style set doublings both work), replacement
policies and latency adders.  Machines are hashable and serialisable so
the experiment runner can cache results across benches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cache.config import CacheGeometry
from repro.cache.hierarchy import HierarchyConfig
from repro.cache.replacement import (
    POLICIES,
    VICTIM_POLICIES,
    make_policy,
    make_victim_policy,
)
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import LLCArchitecture
from repro.core.twotag import TwoTagLLC
from repro.core.dcc import DCCFunctionalLLC
from repro.core.scc import SCCFunctionalLLC
from repro.core.uncompressed import UncompressedLLC
from repro.core.vsc import VSCFunctionalLLC
from repro.compression.segments import SegmentGeometry

#: Paper baseline LLC: 2MB, 16 ways (Section V).
PAPER_LLC_BYTES = 2 * 2**20
PAPER_LLC_WAYS = 16
LINE_BYTES = 64


@dataclass(frozen=True)
class Preset:
    """Experiment scale: geometry scale factor and trace length."""

    name: str
    #: Linear scale applied to every cache capacity (1.0 = paper sizes).
    scale: float
    #: Accesses per single-threaded trace.
    trace_length: int

    @property
    def reference_llc_lines(self) -> int:
        """Line capacity of the scaled 2MB reference LLC."""
        return int(PAPER_LLC_BYTES * self.scale) // LINE_BYTES

    def llc_geometry(self, ways: int, sets_mult: float) -> CacheGeometry:
        """Concrete LLC geometry for this preset."""
        base_sets = int(PAPER_LLC_BYTES * self.scale) // (PAPER_LLC_WAYS * LINE_BYTES)
        sets = int(base_sets * sets_mult)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(
                f"sets_mult {sets_mult} yields non-power-of-two set count {sets}"
            )
        return CacheGeometry(sets * ways * LINE_BYTES, ways)

    def hierarchy_config(self, prefetch_degree: int = 2) -> HierarchyConfig:
        """Private L1/L2 configuration, scaled with the preset."""
        return HierarchyConfig(prefetch_degree=prefetch_degree).scaled(self.scale)


#: Paper-sized preset; traces are kept shorter than 200M instructions but
#: the geometry matches Section V exactly.
PAPER = Preset("paper", 1.0, 1_500_000)

#: Default bench preset: 1/8-scale geometry (256KB 16-way LLC, 4KB L1,
#: 32KB L2), 50k-access traces.  Used by ``benchmarks/``.
BENCH = Preset("bench", 1 / 8, 50_000)

#: Tiny preset for unit/integration tests.
TEST = Preset("test", 1 / 32, 6_000)

PRESETS = {preset.name: preset for preset in (PAPER, BENCH, TEST)}


#: Architecture registry keys.
ARCH_UNCOMPRESSED = "uncompressed"
ARCH_BASE_VICTIM = "base-victim"
ARCH_TWO_TAG = "two-tag"
ARCH_TWO_TAG_MODIFIED = "two-tag-modified"
ARCH_VSC = "vsc-2x"
ARCH_DCC = "dcc"
ARCH_SCC = "scc"

#: Every LLC architecture :meth:`MachineConfig.build_llc` can build, in
#: presentation order (the CLI's ``--arch`` choices).
ARCH_CHOICES = (
    ARCH_UNCOMPRESSED,
    ARCH_BASE_VICTIM,
    ARCH_TWO_TAG,
    ARCH_TWO_TAG_MODIFIED,
    ARCH_VSC,
    ARCH_DCC,
    ARCH_SCC,
)


class MachineConfigError(ValueError):
    """A machine configuration field holds an invalid value.

    Raised by :meth:`MachineConfig.validate` *before* any simulation or
    cache work starts, so a typo'd sweep fails in milliseconds instead
    of after warming half a cache.  Structured for programmatic use:
    ``field`` names the bad attribute, ``value`` is what it held, and
    ``choices`` lists the valid values when the field is an enumeration.
    """

    def __init__(
        self,
        field: str,
        value: object,
        message: str,
        choices: tuple[str, ...] = (),
    ) -> None:
        self.field = field
        self.value = value
        self.choices = choices
        detail = f"; valid choices: {', '.join(choices)}" if choices else ""
        super().__init__(f"machine config {field}={value!r}: {message}{detail}")


@dataclass(frozen=True)
class MachineConfig:
    """One hardware configuration under study."""

    arch: str = ARCH_UNCOMPRESSED
    #: Physical LLC ways (baseline ways for compressed architectures).
    llc_ways: int = PAPER_LLC_WAYS
    #: Set-count multiplier relative to the 2MB baseline (2.0 = 4MB).
    llc_sets_mult: float = 1.0
    #: Baseline replacement policy name.
    policy: str = "nru"
    #: Victim Cache insertion policy (Base-Victim only).
    victim_policy: str = "ecm"
    #: Extra LLC hit cycles, e.g. +1 for the larger 3MB array (Section VI.A).
    extra_llc_latency: int = 0
    prefetch_degree: int = 2
    #: Base-Victim only: False selects the Section IV.B.3 non-inclusive
    #: variant that allows dirty Victim Cache lines (LLC-only studies).
    clean_victims: bool = True

    @property
    def label(self) -> str:
        """Stable identifier used for result caching and reports."""
        parts = [
            self.arch,
            f"w{self.llc_ways}",
            f"m{self.llc_sets_mult:g}",
            self.policy,
        ]
        if self.arch == ARCH_BASE_VICTIM:
            parts.append(self.victim_policy)
            if not self.clean_victims:
                parts.append("dirty")
        if self.extra_llc_latency:
            parts.append(f"lat+{self.extra_llc_latency}")
        if self.prefetch_degree != 2:
            parts.append(f"pf{self.prefetch_degree}")
        return "-".join(parts)

    def validate(self) -> "MachineConfig":
        """Check every field eagerly; returns ``self`` for chaining.

        :meth:`build_llc` would eventually reject an unknown architecture
        or policy, but only deep inside the first simulation — after
        traces were generated and the cache directory created.  The CLI
        calls this at argument-parsing time instead, so the failure is a
        single structured :class:`MachineConfigError` naming the bad
        field and the valid choices.
        """
        if self.arch not in ARCH_CHOICES:
            raise MachineConfigError(
                "arch", self.arch, "unknown LLC architecture", ARCH_CHOICES
            )
        if self.policy not in POLICIES:
            raise MachineConfigError(
                "policy",
                self.policy,
                "unknown replacement policy",
                tuple(sorted(POLICIES)),
            )
        if self.victim_policy not in VICTIM_POLICIES:
            raise MachineConfigError(
                "victim_policy",
                self.victim_policy,
                "unknown victim-cache policy",
                tuple(sorted(VICTIM_POLICIES)),
            )
        if not isinstance(self.llc_ways, int) or self.llc_ways <= 0:
            raise MachineConfigError(
                "llc_ways", self.llc_ways, "must be a positive integer"
            )
        if self.llc_sets_mult <= 0:
            raise MachineConfigError(
                "llc_sets_mult", self.llc_sets_mult, "must be positive"
            )
        if self.extra_llc_latency < 0:
            raise MachineConfigError(
                "extra_llc_latency", self.extra_llc_latency, "must be >= 0"
            )
        if not isinstance(self.prefetch_degree, int) or self.prefetch_degree < 0:
            raise MachineConfigError(
                "prefetch_degree",
                self.prefetch_degree,
                "must be a non-negative integer",
            )
        return self

    def with_capacity(self, ways: int, sets_mult: float) -> "MachineConfig":
        """Same machine at a different LLC capacity."""
        return replace(self, llc_ways=ways, llc_sets_mult=sets_mult)

    def build_llc(self, preset: Preset) -> LLCArchitecture:
        """Instantiate the LLC architecture for this machine and preset."""
        geometry = preset.llc_geometry(self.llc_ways, self.llc_sets_mult)
        segment_geometry = SegmentGeometry(LINE_BYTES)
        if self.arch == ARCH_UNCOMPRESSED:
            return UncompressedLLC(geometry, make_policy(self.policy))
        if self.arch == ARCH_BASE_VICTIM:
            return BaseVictimLLC(
                geometry,
                make_policy(self.policy),
                make_victim_policy(self.victim_policy),
                segment_geometry,
                clean_victims=self.clean_victims,
            )
        if self.arch == ARCH_TWO_TAG:
            return TwoTagLLC(
                geometry, make_policy(self.policy), segment_geometry, modified=False
            )
        if self.arch == ARCH_TWO_TAG_MODIFIED:
            return TwoTagLLC(
                geometry, make_policy(self.policy), segment_geometry, modified=True
            )
        if self.arch == ARCH_VSC:
            return VSCFunctionalLLC(geometry, segment_geometry)
        if self.arch == ARCH_DCC:
            return DCCFunctionalLLC(geometry, segment_geometry)
        if self.arch == ARCH_SCC:
            return SCCFunctionalLLC(geometry, segment_geometry)
        raise ValueError(f"unknown architecture {self.arch!r}")


# ----------------------------------------------------------------------
# Common machine shorthands used across the benches.
# ----------------------------------------------------------------------

#: 2MB 16-way uncompressed NRU baseline (Section V).
BASELINE_2MB = MachineConfig()

#: Base-Victim on the 2MB baseline.
BASE_VICTIM_2MB = MachineConfig(arch=ARCH_BASE_VICTIM)

#: Naive two-tag strawman (Figure 6).
TWO_TAG_2MB = MachineConfig(arch=ARCH_TWO_TAG)

#: Modified two-tag strawman (Figure 7).
TWO_TAG_MODIFIED_2MB = MachineConfig(arch=ARCH_TWO_TAG_MODIFIED)

#: 3MB uncompressed: 8 extra ways and one extra cycle (Section VI.A).
UNCOMPRESSED_3MB = MachineConfig(llc_ways=24, extra_llc_latency=1)
