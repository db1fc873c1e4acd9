"""Workloads: traces, data models, generators, the Table I suite and mixes."""

from repro.workloads.datagen import (
    CATEGORY_MIXES,
    LineDataModel,
    PaletteEntry,
    PATTERNS,
    build_palette,
)
from repro.workloads.mixes import MixSpec, NUM_MIXES, THREADS_PER_MIX, build_mixes
from repro.workloads.suite import (
    all_specs,
    CATEGORIES,
    friendly_specs,
    poor_specs,
    sensitive_specs,
    TraceSpec,
    TraceSuite,
)
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

__all__ = [
    "all_specs",
    "build_mixes",
    "build_palette",
    "CATEGORIES",
    "CATEGORY_MIXES",
    "friendly_specs",
    "LineDataModel",
    "LOAD",
    "MixSpec",
    "NUM_MIXES",
    "PaletteEntry",
    "PATTERNS",
    "poor_specs",
    "sensitive_specs",
    "STORE",
    "THREADS_PER_MIX",
    "Trace",
    "TraceMeta",
    "TraceSpec",
    "TraceSuite",
]
