"""End-of-run machine state, in a form two runs can compare with ``==``.

The engine oracles compare results and serialised observations.  Two
engines can agree on every counter and still leave different cache
contents behind: a victim-recency clock that never ticks changes no
counter until a policy reads it.  :func:`machine_state` turns the L1,
L2, prefetcher, LLC and DRAM model that a run's hierarchies end with,
and each thread's core clock, into plain nested values.  Dict order is
kept, because the private caches' LRU order lives in it.  A mix records
its measurement at each thread's first pass end, so only the cores show
a kernel that leaves its final clock unwritten.
"""

from __future__ import annotations

import reprlib
from array import array

from repro.cache.hierarchy import CacheHierarchy
from repro.timing.core_model import CoreTimingModel


def plain(value):
    """``value`` as nested lists and dicts of scalars.

    An object becomes a dict of its attributes (``__dict__`` and
    ``__slots__``) plus its type name; a dict becomes its list of
    ``[key, value]`` pairs, in order.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, array)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return [[key, plain(item)] for key, item in value.items()]
    if callable(value):
        raise TypeError(f"no plain form for {value!r}")
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if not name.startswith("__") and hasattr(value, name):
                fields[name] = getattr(value, name)
    state = {name: plain(item) for name, item in fields.items()}
    state["__type__"] = type(value).__name__
    return state


def record_hierarchies(monkeypatch, module) -> list[CacheHierarchy]:
    """Make ``module`` record every hierarchy and core it builds.

    Both drivers build each thread's hierarchy and then its core, so a
    recorded core is kept as the last recorded hierarchy's
    ``recorded_core``.
    """
    built: list[CacheHierarchy] = []

    class Recorded(CacheHierarchy):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    class RecordedCore(CoreTimingModel):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            assert not hasattr(built[-1], "recorded_core")
            built[-1].recorded_core = self

    monkeypatch.setattr(module, "CacheHierarchy", Recorded)
    monkeypatch.setattr(module, "CoreTimingModel", RecordedCore)
    return built


def machine_state(hierarchies: list[CacheHierarchy]) -> dict:
    """Each thread's L1, L2, prefetcher and core, then the shared LLC and DRAM."""
    llc = hierarchies[0].llc
    memory = hierarchies[0].memory
    assert all(h.llc is llc and h.memory is memory for h in hierarchies)
    cores = [h.recorded_core for h in hierarchies]
    return {
        "threads": [
            {
                "l1": plain(h.l1),
                "l2": plain(h.l2),
                "prefetcher": plain(h.prefetcher),
                "core": {
                    "cycles": core.cycles,
                    "instructions": core.instructions,
                    "stall_cycles": core.stall_cycles,
                },
            }
            for h, core in zip(hierarchies, cores)
        ],
        "llc": plain(llc),
        "memory": plain(memory),
    }


def differences(a, b, limit: int = 8) -> list[str]:
    """Up to ``limit`` paths at which two plain states differ."""
    found: list[str] = []

    def walk(x, y, where: str) -> None:
        if len(found) >= limit or x == y:
            return
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(x.keys() | y.keys()):
                if key in x and key in y:
                    walk(x[key], y[key], f"{where}.{key}")
                else:
                    found.append(f"{where}.{key}: present on one side only")
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for index, (p, q) in enumerate(zip(x, y)):
                walk(p, q, f"{where}[{index}]")
        else:
            found.append(f"{where}: {reprlib.repr(x)} != {reprlib.repr(y)}")

    walk(a, b, "state")
    return found


def assert_same_state(actual: list[CacheHierarchy], expected: list[CacheHierarchy]):
    """Both runs left the same L1, L2, prefetcher, core, LLC and DRAM state.

    ``actual``'s LLC must also pass its own ``check_invariants`` (for
    Base-Victim, among others, that no victim line is dirty).
    """
    diffs = differences(machine_state(actual), machine_state(expected))
    assert not diffs, "end states differ:\n" + "\n".join(diffs)
    check = getattr(actual[0].llc, "check_invariants", None)
    if check is not None:
        check()
