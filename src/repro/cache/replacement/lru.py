"""True LRU replacement.

Used in the paper's Section III/IV worked examples and as a Victim Cache
policy variant in Section VI.B.4.  Per-set state is a monotonically
increasing timestamp per way; the victim is the smallest timestamp.

The private L1/L2 do not use this class: each set of a
:class:`~repro.cache.setassoc.LRUCache` keeps LRU order as its dict
order, and the scalar kernel reads those dicts directly.  A
:class:`~repro.cache.setassoc.SetAssociativeCache` on this policy is the
stamp reference that dict order is tested against
(``tests/cache/test_setassoc.py`` and
``tests/sim/test_batch_equivalence.py``).
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy


class _LRUState:
    __slots__ = ("stamps", "clock")

    def __init__(self, ways: int) -> None:
        self.stamps = [0] * ways
        self.clock = 0


class LRUPolicy(ReplacementPolicy):
    """Least Recently Used."""

    name = "lru"
    # log2(16) bits per line for a 16-way stack position.
    metadata_bits = 4

    def make_set_state(self, ways: int, set_index: int) -> _LRUState:
        """Create fresh per-set replacement state."""
        return _LRUState(ways)

    # on_hit/on_fill are the single hottest policy calls in a run, so the
    # touch is written out in both rather than shared through a helper.
    def on_hit(self, state: _LRUState, way: int) -> None:
        """Update replacement state after a hit."""
        state.clock += 1
        state.stamps[way] = state.clock

    def on_fill(self, state: _LRUState, way: int) -> None:
        """Update replacement state after a fill."""
        state.clock += 1
        state.stamps[way] = state.clock

    def choose_victim(self, state: _LRUState) -> int:
        # index(min(...)) returns the first way holding the lowest stamp —
        # the same victim as a first-wins linear scan, at C speed.
        """Pick the way to evict for the next fill."""
        stamps = state.stamps
        return stamps.index(min(stamps))

    def eligible_victims(self, state: _LRUState) -> list[int]:
        """Bottom half of the LRU stack, least recent first."""
        order = sorted(range(len(state.stamps)), key=lambda w: state.stamps[w])
        return order[: max(1, len(order) // 2)]

    def on_invalidate(self, state: _LRUState, way: int) -> None:
        """Clear replacement state for an invalidated way."""
        state.stamps[way] = 0

    def stack_order(self, state: _LRUState) -> list[int]:
        """Ways from MRU to LRU — used by the VSC model's multi-evict fill."""
        return sorted(range(len(state.stamps)), key=lambda w: -state.stamps[w])
