"""1-bit Not Recently Used (NRU) replacement.

The paper's default LLC policy (Section V): each line has one "referenced"
bit.  Hits and fills set the bit; the victim is the first way whose bit is
clear, searching from a rotating hand.  When every bit is set, all bits
are cleared (the classic NRU reset) and the way at the hand is the victim.

This is the one copy of NRU.  Every LLC that runs it — the uncompressed
cache, Base-Victim's Baseline Cache, the two-tag designs — keeps its bits
in each set's :class:`_NRUState`, and the scalar access kernel
(:mod:`repro.sim.batch`) sets and clears those bits inline but takes
every full-set victim from :meth:`NRUPolicy.choose_victim`.
"""

from __future__ import annotations

from repro.cache.replacement.base import ReplacementPolicy


class _NRUState:
    __slots__ = ("referenced", "hand")

    def __init__(self, ways: int) -> None:
        self.referenced = [False] * ways
        # Rotating start position so victims spread across ways.
        self.hand = 0


class NRUPolicy(ReplacementPolicy):
    """1-bit Not Recently Used."""

    name = "nru"
    metadata_bits = 1

    def make_set_state(self, ways: int, set_index: int) -> _NRUState:
        """Create fresh per-set replacement state."""
        return _NRUState(ways)

    def on_hit(self, state: _NRUState, way: int) -> None:
        """Update replacement state after a hit."""
        state.referenced[way] = True

    def on_fill(self, state: _NRUState, way: int) -> None:
        """Update replacement state after a fill."""
        state.referenced[way] = True

    def choose_victim(self, state: _NRUState) -> int:
        # Equivalent to scanning offsets 0..ways-1 from the hand (mod
        # ways) for the first clear bit, but with C-speed index() calls:
        # first the [hand:] segment, then the wrapped [:hand] prefix.
        """Pick the way to evict for the next fill."""
        referenced = state.referenced
        ways = len(referenced)
        hand = state.hand
        try:
            victim = referenced.index(False, hand)
        except ValueError:
            try:
                victim = referenced.index(False, 0, hand)
            except ValueError:
                # All referenced: age everything and victimize at the hand.
                for way in range(ways):
                    referenced[way] = False
                victim = hand
        state.hand = victim + 1 if victim + 1 < ways else 0
        return victim

    def eligible_victims(self, state: _NRUState) -> list[int]:
        """Ways ordered most-evictable first."""
        referenced = state.referenced
        ways = len(referenced)
        tier = [
            (state.hand + offset) % ways
            for offset in range(ways)
            if not referenced[(state.hand + offset) % ways]
        ]
        if tier:
            return tier
        # Everything referenced: age all lines, then all are eligible.
        for way in range(ways):
            referenced[way] = False
        return [(state.hand + offset) % ways for offset in range(ways)]

    def on_invalidate(self, state: _NRUState, way: int) -> None:
        """Clear replacement state for an invalidated way."""
        state.referenced[way] = False

    def on_hint(self, state: _NRUState, way: int) -> None:
        """A downgrade hint clears the referenced bit (used by CHAR)."""
        state.referenced[way] = False
