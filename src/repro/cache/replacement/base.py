"""Replacement policy interface.

A policy instance is shared by all sets of one cache; per-set state lives in
a small mutable object created by :meth:`ReplacementPolicy.make_set_state`.
The cache calls back into the policy on every hit, fill and invalidation,
and asks it to pick a victim way on replacement.  Invalid ways are always
preferred as victims; ``choose_victim`` is only consulted when the set is
full, exactly as in the paper's baseline cache.

Policies must be deterministic: any randomness comes from an internal
deterministic PRNG seeded at construction so that experiments reproduce
bit-for-bit.
"""

from __future__ import annotations

import abc
import functools
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import numpy as np

# The block form imports NumPy when first used, as the program imports the
# two modules that build arrays (ARCHITECTURE.md, below the module map),
# so that ``import repro`` never loads NumPy.

#: Shape of one :meth:`DeterministicRandom.block`: ``BLOCK_LANES`` lanes,
#: each stepping ``BLOCK_STEPS`` states from its own jump-ahead start.
BLOCK_LANES = 256
BLOCK_STEPS = 64
BLOCK_DRAWS = BLOCK_LANES * BLOCK_STEPS


class ReplacementPolicy(abc.ABC):
    """Abstract replacement policy for a set-associative cache."""

    #: Short identifier used in configuration and reports.
    name: str = "abstract"

    #: Bits of replacement metadata per line, for area accounting.
    metadata_bits: int = 0

    @abc.abstractmethod
    def make_set_state(self, ways: int, set_index: int) -> Any:
        """Create per-set policy state for a set with ``ways`` ways."""

    @abc.abstractmethod
    def on_hit(self, state: Any, way: int) -> None:
        """Update state after a hit to ``way``."""

    @abc.abstractmethod
    def on_fill(self, state: Any, way: int) -> None:
        """Update state after filling a new line into ``way``."""

    def on_fill_sized(self, state: Any, way: int, size_segments: int | None) -> None:
        """Fill hook carrying the line's compressed size.

        Compressed-cache architectures call this variant so size-aware
        policies (CAMP-style, Section VII.C) can see the size; the default
        ignores it and defers to :meth:`on_fill`.  ``size_segments`` is
        None in uncompressed caches.
        """
        self.on_fill(state, way)

    @abc.abstractmethod
    def choose_victim(self, state: Any) -> int:
        """Pick the victim way in a full set."""

    def on_invalidate(self, state: Any, way: int) -> None:
        """Update state after ``way`` is invalidated (default: no-op)."""

    def on_hint(self, state: Any, way: int) -> None:
        """React to a downgrade hint (CHAR-style); default: no-op."""

    def eligible_victims(self, state: Any) -> list[int]:
        """Ways the policy currently considers acceptable victims.

        Used by the modified two-tag architecture (Section VI.A), which
        searches "for a tag (based on NRU) which does not need to evict its
        partner" — i.e. it intersects the policy's eviction candidates with
        the fit constraint.  The default defers to :meth:`choose_victim`'s
        single answer; age-based policies override this to return their
        whole not-recently-used tier.  Implementations may age internal
        state (as NRU does when every line is referenced).
        """
        return [self.choose_victim(state)]

    def notes(self) -> str:
        """Free-form description used in experiment reports."""
        return self.name


class DeterministicRandom:
    """Tiny xorshift64* PRNG: deterministic, fast, no external state.

    Used wherever the paper says "random replacement" so results are
    reproducible across runs and platforms.

    Bulk consumers use the block form instead of calling :meth:`next`
    per draw.  :meth:`block` returns the next ``BLOCK_DRAWS`` outputs as
    a NumPy array without advancing; :meth:`skip` then advances past as
    many of them as the caller used.  The xorshift step is linear over
    GF(2), so the state ``n`` steps ahead is a fixed 64x64 bit matrix
    applied to the current one: the block jumps each of its
    ``BLOCK_LANES`` lanes ``BLOCK_STEPS * lane`` states ahead with those
    matrices (built once per process, on first use) and then steps all
    lanes together.  Both forms yield the same sequence, bit for bit.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self._state = (seed or 1) & 0xFFFFFFFFFFFFFFFF

    def next(self) -> int:
        """Next 64-bit pseudo-random value."""
        x = self._state
        x ^= (x >> 12) & 0xFFFFFFFFFFFFFFFF
        x = (x ^ (x << 25)) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

    def below(self, bound: int) -> int:
        """Uniform-ish integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return self.next() % bound

    def choice(self, items: Sequence[Any]) -> Any:
        """Pick one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.below(len(items))]

    def block(self) -> np.ndarray:
        """The next ``BLOCK_DRAWS`` values of :meth:`next`, as ``uint64``.

        Does not advance the generator; follow with :meth:`skip`.
        """
        import numpy as np

        lanes = _jump(_lane_jumps(), self._state)
        draws = np.empty((BLOCK_LANES, BLOCK_STEPS), dtype=np.uint64)
        for step in range(BLOCK_STEPS):
            _xorshift(lanes)
            draws[:, step] = lanes
        draws *= np.uint64(0x2545F4914F6CDD1D)
        return draws.reshape(-1)

    def skip(self, count: int) -> None:
        """Advance as if :meth:`next` had been called ``count`` times.

        ``count`` is at most ``BLOCK_DRAWS``: the generator jumps to the
        nearest lane start of the block and steps the rest.
        """
        if not 0 <= count <= BLOCK_DRAWS:
            raise ValueError(f"count must be in [0, {BLOCK_DRAWS}], got {count}")
        lane = min(count // BLOCK_STEPS, BLOCK_LANES - 1)
        self._state = int(_jump(_lane_jumps()[:, lane], self._state))
        for _ in range(count - lane * BLOCK_STEPS):
            self.next()


def _xorshift(states: np.ndarray) -> None:
    """One xorshift step of every state, in place (the state half of next)."""
    states ^= states >> 12
    states ^= states << 25
    states ^= states >> 27


def _jump(columns: np.ndarray, state: int) -> np.ndarray:
    """Apply bit matrices to ``state`` over GF(2).

    ``columns[b]`` holds each matrix's image of the unit state ``1 << b``,
    so the result is the XOR of ``columns[b]`` over the set bits of ``state``.
    """
    image = columns[0] & 0
    for bit in range(64):
        if state >> bit & 1:
            image ^= columns[bit]
    return image


@functools.cache
def _lane_jumps() -> np.ndarray:
    """``jumps[b, lane]``: the state ``BLOCK_STEPS * lane`` steps after ``1 << b``.

    Column ``lane`` is the transition matrix raised to that power, so
    :func:`_jump` of it moves any state to the start of that lane.  The
    columns fill by doubling: with ``n`` filled, the next ``n`` are the
    first ``n`` advanced by the ``BLOCK_STEPS * n``-step matrix.
    """
    import numpy as np

    # ``stride`` holds the unit images of the BLOCK_STEPS * filled-step matrix.
    stride = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    jumps = np.empty((64, BLOCK_LANES), dtype=np.uint64)
    jumps[:, 0] = stride
    for _ in range(BLOCK_STEPS):
        _xorshift(stride)
    filled = 1
    while filled < BLOCK_LANES:
        tables = _byte_tables(stride)
        jumps[:, filled : 2 * filled] = _apply(tables, jumps[:, :filled])
        stride = _apply(tables, stride)
        filled *= 2
    jumps.flags.writeable = False
    return jumps


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """A bit matrix as lookup tables: ``tables[j, v]`` is its image of ``v << 8 * j``.

    ``columns[b]`` is the matrix's image of ``1 << b``.
    """
    import numpy as np

    tables = np.zeros((8, 256), dtype=np.uint64)
    values = np.arange(256)
    for bit in range(8):
        tables[:, (values >> bit) & 1 == 1] ^= columns[bit::8, None]
    return tables


def _apply(tables: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The matrix behind :func:`_byte_tables` applied to each state."""
    images = states & 0
    for byte in range(8):
        images ^= tables[byte, (states >> 8 * byte) & 0xFF]
    return images
