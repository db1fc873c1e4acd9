"""Victim Cache insertion/replacement policies for Base-Victim.

When the Baseline Cache replaces a (now clean) line, Base-Victim tries to
keep it in the Victim Cache: the line may be stored in the victim slot of
any way whose *base* partner leaves enough free segments (Section IV.B.1).
A policy chooses among those candidate ways, possibly silently evicting the
clean victim line already there.

The paper's default is "a replacement policy inspired by ECM [Baek et al.,
HPCA 2013]: we first search for the way that can fit the victim line; then
among all the candidates, we select the way with the largest size of the
base partner line" — i.e. pack the victim next to the fullest base that
still fits, preserving the emptier ways for future, larger victims.
Section VI.B.4 also tries random, LRU and a size/LRU mix; none beat ECM.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Sequence

from repro.cache.replacement.base import DeterministicRandom


class VictimCandidate(NamedTuple):
    """One way whose victim slot could receive the replaced base line.

    A NamedTuple rather than a dataclass: Base-Victim builds one list of
    these per demotion attempt, deep inside the simulation inner loop,
    and tuple construction is several times cheaper.
    """

    way: int
    base_size: int
    occupied: bool
    victim_size: int
    victim_stamp: int


class VictimInsertionPolicy(abc.ABC):
    """Chooses the victim-slot way for a replaced baseline line."""

    name: str = "abstract"

    def __init__(self) -> None:
        #: Decisions made / occupied slots overwritten; bumped by the LLC
        #: so every concrete policy gets the accounting for free.
        self.stat_choices = 0
        self.stat_replacements = 0

    @abc.abstractmethod
    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        """Pick the way to insert into; ``candidates`` is non-empty."""

    def publish_observations(self, registry) -> None:
        """Publish decision counters under ``victim_policy/<name>/``."""
        scope = registry.scoped(f"victim_policy/{self.name}")
        scope.inc("choices", self.stat_choices)
        scope.inc("replacements", self.stat_replacements)

    def notes(self) -> str:
        """Free-form description used in experiment reports."""
        return self.name


class ECMVictimPolicy(VictimInsertionPolicy):
    """Paper default: prefer free slots, then the largest base partner.

    Among candidates with a free victim slot (no silent eviction needed),
    pick the one with the largest base partner; if every candidate is
    occupied, pick the occupied way with the largest base partner.
    """

    name = "ecm"

    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        # Hot path: a single pass with explicit tie-breaks instead of
        # list+max+key-tuple allocations.  Same choice as
        # max(pool, key=lambda c: (c.base_size, -c.way)) over the free
        # pool (falling back to all candidates when none are free).
        """Pick which victim-cache line to evict."""
        best_way = -1
        best_size = -1
        for c in candidates:
            if not c.occupied:
                size = c.base_size
                if size > best_size or (size == best_size and c.way < best_way):
                    best_size = size
                    best_way = c.way
        if best_way >= 0:
            return best_way
        for c in candidates:
            size = c.base_size
            if size > best_size or (size == best_size and c.way < best_way):
                best_size = size
                best_way = c.way
        return best_way


class ECMStrictVictimPolicy(VictimInsertionPolicy):
    """Literal reading of Section IV.B.1: largest base partner, full stop.

    Ignores whether the slot is occupied, so it may silently evict a victim
    even when a free slot exists.  Kept for the Section VI.B.4 ablation.
    """

    name = "ecm-strict"

    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        """Pick which victim-cache line to evict."""
        best = max(candidates, key=lambda c: (c.base_size, -c.way))
        return best.way


class RandomVictimPolicy(VictimInsertionPolicy):
    """Uniform random among fitting ways (Section IV.B's worked examples)."""

    name = "random"

    def __init__(self, seed: int = 0xBADC0DE) -> None:
        super().__init__()
        self._rng = DeterministicRandom(seed)

    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        """Pick which victim-cache line to evict."""
        return candidates[self._rng.below(len(candidates))].way


class LRUVictimPolicy(VictimInsertionPolicy):
    """Evict the least-recently-inserted/hit victim among candidates.

    Free slots (stamp 0) naturally win.  One of the Section VI.B.4
    variants; the paper found it no better than ECM.
    """

    name = "lru"

    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        """Pick which victim-cache line to evict."""
        best = min(
            candidates,
            key=lambda c: (c.victim_stamp if c.occupied else -1, c.way),
        )
        return best.way


class MixVictimPolicy(VictimInsertionPolicy):
    """Size/recency mix from Section VI.B.4.

    Prefer free slots with the largest base partner (capacity packing);
    among occupied slots, evict the stalest small victim first by ranking
    on (victim_stamp, -victim_size).
    """

    name = "mix"

    def choose(self, candidates: Sequence[VictimCandidate]) -> int:
        """Pick which victim-cache line to evict."""
        free = [c for c in candidates if not c.occupied]
        if free:
            return max(free, key=lambda c: (c.base_size, -c.way)).way
        best = min(candidates, key=lambda c: (c.victim_stamp, -c.victim_size, c.way))
        return best.way


#: Registry of victim-cache policies by name.
VICTIM_POLICIES: dict[str, type[VictimInsertionPolicy]] = {
    ECMVictimPolicy.name: ECMVictimPolicy,
    ECMStrictVictimPolicy.name: ECMStrictVictimPolicy,
    RandomVictimPolicy.name: RandomVictimPolicy,
    LRUVictimPolicy.name: LRUVictimPolicy,
    MixVictimPolicy.name: MixVictimPolicy,
}


def make_victim_policy(name: str) -> VictimInsertionPolicy:
    """Instantiate a registered victim-cache policy by name."""
    try:
        cls = VICTIM_POLICIES[name]
    except KeyError:
        known = ", ".join(sorted(VICTIM_POLICIES))
        raise ValueError(f"unknown victim policy {name!r}; known: {known}") from None
    return cls()
