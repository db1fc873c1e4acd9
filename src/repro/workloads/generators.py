"""Synthetic access-pattern generators.

Each generator produces the *address/instruction* stream of one trace;
data values (and therefore compressed sizes) are layered on by
:mod:`repro.workloads.datagen`.  The patterns are the classic building
blocks of the paper's four workload categories (Table I):

``stream``
    Multiple concurrent sequential streams over large arrays with a small
    hot set — SPECfp-style stencils/fields (lbm, milc, bwaves).  Cyclic
    re-walks give sharp capacity cliffs: a working set slightly above the
    LLC thrashes the baseline but fits a compressed cache.
``zipf``
    Zipf-popularity references over a large footprint — SPECint-style
    irregular heaps (mcf, omnetpp, xalancbmk).  Broad reuse-distance
    spectrum, so hit rate grows smoothly with effective capacity.
``regions``
    Many small documents/buffers with popularity skew — productivity
    suites (office, compression tools).
``frames``
    Repeated walks over a frame-sized buffer plus a hot surface cache —
    client/media workloads (browser, 3DMark, Cinebench).
``l2fit``
    Small working set served by the L2; LLC-insensitive filler.
``scan``
    A touch-once scan far larger than any LLC; also insensitive.

All randomness is a :class:`DeterministicRandom` stream seeded by the
trace spec, so every trace is bit-reproducible.

Each access takes a write roll, its pattern's draws and a delta draw, in
that order.  :meth:`PatternGenerator.generate` synthesises a trace a
chunk at a time from :meth:`DeterministicRandom.block` with NumPy; the
per-access steppers (``_next_*``) are the reference it must match byte
for byte, draw for draw, and only the tests run them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.cache.replacement.base import DeterministicRandom
from repro.workloads.trace import LOAD, STORE, Trace, TraceMeta

#: Most draws one access takes: the write roll, the pattern's draws and
#: the delta.  A hot access takes the hot roll plus two ranks; a region
#: access that jumps takes the roll, two region picks, the jump roll and
#: the jump target.
_MAX_DRAWS = {"stream": 5, "zipf": 5, "regions": 7, "frames": 5, "l2fit": 3, "scan": 2}

#: Largest delta the trace's ``int32`` column holds.
_MAX_DELTA = 2**31 - 1


@dataclass(frozen=True)
class PatternParams:
    """Knobs shared by all pattern generators."""

    kind: str
    #: Total distinct lines the pattern may touch.
    footprint_lines: int
    #: Lines in the hot (high-reuse) subset.
    hot_lines: int = 64
    #: Probability of an access going to the hot subset.
    hot_fraction: float = 0.1
    #: Probability of a store.
    write_fraction: float = 0.15
    #: Mean instructions between accesses.
    instrs_per_access: float = 4.0
    #: Concurrent streams for the ``stream``/``frames`` kinds.
    num_streams: int = 4


class PatternGenerator:
    """Generates the address stream for one pattern specification."""

    def __init__(self, params: PatternParams, seed: int) -> None:
        if params.footprint_lines <= 0:
            raise ValueError(
                f"footprint_lines must be positive, got {params.footprint_lines}"
            )
        if params.hot_fraction > 0 and params.hot_lines < 1:
            raise ValueError(
                f"hot_lines must be positive when hot_fraction > 0, got {params.hot_lines}"
            )
        # Uniform deltas in [1, 2*mean-1] have the requested mean and are
        # much cheaper to sample than geometric deltas.
        self._delta_span = max(1, int(2 * params.instrs_per_access - 1))
        if self._delta_span > _MAX_DELTA:
            raise ValueError(
                f"instrs_per_access {params.instrs_per_access} overflows the trace's deltas"
            )
        self.params = params
        self.rng = DeterministicRandom(seed * 2654435761 + 12345)
        self._seed = seed
        patterns = {
            "stream": (self._next_stream, self._stream_lines),
            "zipf": (self._next_zipf, self._zipf_lines),
            "regions": (self._next_regions, self._regions_lines),
            "frames": (self._next_frames, self._frames_lines),
            "l2fit": (self._next_l2fit, self._l2fit_lines),
            "scan": (self._next_scan, self._scan_lines),
        }
        try:
            self._next, self._lines = patterns[params.kind]
        except KeyError:
            known = ", ".join(sorted(patterns))
            raise ValueError(
                f"unknown pattern kind {params.kind!r}; known: {known}"
            ) from None
        self._init_state()

    def _init_state(self) -> None:
        params = self.params
        n = max(1, params.num_streams)
        footprint = params.footprint_lines
        # Streams start spread evenly over the footprint.
        self._cursors = [footprint * i // n for i in range(n)]
        self._scan_pos = 0
        self._log_footprint = math.log(max(2, footprint))
        # Region layout for the "regions" kind: up to 32 regions.  Small
        # footprints get fewer regions rather than degenerate (or
        # negative) sizes.
        region_count = max(1, min(32, footprint // 16))
        sizes = []
        remaining = footprint
        for index in range(region_count):
            if index == region_count - 1:
                share = remaining
            else:
                share = max(1, remaining // (region_count - index))
            share = min(share, remaining - (region_count - 1 - index))
            share = max(1, share)
            sizes.append(share)
            remaining -= share
        starts = []
        offset = 0
        for size in sizes:
            starts.append(offset)
            offset += size
        self._regions = list(zip(starts, sizes))
        self._region_table = np.array(self._regions, dtype=np.int64)
        self._region_cursors = [0] * region_count

    # ------------------------------------------------------------------
    # Reference pattern steppers: each returns the next line address.
    # ------------------------------------------------------------------

    def _hot_line(self) -> int:
        """A line from the hot subset, mildly skewed toward its head."""
        params = self.params
        rank = min(
            self.rng.below(params.hot_lines),
            self.rng.below(params.hot_lines),
        )
        return self._map(params.footprint_lines + rank)

    def _next_stream(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        stream = rng.below(len(self._cursors))
        pos = self._cursors[stream]
        self._cursors[stream] = (pos + 1) % params.footprint_lines
        return self._map(pos)

    def _next_zipf(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        # Log-uniform rank: P(rank) ~ 1/rank, i.e. Zipf with alpha = 1.
        u = rng.next() / float(1 << 64)
        rank = int(math.exp(u * self._log_footprint))
        if rank >= params.footprint_lines:
            rank = params.footprint_lines - 1
        return self._map(rank)

    def _next_regions(self) -> int:
        params = self.params
        rng = self.rng
        if rng.below(1000) < params.hot_fraction * 1000:
            return self._hot_line()
        # Skewed region choice: min of two uniforms favours early regions.
        index = min(rng.below(len(self._regions)), rng.below(len(self._regions)))
        start, size = self._regions[index]
        cursor = self._region_cursors[index]
        if rng.below(8) == 0:
            cursor = rng.below(size)  # random jump within the document
        self._region_cursors[index] = (cursor + 1) % size
        return self._map(start + cursor)

    def _next_frames(self) -> int:
        params = self.params
        rng = self.rng
        roll = rng.below(1000)
        if roll < params.hot_fraction * 1000:
            return self._hot_line()
        if roll < (params.hot_fraction + 0.15) * 1000:
            # Secondary random touch (textures, metadata).
            return self._map(rng.below(params.footprint_lines))
        stream = rng.below(len(self._cursors))
        pos = self._cursors[stream]
        self._cursors[stream] = (pos + 1) % params.footprint_lines
        return self._map(pos)

    def _next_l2fit(self) -> int:
        return self._map(self.rng.below(self.params.footprint_lines))

    def _next_scan(self) -> int:
        pos = self._scan_pos
        self._scan_pos += 1
        return self._map(pos)

    def _map(self, line: int) -> int:
        """Place the pattern's line space at a per-trace base address.

        Keeps page structure (line // 64) intact so the stream prefetcher
        sees real sequential pages, while different traces land in
        different address ranges.
        """
        return (self._seed & 0xFFFF) * (1 << 24) + line

    # ------------------------------------------------------------------
    # Chunked pattern lines: each maps one chunk's accesses, given the
    # block of draws, each access's first draw offset and its hot roll
    # (the draw after the write roll), to line numbers, and carries its
    # cursors on to the next chunk exactly as the steppers above would.
    # ------------------------------------------------------------------

    def _split_hot(self, draws, starts, rolls) -> tuple[np.ndarray, np.ndarray]:
        """A line per access with the hot ones filled in, and the hot mask.

        A hot access draws two ranks after its roll, as :meth:`_hot_line`.
        """
        params = self.params
        lines = np.empty(len(starts), dtype=np.int64)
        hot = rolls < params.hot_fraction * 1000
        if hot.any():
            at = starts[hot]
            rank = np.minimum(
                _below(draws[at + 2], params.hot_lines),
                _below(draws[at + 3], params.hot_lines),
            )
            lines[hot] = params.footprint_lines + rank
        return lines, hot

    def _advance_streams(self, chosen: np.ndarray) -> np.ndarray:
        """Lines of accesses that step the streams ``chosen``, in order.

        Each stream moves one line per access, so an access lands on its
        stream's cursor plus the number of earlier accesses to that stream.
        """
        footprint = self.params.footprint_lines
        cursors = np.array(self._cursors, dtype=np.int64)
        taken = np.bincount(chosen, minlength=len(cursors))
        lines = (cursors[chosen] + _earlier_equal(chosen, taken)) % footprint
        self._cursors = ((cursors + taken) % footprint).tolist()
        return lines

    def _stream_lines(self, draws, starts, rolls) -> np.ndarray:
        lines, hot = self._split_hot(draws, starts, rolls)
        cold = ~hot
        lines[cold] = self._advance_streams(
            _below(draws[starts[cold] + 2], len(self._cursors))
        )
        return lines

    def _zipf_lines(self, draws, starts, rolls) -> np.ndarray:
        lines, hot = self._split_hot(draws, starts, rolls)
        cold = ~hot
        # math.exp per element: NumPy's vector exp may round differently.
        exponents = draws[starts[cold] + 2].astype(np.float64) / float(1 << 64)
        exponents *= self._log_footprint
        exp = math.exp
        ranks = np.array([int(exp(x)) for x in exponents.tolist()], dtype=np.int64)
        lines[cold] = np.minimum(ranks, self.params.footprint_lines - 1)
        return lines

    def _regions_lines(self, draws, starts, rolls) -> np.ndarray:
        lines, hot = self._split_hot(draws, starts, rolls)
        at = starts[~hot]
        count = len(self._regions)
        index = np.minimum(_below(draws[at + 2], count), _below(draws[at + 3], count))
        jumps = _below(draws[at + 4], 8) == 0
        sizes = self._region_table[index, 1]
        targets = _below(draws[at + 5], sizes)
        # Group the accesses by region, in order; within a region each
        # access sits a fixed distance past the latest anchor: a jump, or
        # the region's first access, which continues from its cursor.
        order = np.argsort(index, kind="stable")
        region = index[order]
        sizes = sizes[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = region[1:] != region[:-1]
        cursors = np.array(self._region_cursors, dtype=np.int64)
        anchored = np.where(jumps[order], targets[order], cursors[region])
        positions = np.arange(len(order))
        anchor = np.maximum.accumulate(np.where(first | jumps[order], positions, 0))
        offsets = (anchored[anchor] + positions - anchor) % sizes
        last = np.ones(len(order), dtype=bool)
        last[:-1] = first[1:]
        cursors[region[last]] = (offsets[last] + 1) % sizes[last]
        self._region_cursors = cursors.tolist()
        cold = np.empty(len(order), dtype=np.int64)
        cold[order] = self._region_table[region, 0] + offsets
        lines[~hot] = cold
        return lines

    def _frames_lines(self, draws, starts, rolls) -> np.ndarray:
        params = self.params
        lines, hot = self._split_hot(draws, starts, rolls)
        near = rolls < (params.hot_fraction + 0.15) * 1000
        touch = near & ~hot
        lines[touch] = _below(draws[starts[touch] + 2], params.footprint_lines)
        walk = ~near & ~hot
        lines[walk] = self._advance_streams(
            _below(draws[starts[walk] + 2], len(self._cursors))
        )
        return lines

    def _l2fit_lines(self, draws, starts, rolls) -> np.ndarray:
        return _below(draws[starts + 1], self.params.footprint_lines)

    def _scan_lines(self, draws, starts, rolls) -> np.ndarray:
        lines = self._scan_pos + np.arange(len(starts), dtype=np.int64)
        self._scan_pos += len(starts)
        return lines

    # ------------------------------------------------------------------
    # Trace assembly
    # ------------------------------------------------------------------

    def generate(self, meta: TraceMeta, length: int) -> Trace:
        """Produce a trace of ``length`` accesses.

        Records are written straight into the trace's preallocated
        columns, one block of draws at a time, so the temporary memory is a
        few blocks whatever the length.
        """
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        trace = Trace(
            meta,
            kinds=array("b", [0]) * length,
            addrs=array("q", [0]) * length,
            deltas=array("i", [0]) * length,
        )
        columns = [
            np.frombuffer(column, dtype=column.typecode)
            for column in (trace.kinds, trace.addrs, trace.deltas)
        ]
        done = 0
        while done < length:
            done += self._fill_chunk(*(column[done:] for column in columns))
        # An exported buffer would make the columns refuse to grow.
        del columns
        return trace

    def _fill_chunk(
        self, kinds: np.ndarray, addrs: np.ndarray, deltas: np.ndarray
    ) -> int:
        """Fill leading records from one block of draws; return how many.

        Fills up to ``len(addrs)`` records, stopping at the first access
        whose draws might run past the block, then advances the PRNG past
        exactly the draws those records used.
        """
        params = self.params
        draws = self.rng.block()
        max_draws = _MAX_DRAWS[params.kind]
        # Offsets 0..limit can start an access whose draws all fit.
        limit = len(draws) - max_draws
        rolls: np.ndarray | None = None
        if params.kind in ("l2fit", "scan"):
            starts = np.arange(0, min(limit + 1, len(addrs) * max_draws), max_draws)
            counts = np.full(len(starts), max_draws)
        else:
            # Draws an access starting at each offset takes: four, or five
            # if its roll sends it to the hot set; a cold region access
            # takes six, or seven if it jumps.
            hot = draws[1 : limit + 2] % np.uint64(1000) < params.hot_fraction * 1000
            if params.kind == "regions":
                jumps = draws[4 : limit + 5] % np.uint64(8) == 0
                every_count = np.where(hot, np.uint8(5), jumps + np.uint8(6))
            else:
                every_count = hot + np.uint8(4)
            starts = _access_starts(every_count.tobytes(), len(addrs))
            counts = every_count[starts]
            rolls = _below(draws[starts + 1], 1000)
        filled = len(starts)
        write_permille = int(params.write_fraction * 1000)
        stores = _below(draws[starts], 1000) < write_permille
        kinds[:filled] = np.where(stores, STORE, LOAD)
        # _map only offsets lines by the trace's base address.
        addrs[:filled] = self._lines(draws, starts, rolls) + self._map(0)
        deltas[:filled] = _below(draws[starts + counts - 1], self._delta_span) + 1
        self.rng.skip(int(starts[-1] + counts[-1]))
        return filled

    def _reference_generate(self, meta: TraceMeta, length: int) -> Trace:
        """:meth:`generate`, one access and one draw at a time."""
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        trace = Trace(meta)
        rng = self.rng
        write_permille = int(self.params.write_fraction * 1000)
        delta_span = self._delta_span
        kinds = trace.kinds
        addrs = trace.addrs
        deltas = trace.deltas
        next_addr = self._next
        for _ in range(length):
            kind = STORE if rng.below(1000) < write_permille else LOAD
            kinds.append(kind)
            addrs.append(next_addr())
            deltas.append(1 + rng.below(delta_span))
        return trace


def _below(draws: np.ndarray, bound) -> np.ndarray:
    """:meth:`DeterministicRandom.below` of each draw, as ``int64``.

    ``bound`` is one positive bound or one per draw.
    """
    return (draws % np.asarray(bound, dtype=np.uint64)).astype(np.int64)


def _earlier_equal(keys: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For each key, how many earlier keys equal it (``counts`` = bincount)."""
    order = np.argsort(keys, kind="stable")
    firsts = np.cumsum(counts) - counts
    earlier = np.empty(len(keys), dtype=np.int64)
    earlier[order] = np.arange(len(keys)) - firsts[keys[order]]
    return earlier


def _access_starts(counts: bytes, most: int) -> np.ndarray:
    """Draw offsets of up to ``most`` accesses, the first at offset 0.

    ``counts[i]`` is the number of draws an access starting at offset
    ``i`` takes, so each access starts where the previous one ended; the
    walk stops at the first start past the end of ``counts``.
    """
    end = len(counts)
    starts = []
    position = 0
    for _ in range(most):
        if position >= end:
            break
        starts.append(position)
        position += counts[position]
    return np.array(starts, dtype=np.int64)
