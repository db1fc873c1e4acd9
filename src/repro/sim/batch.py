"""Batch access engine and the scalar access kernel every fast loop shares.

The single-core inner loop spends most of its instructions deciding, one
access at a time, that an address is an L1 hit and touching the LRU
state.  This engine snapshots the L1's flat tag/valid columns **once**
(the columnar layout from :mod:`repro.cache.setassoc` exists for exactly
this) and resolves hit/way predictions for whole spans of the trace with
vectorised probes.  Predictions stay exact precisely until the first
predicted miss: L1 hits never change cache *membership*, so the leading
run of predicted hits is applied wholesale with NumPy; the miss itself
goes through the scalar access kernel.

What makes the engine *resumable* is the hierarchy's L1 mutation log
(``CacheHierarchy._l1_log``): only the fill/invalidate paths change L1
membership, and each appends the flat slot it touched.  After handling
a miss scalar-side the engine patches exactly those slots of its
snapshot and re-enters the vectorised probe immediately — no whole-cache
re-snapshot, and no falling back to scalar until an arbitrary chunk
boundary.  ``chunk_size`` survives as the *probe cap*: the most
predictions examined per probe (tests exercise boundary cases with it).

Two adaptations keep miss-heavy phases from drowning in probe overhead:

* the probe segment length doubles while segments keep fully hitting and
  shrinks toward the observed run length after a miss, so only consumed
  predictions are paid for;
* runs shorter than ``VEC_MIN`` are replayed through the scalar kernel
  (the fixed cost of the vector apply exceeds its benefit there), and
  after ``SHORT_LIMIT`` consecutive short runs the engine processes a
  ``BURST`` of accesses purely scalar-side before probing again.

The scalar access kernel (:func:`scalar_kernel`) is the one inlined
copy of the demand path — the L1 hit and the miss path of
:meth:`~repro.cache.hierarchy.CacheHierarchy.access` —
over columns hoisted once per (hierarchy, trace), with every counter
batched in closure cells and flushed once.  Inlined updates land in the
same order with the same values as the hierarchy's own methods.  Its
callers: this engine (each scalar span), the ``fast`` engine (the whole
trace) and the mix driver (each thread's run-ahead span).

The vector apply reproduces the scalar kernel bit-for-bit:

* cycles accumulate through a seeded ``cumsum`` — a *sequential* IEEE
  float64 fold, element-identical to the scalar ``cycles += delta *
  base_cpi`` chain (``np.sum``'s pairwise reduction would not be);
* exact LRU state: within a run each set's clock advances once per
  touch, so a touch's stamp is ``clock_before[set] + rank-within-set``;
  the final stamp of each (set, way) is its last touch's stamp, and
  per-set clocks advance by per-set touch counts (``bincount``);
* ``data.on_write`` fires per store, in trace order, with plain-int
  addresses (NumPy integer scalars are kept out of all model state —
  they would silently slow every later scalar touch);
* victim-occupancy samples falling inside a run all observe the same
  value, since a pure L1-hit run cannot change LLC state.

Byte-identity against the traced reference loop — results and
serialised observations — is enforced by the differential fuzz oracles
in ``tests/sim/test_batch_equivalence.py`` (single core) and
``tests/sim/test_mix_equivalence.py`` (shared-LLC mixes).

NumPy is an optional dependency of the vector engine only: without it
(or with a non-LRU L1) ``simulate_trace`` degrades to the ``fast``
engine, one kernel call over the whole trace.
"""

from __future__ import annotations

from math import inf, nextafter

from repro.cache.hierarchy import _decompression_cycles
from repro.cache.prefetch import _PAGE_LINES, _PAGE_MASK, _PAGE_SHIFT
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC

try:  # NumPy is optional; the engine reports itself unavailable without it.
    import numpy as np
except ImportError:  # pragma: no cover - exercised only on numpy-less hosts
    np = None  # type: ignore[assignment]

# AccessKind members as plain ints (see repro.cache.hierarchy).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_PREFETCH = int(AccessKind.PREFETCH)

#: Default probe cap: the most hit predictions one probe examines.
#: Large enough to amortise the per-probe numpy calls on hit-dominated
#: traces, small enough that nothing is wasted when the trace turns.
DEFAULT_CHUNK = 4096

#: First probe segment length.  Predictions past the first miss are
#: discarded, so the probe grows geometrically from this floor instead
#: of paying for the whole cap up front.
PROBE_MIN = 512

#: Segment-length floor after a miss shrinks the probe.
SEG_MIN = 64

#: Hit runs shorter than this are replayed scalar-side: the vector
#: apply's fixed cost (argsort/bincount/cumsum setup) only pays for
#: itself on longer runs.
VEC_MIN = 32

#: A run shorter than this counts toward the consecutive-short-run
#: streak that triggers a scalar burst.
SHORT_RUN = 8

#: Consecutive short runs before the engine stops probing for a while.
SHORT_LIMIT = 4

#: Accesses processed purely scalar-side once a miss-heavy phase is
#: detected, before the next vectorised probe.
BURST = 512


def available() -> bool:
    """True when the batch engine can run in this interpreter."""
    return np is not None


def scalar_kernel(
    deltas,
    addrs,
    kinds,
    hierarchy,
    core,
    on_write,
    victim_occupancy,
    sample_every: int,
    samples: list,
    log: list | None = None,
    addr_offset: int = 0,
    size_memo: dict | None = None,
    size_fn=None,
):
    """The scalar access body for one (hierarchy, trace): ``(run, flush)``.

    ``run(i, hi, next_sample, before=inf, after=inf)`` replays accesses
    from trace index ``i`` up to ``hi`` while the core's clock is ``<
    before`` and ``<= after``; it returns ``(next index, next_sample)``
    and leaves ``core`` current.  After the access at ``next_sample`` it
    appends ``victim_occupancy()`` to ``samples`` and advances by
    ``sample_every`` (``-1`` never samples).  ``flush()`` adds (``+=``)
    the batched counters back once, after the last run, so kernels over
    one shared LLC sum correctly.  ``addr_offset`` is added on the
    hierarchy side only: ``on_write`` and the size lookups (by default
    the hierarchy's) take the trace address.  ``log`` receives each L1
    slot whose membership changes; ``None`` discards them.
    """
    l1 = hierarchy.l1
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    ways = l1.ways
    l1_tags = l1.tags
    l1_valid = l1.valid
    l1_stamps = l1.stamps
    l1_clocks = l1.clocks
    l1_dirty = l1.dirty

    l2 = hierarchy.l2
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_ways = l2.ways
    l2_tags = l2.tags
    l2_valid = l2.valid
    l2_stamps = l2.stamps
    l2_clocks = l2.clocks
    l2_dirty = l2.dirty
    l2_lru_inline = l2._lru_inline
    l2_policy = l2.policy

    prefetcher = hierarchy.prefetcher
    pf_degree = prefetcher.degree
    pf_table = prefetcher._table
    pf_table_size = prefetcher.table_size

    llc = hierarchy.llc
    llc_access = llc.access
    llc_contains = llc.contains
    llc_hint = llc.hint_downgrade

    # LLC flavor fast lanes.  The perf matrix runs exactly two LLC
    # flavors, and both spend the bench traces almost entirely in the
    # miss path, so their hottest entry points are inlined below over
    # hoisted columns: ``unc`` selects the full inline of the
    # uncompressed-NRU LLC (demand, writeback, prefetch and hint
    # sites); ``bv`` selects the inlined contains/hint_downgrade of the
    # Base-Victim LLC, whose access() is already a fused fast lane of
    # its own.  Any other flavor takes the plain method calls.
    unc = None
    bv = None
    if isinstance(llc, UncompressedLLC) and llc._cache._nru_inline:
        unc = llc._cache
        u_sets = unc._sets
        u_mask = unc._set_mask
        u_ways = unc.ways
        u_tags = unc.tags
        u_valid = unc.valid
        u_dirty = unc.dirty
        u_ref = unc.referenced
        u_hands = unc.hands
    elif isinstance(llc, BaseVictimLLC) and llc._nru_inline:
        bv = llc
        bv_sets = llc._sets
        bv_mask = llc._set_mask
        bv_spl = llc.segments_per_line
        bv_vp = llc.victim_policy
        # The demand-read inline below replicates the fused fast lane of
        # BaseVictimLLC.access, so it is gated on the same invariants
        # (NRU + ECM + clean victims); other configs keep the method.
        bv_fast = llc._fast
    else:
        bv_fast = False
    extra_tag_cycles = llc.extra_tag_cycles
    decompression_cycles = _decompression_cycles(llc)
    l2_hints = hierarchy.config.l2_eviction_hints
    uses_sizes = hierarchy._uses_sizes
    memo_get = (hierarchy.size_memo if size_memo is None else size_memo).get
    if size_fn is None:
        size_fn = hierarchy.size_fn
    memory = hierarchy.memory
    mem_read = memory.read if memory is not None else None
    mem_write = memory.write if memory is not None else None
    process_invalidates = hierarchy._process_invalidates
    fill_l2 = hierarchy._fill_l2

    base_cpi = core.base_cpi
    l2_stall = core.l2_stall
    llc_exposed = core.llc_exposed
    mlp_llc = core.mlp_llc
    mlp_memory = core.mlp_memory
    discard_log = log is None
    if discard_log:
        log = []

    # Hierarchy/cache counters, batched in closure cells until flush().
    accesses_c = 0
    l1_hits = 0
    l2_hits_c = 0
    llc_hits_c = 0
    llc_victim_hits_c = 0
    llc_misses_c = 0
    compressed_hits_c = 0
    memory_reads_c = 0
    memory_writes_c = 0
    silent_evictions_c = 0
    llc_data_reads_c = 0
    llc_data_writes_c = 0
    llc_fill_segments_c = 0
    llc_accesses_c = 0
    writebacks_to_llc_c = 0
    prefetch_fills_c = 0
    l1_evictions_c = 0
    l1_writebacks_c = 0
    l2_probe_hits_c = 0
    l2_probe_misses_c = 0
    l2_evictions_c = 0
    l2_writebacks_c = 0
    back_invalidations_c = 0
    unc_hits_c = 0
    unc_misses_c = 0
    unc_evictions_c = 0
    unc_writebacks_c = 0
    unc_wbmiss_c = 0
    bv_base_hits_c = 0
    bv_victim_hits_c = 0
    bv_misses_c = 0
    bv_promotions_c = 0
    bv_demotions_c = 0
    bv_silent_c = 0
    bv_choices_c = 0
    bv_replacements_c = 0

    def run(i, hi, next_sample, before=inf, after=inf):
        nonlocal accesses_c, l1_hits, l2_hits_c, llc_hits_c, llc_victim_hits_c
        nonlocal llc_misses_c, compressed_hits_c, memory_reads_c, memory_writes_c
        nonlocal silent_evictions_c, llc_data_reads_c, llc_data_writes_c
        nonlocal llc_fill_segments_c, llc_accesses_c, writebacks_to_llc_c
        nonlocal prefetch_fills_c, l1_evictions_c, l1_writebacks_c, l2_hits_c
        nonlocal l2_probe_hits_c, l2_probe_misses_c, l2_evictions_c, l2_writebacks_c
        nonlocal back_invalidations_c, unc_hits_c, unc_misses_c, unc_evictions_c
        nonlocal unc_writebacks_c, unc_wbmiss_c, bv_base_hits_c, bv_victim_hits_c
        nonlocal bv_misses_c, bv_promotions_c, bv_demotions_c, bv_silent_c
        nonlocal bv_choices_c, bv_replacements_c
        # For floats, ``cycles <= after`` is ``cycles < nextafter(after,
        # inf)``, so the window costs one comparison per access.
        limit = nextafter(after, inf)
        if before < limit:
            limit = before
        cycles = core.cycles
        instructions = core.instructions
        stall_cycles = core.stall_cycles
        start = i
        # Indexed reads, not zip over slices: a mix span is often one or
        # two accesses, and per-call slicing would cost more than that.
        for i in range(start, hi):
            if cycles >= limit:
                break
            delta = deltas[i]
            taddr = addrs[i]
            instructions += delta
            cycles += delta * base_cpi
            is_write = kinds[i] == 1
            if is_write:
                on_write(taddr)
            addr = taddr + addr_offset
            cset = l1_sets[addr & l1_mask]
            way = cset.lookup.get(addr)
            if way is not None:
                # Inlined l1.probe hit: LRU touch plus the dirty bit.
                index = cset.index
                clock = l1_clocks[index] + 1
                l1_clocks[index] = clock
                l1_stamps[cset.base + way] = clock
                if is_write:
                    l1_dirty[cset.base + way] = True
                l1_hits += 1
            else:
                # Inlined l2.probe (a demand read never dirties L2).
                l2set = l2_sets[addr & l2_mask]
                l2way = l2set.lookup.get(addr)
                if l2way is not None:
                    if l2_lru_inline:
                        index = l2set.index
                        clock = l2_clocks[index] + 1
                        l2_clocks[index] = clock
                        l2_stamps[l2set.base + l2way] = clock
                    else:
                        l2_policy.on_hit(l2set.policy_state, l2way)
                    l2_probe_hits_c += 1
                    l2_hits_c += 1
                    stall = l2_stall
                    prefetches: list[int] | tuple[()] = ()
                else:
                    l2_probe_misses_c += 1

                    # Prefetcher training (StreamPrefetcher.observe,
                    # inlined — see CacheHierarchy.access).
                    prefetches = ()
                    if pf_degree:
                        page = addr >> _PAGE_SHIFT
                        offset = addr & _PAGE_MASK
                        entry = pf_table.pop(page, None)
                        if entry is None:
                            pf_table[page] = (offset, 0, False)
                        else:
                            last_offset, stride, trained = entry
                            new_stride = offset - last_offset
                            if new_stride == 0:
                                pf_table[page] = entry
                            elif new_stride == stride and (
                                trained or stride != 0
                            ):
                                if not trained:
                                    prefetcher.stat_trainings += 1
                                # StreamPrefetcher._issue, inlined:
                                # degree lines ahead, within the page.
                                prefetches = []
                                page_base = page * _PAGE_LINES
                                target = offset
                                for _ in range(pf_degree):
                                    target += stride
                                    if 0 <= target < _PAGE_LINES:
                                        prefetches.append(page_base + target)
                                prefetcher.stat_issued += len(prefetches)
                                pf_table[page] = (offset, stride, True)
                            else:
                                pf_table[page] = (offset, new_stride, False)
                        while len(pf_table) > pf_table_size:
                            del pf_table[next(iter(pf_table))]

                    if unc is not None:
                        # UncompressedLLC.access(addr, READ, 1),
                        # inlined together with its stats merge,
                        # DRAM accounting and back-invalidation —
                        # same call order, same values as the
                        # generic branch below.
                        ucset = u_sets[addr & u_mask]
                        uway = ucset.lookup.get(addr)
                        llc_accesses_c += 1
                        if uway is not None:
                            u_ref[ucset.base + uway] = True
                            unc_hits_c += 1
                            llc_hits_c += 1
                            llc_data_reads_c += 1
                            stall = (
                                llc_exposed + extra_tag_cycles
                            ) / mlp_llc
                        else:
                            unc_misses_c += 1
                            llc_misses_c += 1
                            memory_reads_c += 1
                            llc_data_writes_c += 1
                            llc_fill_segments_c += 1
                            llc_data_reads_c += 1
                            read_latency = (
                                mem_read(addr, cycles)
                                if memory is not None
                                else 0.0
                            )
                            stall = (
                                llc_exposed
                                + extra_tag_cycles
                                + read_latency
                            ) / mlp_memory
                            # cache.fill, inlined (NRU rotating
                            # hand; see repro.cache.setassoc).
                            ubase = ucset.base
                            if ucset.valid_count == u_ways:
                                uindex = ucset.index
                                hand = u_hands[uindex]
                                try:
                                    uway = (
                                        u_ref.index(
                                            False,
                                            ubase + hand,
                                            ubase + u_ways,
                                        )
                                        - ubase
                                    )
                                except ValueError:
                                    try:
                                        uway = (
                                            u_ref.index(
                                                False, ubase, ubase + hand
                                            )
                                            - ubase
                                        )
                                    except ValueError:
                                        for w in range(
                                            ubase, ubase + u_ways
                                        ):
                                            u_ref[w] = False
                                        uway = hand
                                u_hands[uindex] = (
                                    uway + 1 if uway + 1 < u_ways else 0
                                )
                                uslot = ubase + uway
                                uvictim = u_tags[uslot]
                                uvictim_dirty = u_dirty[uslot]
                                del ucset.lookup[uvictim]
                                unc_evictions_c += 1
                                if uvictim_dirty:
                                    unc_writebacks_c += 1
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(addr, cycles)
                                # Back-invalidate the evicted line
                                # (single-line
                                # _process_invalidates, inlined).
                                icset = l1_sets[uvictim & l1_mask]
                                iway = icset.lookup.pop(uvictim, None)
                                if iway is None:
                                    present = idirty = False
                                else:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = l1_dirty[islot]
                                    l1_valid[islot] = False
                                    l1_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l1_stamps[islot] = 0
                                    log.append(islot)
                                icset = l2_sets[uvictim & l2_mask]
                                iway = icset.lookup.pop(uvictim, None)
                                if iway is not None:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = idirty or l2_dirty[islot]
                                    l2_valid[islot] = False
                                    l2_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l2_stamps[islot] = 0
                                if present:
                                    back_invalidations_c += 1
                                if idirty and not uvictim_dirty:
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(uvictim, cycles)
                            else:
                                uslot = u_valid.index(
                                    False, ubase, ubase + u_ways
                                )
                                uway = uslot - ubase
                                ucset.valid_count += 1
                            u_tags[uslot] = addr
                            u_valid[uslot] = True
                            u_dirty[uslot] = False
                            ucset.lookup[addr] = uway
                            u_ref[uslot] = True
                    elif bv_fast:
                        # BaseVictimLLC.access(addr, READ, size) —
                        # the fused fast lane of basevictim.py,
                        # re-inlined for the demand read together
                        # with its stats merge, DRAM accounting and
                        # back-invalidation.  Same order, same
                        # values; the fuzz oracle proves it.
                        size = memo_get(taddr)
                        if size is None:
                            size = size_fn(taddr)
                        bcset = bv_sets[addr & bv_mask]
                        llc_accesses_c += 1
                        base_way = bcset.base_lookup.get(addr)
                        if base_way is not None:
                            # _base_hit READ, inlined.
                            bv_base_hits_c += 1
                            bcset.policy_state.referenced[
                                base_way
                            ] = True
                            llc_hits_c += 1
                            llc_data_reads_c += 1
                            extra = extra_tag_cycles
                            if 0 < bcset.base_size[base_way] < bv_spl:
                                compressed_hits_c += 1
                                extra += decompression_cycles
                            stall = (llc_exposed + extra) / mlp_llc
                        else:
                            vict_way = bcset.vict_lookup.get(addr)
                            if vict_way is not None:
                                # _victim_hit READ, inlined.
                                bv_victim_hits_c += 1
                                llc_hits_c += 1
                                llc_victim_hits_c += 1
                                llc_data_reads_c += 1
                                stored_size = bcset.vict_size[vict_way]
                                extra = extra_tag_cycles
                                if 0 < stored_size < bv_spl:
                                    compressed_hits_c += 1
                                    extra += decompression_cycles
                                stall = (llc_exposed + extra) / mlp_llc
                                fill_size = stored_size
                                stored_dirty = bcset.vict_dirty[
                                    vict_way
                                ]
                                del bcset.vict_lookup[addr]
                                bv._victim_resident -= 1
                                bcset.vict_valid[vict_way] = False
                                bcset.vict_dirty[vict_way] = False
                                fill_dirty = stored_dirty
                                promotion = True
                            else:
                                # _miss READ, inlined.
                                bv_misses_c += 1
                                llc_misses_c += 1
                                memory_reads_c += 1
                                read_latency = (
                                    mem_read(addr, cycles)
                                    if memory is not None
                                    else 0.0
                                )
                                stall = (
                                    llc_exposed
                                    + extra_tag_cycles
                                    + read_latency
                                ) / mlp_memory
                                fill_size = size
                                fill_dirty = False
                                promotion = False

                            # _fill_baseline, inlined: free way
                            # first, then the NRU hand scan, then
                            # the compression steps.
                            base_lookup = bcset.base_lookup
                            base_valid = bcset.base_valid
                            base_tags = bcset.base_tags
                            base_dirty_col = bcset.base_dirty
                            base_size_col = bcset.base_size
                            vict_valid = bcset.vict_valid
                            state = bcset.policy_state
                            referenced = state.referenced
                            have_replaced = False
                            replaced_addr = 0
                            replaced_size = 0
                            was_dirty = False
                            if bcset.base_valid_count < len(base_valid):
                                bway = base_valid.index(False)
                                bcset.base_valid_count += 1
                            else:
                                hand = state.hand
                                bways = len(referenced)
                                try:
                                    bway = referenced.index(False, hand)
                                except ValueError:
                                    try:
                                        bway = referenced.index(
                                            False, 0, hand
                                        )
                                    except ValueError:
                                        for w in range(bways):
                                            referenced[w] = False
                                        bway = hand
                                state.hand = (
                                    bway + 1 if bway + 1 < bways else 0
                                )
                                replaced_addr = base_tags[bway]
                                was_dirty = base_dirty_col[bway]
                                if was_dirty:
                                    # Write back so the demoted
                                    # line is clean (Section IV.A).
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(addr, cycles)
                                replaced_size = base_size_col[bway]
                                have_replaced = True
                                del base_lookup[replaced_addr]
                            base_tags[bway] = addr
                            base_valid[bway] = True
                            base_dirty_col[bway] = fill_dirty
                            base_size_col[bway] = fill_size
                            base_lookup[addr] = bway
                            referenced[bway] = True
                            if (
                                vict_valid[bway]
                                and fill_size + bcset.vict_size[bway]
                                > bv_spl
                            ):
                                # Section IV.B.5: the fill no longer
                                # shares the physical way.
                                bv.stat_partner_evictions += 1
                                del bcset.vict_lookup[
                                    bcset.vict_tags[bway]
                                ]
                                bv._victim_resident -= 1
                                vict_valid[bway] = False
                                if bcset.vict_dirty[bway]:
                                    bcset.vict_dirty[bway] = False
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(addr, cycles)
                                else:
                                    silent_evictions_c += 1
                                    bv_silent_c += 1

                            if have_replaced:
                                # _insert_victim (ECM scan over the
                                # parallel columns), inlined.
                                room = bv_spl - replaced_size
                                way_v = -1
                                free_way = -1
                                free_size = -1
                                occ_size = -1
                                w = 0
                                for bvalid, bsize, vvalid in zip(
                                    base_valid,
                                    base_size_col,
                                    vict_valid,
                                ):
                                    if not bvalid:
                                        bsize = 0
                                    if bsize <= room:
                                        if vvalid:
                                            if bsize > occ_size:
                                                occ_size = bsize
                                                way_v = w
                                        elif bsize > free_size:
                                            free_size = bsize
                                            free_way = w
                                    w += 1
                                if free_way >= 0:
                                    way_v = free_way
                                if way_v < 0:
                                    bv.stat_demotion_drops += 1
                                else:
                                    bv_choices_c += 1
                                    if vict_valid[way_v]:
                                        bv_replacements_c += 1
                                        del bcset.vict_lookup[
                                            bcset.vict_tags[way_v]
                                        ]
                                        bv._victim_resident -= 1
                                        vict_valid[way_v] = False
                                        if bcset.vict_dirty[way_v]:
                                            bcset.vict_dirty[
                                                way_v
                                            ] = False
                                            memory_writes_c += 1
                                            if memory is not None:
                                                mem_write(addr, cycles)
                                        else:
                                            silent_evictions_c += 1
                                            bv_silent_c += 1
                                    bcset.vict_tags[way_v] = (
                                        replaced_addr
                                    )
                                    vict_valid[way_v] = True
                                    bcset.vict_dirty[way_v] = False
                                    bcset.vict_size[way_v] = (
                                        replaced_size
                                    )
                                    bcset.clock += 1
                                    bcset.vict_stamp[way_v] = (
                                        bcset.clock
                                    )
                                    bcset.vict_lookup[
                                        replaced_addr
                                    ] = way_v
                                    bv._victim_resident += 1
                                    bv_demotions_c += 1
                                    # Migration: read out of the
                                    # base way, write into here.
                                    llc_data_reads_c += 1
                                    llc_data_writes_c += 1
                                    llc_fill_segments_c += (
                                        replaced_size
                                    )

                            llc_data_writes_c += 1
                            llc_fill_segments_c += fill_size
                            if promotion:
                                bv_promotions_c += 1
                            else:
                                llc_data_reads_c += 1

                            if have_replaced:
                                # Back-invalidate the replaced line
                                # (single-line
                                # _process_invalidates, inlined).
                                icset = l1_sets[
                                    replaced_addr & l1_mask
                                ]
                                iway = icset.lookup.pop(
                                    replaced_addr, None
                                )
                                if iway is None:
                                    present = idirty = False
                                else:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = l1_dirty[islot]
                                    l1_valid[islot] = False
                                    l1_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l1_stamps[islot] = 0
                                    log.append(islot)
                                icset = l2_sets[
                                    replaced_addr & l2_mask
                                ]
                                iway = icset.lookup.pop(
                                    replaced_addr, None
                                )
                                if iway is not None:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = idirty or l2_dirty[islot]
                                    l2_valid[islot] = False
                                    l2_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l2_stamps[islot] = 0
                                if present:
                                    back_invalidations_c += 1
                                if idirty and not was_dirty:
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(
                                            replaced_addr, cycles
                                        )
                    else:
                        if uses_sizes:
                            size = memo_get(taddr)
                            if size is None:
                                size = size_fn(taddr)
                        else:
                            size = 1
                        result = llc_access(addr, _READ, size)
                        memory_reads_c += result.memory_reads
                        memory_writes_c += result.memory_writes
                        silent_evictions_c += result.silent_evictions
                        llc_data_reads_c += result.data_reads
                        llc_data_writes_c += result.data_writes
                        llc_fill_segments_c += result.fill_segments
                        llc_accesses_c += 1
                        read_latency = 0.0
                        if memory is not None:
                            if result.memory_reads:
                                read_latency = mem_read(addr, cycles)
                            for _ in range(result.memory_writes):
                                mem_write(addr, cycles)
                        inv = result.invalidates
                        if inv:
                            if len(inv) == 1:
                                # hierarchy._process_invalidates,
                                # inlined for the dominant one-line
                                # case (a fill drops at most one
                                # line from the baseline image).
                                inv_addr, wrote_back = inv[0]
                                icset = l1_sets[inv_addr & l1_mask]
                                iway = icset.lookup.pop(inv_addr, None)
                                if iway is None:
                                    present = idirty = False
                                else:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = l1_dirty[islot]
                                    l1_valid[islot] = False
                                    l1_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l1_stamps[islot] = 0
                                    log.append(islot)
                                icset = l2_sets[inv_addr & l2_mask]
                                iway = icset.lookup.pop(inv_addr, None)
                                if iway is not None:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = idirty or l2_dirty[islot]
                                    l2_valid[islot] = False
                                    l2_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l2_stamps[islot] = 0
                                if present:
                                    back_invalidations_c += 1
                                if idirty and not wrote_back:
                                    # Most-recent data lived
                                    # upstream; it must reach
                                    # memory.
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(inv_addr, cycles)
                            else:
                                hierarchy.now = cycles
                                process_invalidates(result)
                        extra = extra_tag_cycles
                        if result.hit:
                            llc_hits_c += 1
                            if result.victim_hit:
                                llc_victim_hits_c += 1
                            if result.compressed_hit:
                                compressed_hits_c += 1
                                extra += decompression_cycles
                            stall = (llc_exposed + extra) / mlp_llc
                        else:
                            llc_misses_c += 1
                            stall = (
                                llc_exposed + extra + read_latency
                            ) / mlp_memory

                    # Inlined hierarchy._fill_l2(addr) on the miss
                    # path (the L2-hit path fills only the L1).
                    base2 = l2set.base
                    index2 = l2set.index
                    if l2set.valid_count < l2_ways:
                        slot2 = l2_valid.index(False, base2, base2 + l2_ways)
                        l2set.valid_count += 1
                        l2_tags[slot2] = addr
                        l2_valid[slot2] = True
                        l2_dirty[slot2] = False
                        l2set.lookup[addr] = slot2 - base2
                        clock2 = l2_clocks[index2] + 1
                        l2_clocks[index2] = clock2
                        l2_stamps[slot2] = clock2
                    else:
                        seg2 = l2_stamps[base2 : base2 + l2_ways]
                        slot2 = base2 + seg2.index(min(seg2))
                        victim2 = l2_tags[slot2]
                        victim2_dirty = l2_dirty[slot2]
                        del l2set.lookup[victim2]
                        l2_evictions_c += 1
                        if victim2_dirty:
                            l2_writebacks_c += 1
                        l2_tags[slot2] = addr
                        l2_dirty[slot2] = False
                        l2set.lookup[addr] = slot2 - base2
                        clock2 = l2_clocks[index2] + 1
                        l2_clocks[index2] = clock2
                        l2_stamps[slot2] = clock2

                        # L1 must not outlive its L2 copy (inclusive
                        # pair): l1.invalidate, inlined.
                        v1set = l1_sets[victim2 & l1_mask]
                        v1way = v1set.lookup.pop(victim2, None)
                        was_dirty = victim2_dirty
                        if v1way is not None:
                            v1slot = v1set.base + v1way
                            was_dirty = was_dirty or l1_dirty[v1slot]
                            l1_valid[v1slot] = False
                            l1_dirty[v1slot] = False
                            v1set.valid_count -= 1
                            l1_stamps[v1slot] = 0
                            log.append(v1slot)
                        if was_dirty:
                            writebacks_to_llc_c += 1
                            if unc is not None:
                                # UncompressedLLC WRITEBACK, inlined:
                                # a hit refreshes and dirties the
                                # line; a miss bypasses to memory.
                                ucset = u_sets[victim2 & u_mask]
                                uway = ucset.lookup.get(victim2)
                                llc_accesses_c += 1
                                if uway is not None:
                                    uslot = ucset.base + uway
                                    u_ref[uslot] = True
                                    u_dirty[uslot] = True
                                    unc_hits_c += 1
                                    llc_data_writes_c += 1
                                    llc_fill_segments_c += 1
                                else:
                                    unc_misses_c += 1
                                    unc_wbmiss_c += 1
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(victim2, cycles)
                            elif bv_fast:
                                # BaseVictimLLC WRITEBACK: the two
                                # dominant outcomes (in-place base
                                # hit, non-resident bypass) inlined
                                # from the fused fast lane; the rare
                                # victim-hit promotion keeps the
                                # method call.
                                size_v = memo_get(victim2 - addr_offset)
                                if size_v is None:
                                    size_v = size_fn(victim2 - addr_offset)
                                bcset = bv_sets[victim2 & bv_mask]
                                base_way = bcset.base_lookup.get(
                                    victim2
                                )
                                if base_way is not None:
                                    # _base_hit WRITEBACK: the data
                                    # and size change in place.
                                    llc_accesses_c += 1
                                    bv_base_hits_c += 1
                                    bcset.policy_state.referenced[
                                        base_way
                                    ] = True
                                    bcset.base_dirty[base_way] = True
                                    bcset.base_size[base_way] = size_v
                                    llc_data_writes_c += 1
                                    llc_fill_segments_c += size_v
                                    if (
                                        bcset.vict_valid[base_way]
                                        and size_v
                                        + bcset.vict_size[base_way]
                                        > bv_spl
                                    ):
                                        # Section IV.B.5: the grown
                                        # line no longer shares.
                                        bv.stat_partner_evictions += 1
                                        del bcset.vict_lookup[
                                            bcset.vict_tags[base_way]
                                        ]
                                        bv._victim_resident -= 1
                                        bcset.vict_valid[
                                            base_way
                                        ] = False
                                        if bcset.vict_dirty[base_way]:
                                            bcset.vict_dirty[
                                                base_way
                                            ] = False
                                            memory_writes_c += 1
                                            if memory is not None:
                                                mem_write(
                                                    victim2, cycles
                                                )
                                        else:
                                            silent_evictions_c += 1
                                            bv_silent_c += 1
                                elif victim2 not in bcset.vict_lookup:
                                    # Writeback to a non-resident
                                    # line bypasses to memory.
                                    llc_accesses_c += 1
                                    bv.stat_writeback_misses += 1
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(victim2, cycles)
                                else:
                                    wb = llc_access(
                                        victim2, _WRITEBACK, size_v
                                    )
                                    memory_reads_c += wb.memory_reads
                                    memory_writes_c += wb.memory_writes
                                    silent_evictions_c += (
                                        wb.silent_evictions
                                    )
                                    llc_data_reads_c += wb.data_reads
                                    llc_data_writes_c += wb.data_writes
                                    llc_fill_segments_c += (
                                        wb.fill_segments
                                    )
                                    llc_accesses_c += 1
                                    if memory is not None:
                                        if wb.memory_reads:
                                            mem_read(victim2, cycles)
                                        for _ in range(
                                            wb.memory_writes
                                        ):
                                            mem_write(victim2, cycles)
                                    if wb.invalidates:
                                        hierarchy.now = cycles
                                        process_invalidates(wb)
                            else:
                                if uses_sizes:
                                    size_v = memo_get(victim2 - addr_offset)
                                    if size_v is None:
                                        size_v = size_fn(victim2 - addr_offset)
                                else:
                                    size_v = 1
                                wb = llc_access(victim2, _WRITEBACK, size_v)
                                memory_reads_c += wb.memory_reads
                                memory_writes_c += wb.memory_writes
                                silent_evictions_c += wb.silent_evictions
                                llc_data_reads_c += wb.data_reads
                                llc_data_writes_c += wb.data_writes
                                llc_fill_segments_c += wb.fill_segments
                                llc_accesses_c += 1
                                if memory is not None:
                                    if wb.memory_reads:
                                        mem_read(victim2, cycles)
                                    for _ in range(wb.memory_writes):
                                        mem_write(victim2, cycles)
                                if wb.invalidates:
                                    hierarchy.now = cycles
                                    process_invalidates(wb)
                        elif l2_hints:
                            # Clean, unreused L2 eviction: CHAR-style
                            # downgrade hint (hint_downgrade, inlined
                            # for both matrix LLC flavors).
                            if unc is not None:
                                ucset = u_sets[victim2 & u_mask]
                                uway = ucset.lookup.get(victim2)
                                if uway is not None:
                                    u_ref[ucset.base + uway] = False
                            elif bv is not None:
                                bcset = bv_sets[victim2 & bv_mask]
                                bway = bcset.base_lookup.get(victim2)
                                if bway is not None:
                                    bcset.policy_state.referenced[
                                        bway
                                    ] = False
                            else:
                                llc_hint(victim2)

                # Inlined hierarchy._fill_l1(addr, is_write) — both
                # the L2-hit and the L2-miss paths converge here.
                base1 = cset.base
                victim1_dirty = False
                victim1 = 0
                if cset.valid_count == ways:
                    seg1 = l1_stamps[base1 : base1 + ways]
                    slot1 = base1 + seg1.index(min(seg1))
                    victim1 = l1_tags[slot1]
                    victim1_dirty = l1_dirty[slot1]
                    del cset.lookup[victim1]
                    l1_evictions_c += 1
                    if victim1_dirty:
                        l1_writebacks_c += 1
                else:
                    slot1 = l1_valid.index(False, base1, base1 + ways)
                    cset.valid_count += 1
                l1_tags[slot1] = addr
                l1_valid[slot1] = True
                l1_dirty[slot1] = is_write
                cset.lookup[addr] = slot1 - base1
                index1 = cset.index
                clock1 = l1_clocks[index1] + 1
                l1_clocks[index1] = clock1
                l1_stamps[slot1] = clock1
                log.append(slot1)
                if victim1_dirty:
                    # Dirty L1 victim merges into the (inclusive) L2:
                    # l2.probe(victim1, is_write=True), inlined.
                    m2set = l2_sets[victim1 & l2_mask]
                    m2way = m2set.lookup.get(victim1)
                    if m2way is not None:
                        if l2_lru_inline:
                            index = m2set.index
                            clock = l2_clocks[index] + 1
                            l2_clocks[index] = clock
                            l2_stamps[m2set.base + m2way] = clock
                        else:
                            l2_policy.on_hit(m2set.policy_state, m2way)
                        l2_dirty[m2set.base + m2way] = True
                        l2_probe_hits_c += 1
                    else:
                        # Inclusion guarantees presence; refill
                        # defensively if not (rare repair path).
                        l2_probe_misses_c += 1
                        hierarchy.now = cycles
                        fill_l2(victim1, dirty=True)

                # Hardware prefetches issued by this miss.
                for target in prefetches:
                    if unc is not None:
                        # contains + PREFETCH access, inlined: after
                        # the residency check the access is always a
                        # fill (prefetch hits are dropped silently).
                        ucset = u_sets[target & u_mask]
                        if target in ucset.lookup:
                            continue
                        llc_accesses_c += 1
                        unc_misses_c += 1
                        memory_reads_c += 1
                        llc_data_writes_c += 1
                        llc_fill_segments_c += 1
                        prefetch_fills_c += 1
                        if memory is not None:
                            mem_read(target, cycles)
                        ubase = ucset.base
                        if ucset.valid_count == u_ways:
                            uindex = ucset.index
                            hand = u_hands[uindex]
                            try:
                                uway = (
                                    u_ref.index(
                                        False,
                                        ubase + hand,
                                        ubase + u_ways,
                                    )
                                    - ubase
                                )
                            except ValueError:
                                try:
                                    uway = (
                                        u_ref.index(
                                            False, ubase, ubase + hand
                                        )
                                        - ubase
                                    )
                                except ValueError:
                                    for w in range(
                                        ubase, ubase + u_ways
                                    ):
                                        u_ref[w] = False
                                    uway = hand
                            u_hands[uindex] = (
                                uway + 1 if uway + 1 < u_ways else 0
                            )
                            uslot = ubase + uway
                            uvictim = u_tags[uslot]
                            uvictim_dirty = u_dirty[uslot]
                            del ucset.lookup[uvictim]
                            unc_evictions_c += 1
                            if uvictim_dirty:
                                unc_writebacks_c += 1
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(target, cycles)
                            # Back-invalidate the evicted line
                            # (single-line _process_invalidates,
                            # inlined).
                            icset = l1_sets[uvictim & l1_mask]
                            iway = icset.lookup.pop(uvictim, None)
                            if iway is None:
                                present = idirty = False
                            else:
                                present = True
                                islot = icset.base + iway
                                idirty = l1_dirty[islot]
                                l1_valid[islot] = False
                                l1_dirty[islot] = False
                                icset.valid_count -= 1
                                l1_stamps[islot] = 0
                                log.append(islot)
                            icset = l2_sets[uvictim & l2_mask]
                            iway = icset.lookup.pop(uvictim, None)
                            if iway is not None:
                                present = True
                                islot = icset.base + iway
                                idirty = idirty or l2_dirty[islot]
                                l2_valid[islot] = False
                                l2_dirty[islot] = False
                                icset.valid_count -= 1
                                l2_stamps[islot] = 0
                            if present:
                                back_invalidations_c += 1
                            if idirty and not uvictim_dirty:
                                memory_writes_c += 1
                                if memory is not None:
                                    mem_write(uvictim, cycles)
                        else:
                            uslot = u_valid.index(
                                False, ubase, ubase + u_ways
                            )
                            uway = uslot - ubase
                            ucset.valid_count += 1
                        u_tags[uslot] = target
                        u_valid[uslot] = True
                        u_dirty[uslot] = False
                        ucset.lookup[target] = uway
                        u_ref[uslot] = True
                        continue
                    if bv is not None:
                        # BaseVictimLLC.contains, inlined.
                        bcset = bv_sets[target & bv_mask]
                        if (
                            target in bcset.base_lookup
                            or target in bcset.vict_lookup
                        ):
                            continue
                        if bv_fast:
                            # PREFETCH to a non-resident line: the
                            # fused fast lane's miss + fill path,
                            # inlined (the residency check above
                            # rules out both hit paths).
                            size_p = memo_get(target - addr_offset)
                            if size_p is None:
                                size_p = size_fn(target - addr_offset)
                            llc_accesses_c += 1
                            bv_misses_c += 1
                            memory_reads_c += 1
                            prefetch_fills_c += 1
                            if memory is not None:
                                mem_read(target, cycles)
                            fill_size = size_p

                            # _fill_baseline, inlined.
                            base_lookup = bcset.base_lookup
                            base_valid = bcset.base_valid
                            base_tags = bcset.base_tags
                            base_dirty_col = bcset.base_dirty
                            base_size_col = bcset.base_size
                            vict_valid = bcset.vict_valid
                            state = bcset.policy_state
                            referenced = state.referenced
                            have_replaced = False
                            replaced_addr = 0
                            replaced_size = 0
                            was_dirty = False
                            if bcset.base_valid_count < len(base_valid):
                                bway = base_valid.index(False)
                                bcset.base_valid_count += 1
                            else:
                                hand = state.hand
                                bways = len(referenced)
                                try:
                                    bway = referenced.index(False, hand)
                                except ValueError:
                                    try:
                                        bway = referenced.index(
                                            False, 0, hand
                                        )
                                    except ValueError:
                                        for w in range(bways):
                                            referenced[w] = False
                                        bway = hand
                                state.hand = (
                                    bway + 1 if bway + 1 < bways else 0
                                )
                                replaced_addr = base_tags[bway]
                                was_dirty = base_dirty_col[bway]
                                if was_dirty:
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(target, cycles)
                                replaced_size = base_size_col[bway]
                                have_replaced = True
                                del base_lookup[replaced_addr]
                            base_tags[bway] = target
                            base_valid[bway] = True
                            base_dirty_col[bway] = False
                            base_size_col[bway] = fill_size
                            base_lookup[target] = bway
                            referenced[bway] = True
                            if (
                                vict_valid[bway]
                                and fill_size + bcset.vict_size[bway]
                                > bv_spl
                            ):
                                bv.stat_partner_evictions += 1
                                del bcset.vict_lookup[
                                    bcset.vict_tags[bway]
                                ]
                                bv._victim_resident -= 1
                                vict_valid[bway] = False
                                if bcset.vict_dirty[bway]:
                                    bcset.vict_dirty[bway] = False
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(target, cycles)
                                else:
                                    silent_evictions_c += 1
                                    bv_silent_c += 1

                            if have_replaced:
                                # _insert_victim (ECM scan), inlined.
                                room = bv_spl - replaced_size
                                way_v = -1
                                free_way = -1
                                free_size = -1
                                occ_size = -1
                                w = 0
                                for bvalid, bsize, vvalid in zip(
                                    base_valid,
                                    base_size_col,
                                    vict_valid,
                                ):
                                    if not bvalid:
                                        bsize = 0
                                    if bsize <= room:
                                        if vvalid:
                                            if bsize > occ_size:
                                                occ_size = bsize
                                                way_v = w
                                        elif bsize > free_size:
                                            free_size = bsize
                                            free_way = w
                                    w += 1
                                if free_way >= 0:
                                    way_v = free_way
                                if way_v < 0:
                                    bv.stat_demotion_drops += 1
                                else:
                                    bv_choices_c += 1
                                    if vict_valid[way_v]:
                                        bv_replacements_c += 1
                                        del bcset.vict_lookup[
                                            bcset.vict_tags[way_v]
                                        ]
                                        bv._victim_resident -= 1
                                        vict_valid[way_v] = False
                                        if bcset.vict_dirty[way_v]:
                                            bcset.vict_dirty[
                                                way_v
                                            ] = False
                                            memory_writes_c += 1
                                            if memory is not None:
                                                mem_write(
                                                    target, cycles
                                                )
                                        else:
                                            silent_evictions_c += 1
                                            bv_silent_c += 1
                                    bcset.vict_tags[way_v] = (
                                        replaced_addr
                                    )
                                    vict_valid[way_v] = True
                                    bcset.vict_dirty[way_v] = False
                                    bcset.vict_size[way_v] = (
                                        replaced_size
                                    )
                                    bcset.clock += 1
                                    bcset.vict_stamp[way_v] = (
                                        bcset.clock
                                    )
                                    bcset.vict_lookup[
                                        replaced_addr
                                    ] = way_v
                                    bv._victim_resident += 1
                                    bv_demotions_c += 1
                                    llc_data_reads_c += 1
                                    llc_data_writes_c += 1
                                    llc_fill_segments_c += (
                                        replaced_size
                                    )

                            llc_data_writes_c += 1
                            llc_fill_segments_c += fill_size

                            if have_replaced:
                                # Back-invalidate the replaced line
                                # (single-line
                                # _process_invalidates, inlined).
                                icset = l1_sets[
                                    replaced_addr & l1_mask
                                ]
                                iway = icset.lookup.pop(
                                    replaced_addr, None
                                )
                                if iway is None:
                                    present = idirty = False
                                else:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = l1_dirty[islot]
                                    l1_valid[islot] = False
                                    l1_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l1_stamps[islot] = 0
                                    log.append(islot)
                                icset = l2_sets[
                                    replaced_addr & l2_mask
                                ]
                                iway = icset.lookup.pop(
                                    replaced_addr, None
                                )
                                if iway is not None:
                                    present = True
                                    islot = icset.base + iway
                                    idirty = idirty or l2_dirty[islot]
                                    l2_valid[islot] = False
                                    l2_dirty[islot] = False
                                    icset.valid_count -= 1
                                    l2_stamps[islot] = 0
                                if present:
                                    back_invalidations_c += 1
                                if idirty and not was_dirty:
                                    memory_writes_c += 1
                                    if memory is not None:
                                        mem_write(
                                            replaced_addr, cycles
                                        )
                            continue
                    elif llc_contains(target):
                        continue  # a prefetch hit is dropped silently
                    if uses_sizes:
                        size_p = memo_get(target - addr_offset)
                        if size_p is None:
                            size_p = size_fn(target - addr_offset)
                    else:
                        size_p = 1
                    pf = llc_access(target, _PREFETCH, size_p)
                    memory_reads_c += pf.memory_reads
                    memory_writes_c += pf.memory_writes
                    silent_evictions_c += pf.silent_evictions
                    llc_data_reads_c += pf.data_reads
                    llc_data_writes_c += pf.data_writes
                    llc_fill_segments_c += pf.fill_segments
                    llc_accesses_c += 1
                    if memory is not None:
                        if pf.memory_reads:
                            mem_read(target, cycles)
                        for _ in range(pf.memory_writes):
                            mem_write(target, cycles)
                    if pf.invalidates:
                        hierarchy.now = cycles
                        process_invalidates(pf)
                    if not pf.hit:
                        prefetch_fills_c += 1

                cycles += stall
                stall_cycles += stall
            if i == next_sample:
                samples.append(victim_occupancy())
                next_sample += sample_every
        else:
            i = hi
        core.cycles = cycles
        core.instructions = instructions
        core.stall_cycles = stall_cycles
        accesses_c += i - start
        if discard_log:
            log.clear()
        return i, next_sample

    def flush() -> None:
        stats = hierarchy.stats
        stats.accesses += accesses_c
        stats.l1_hits += l1_hits
        stats.l2_hits += l2_hits_c
        stats.llc_hits += llc_hits_c
        stats.llc_victim_hits += llc_victim_hits_c
        stats.llc_misses += llc_misses_c
        stats.back_invalidations += back_invalidations_c
        stats.compressed_hits += compressed_hits_c
        stats.memory_reads += memory_reads_c
        stats.memory_writes += memory_writes_c
        stats.silent_evictions += silent_evictions_c
        stats.llc_data_reads += llc_data_reads_c
        stats.llc_data_writes += llc_data_writes_c
        stats.llc_fill_segments += llc_fill_segments_c
        stats.llc_accesses += llc_accesses_c
        stats.writebacks_to_llc += writebacks_to_llc_c
        stats.prefetch_fills += prefetch_fills_c
        l1.stat_hits += l1_hits
        l1.stat_misses += accesses_c - l1_hits
        l1.stat_evictions += l1_evictions_c
        l1.stat_writebacks += l1_writebacks_c
        l2.stat_hits += l2_probe_hits_c
        l2.stat_misses += l2_probe_misses_c
        l2.stat_evictions += l2_evictions_c
        l2.stat_writebacks += l2_writebacks_c
        if unc is not None:
            unc.stat_hits += unc_hits_c
            unc.stat_misses += unc_misses_c
            unc.stat_evictions += unc_evictions_c
            unc.stat_writebacks += unc_writebacks_c
            llc.stat_writeback_misses += unc_wbmiss_c
        elif bv_fast:
            bv.stat_base_hits += bv_base_hits_c
            bv.stat_victim_hits += bv_victim_hits_c
            bv.stat_misses += bv_misses_c
            bv.stat_promotions += bv_promotions_c
            bv.stat_demotions += bv_demotions_c
            bv.stat_silent_evictions += bv_silent_c
            bv_vp.stat_choices += bv_choices_c
            bv_vp.stat_replacements += bv_replacements_c

    return run, flush


def run_batch_loop(
    deltas,
    addrs,
    kinds,
    hierarchy,
    core,
    on_write,
    victim_occupancy,
    sample_every: int,
    next_sample: int,
    occupancy,
    chunk_size: int | None = None,
) -> None:
    """Run one trace through the hierarchy with resumable vector probes.

    Mutates ``hierarchy``/``core``/``occupancy`` exactly like the traced
    loop in :func:`repro.sim.single_core.simulate_trace`, flushing the
    scalar kernel's batched counters once at the end.  ``next_sample``
    is ``-1`` when the LLC has no victim cache to sample.
    """
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    cap = chunk_size
    length = len(addrs)

    l1 = hierarchy.l1
    l1_mask = l1._set_mask
    num_sets = l1_mask + 1
    ways = l1.ways
    l1_tags = l1.tags
    l1_valid = l1.valid
    l1_stamps = l1.stamps
    l1_clocks = l1.clocks
    l1_dirty = l1.dirty
    base_cpi = core.base_cpi
    vector_hits = 0
    samples: list[int] = []

    # Zero-copy views over the trace's packed array.array columns.
    np_addrs = np.frombuffer(addrs, dtype=np.int64)
    np_deltas = np.frombuffer(deltas, dtype=np.int32)
    np_kinds = np.frombuffer(kinds, dtype=np.int8)

    # One snapshot of the L1's flat columns for the whole trace.  The
    # 2-D probe views alias the flat arrays, so patching a flat slot
    # below updates what the probe sees.
    t_flat = np.array(l1_tags, dtype=np.int64)
    v_flat = np.array(l1_valid, dtype=bool)
    tags2d = t_flat.reshape(num_sets, ways)
    valid2d = v_flat.reshape(num_sets, ways)
    log: list[int] = []
    run_scalar, flush = scalar_kernel(
        deltas,
        addrs,
        kinds,
        hierarchy,
        core,
        on_write,
        victim_occupancy,
        sample_every,
        samples,
        log=log,
    )
    prev_log = hierarchy._l1_log
    hierarchy._l1_log = log
    # Past this many logged slots (a scalar burst logs thousands) a bulk
    # refresh of the whole snapshot is cheaper than per-slot patching:
    # the list->array assignment is one C loop, a patch is four
    # interpreted operations per slot.
    refresh_floor = (num_sets * ways) // 4

    try:
        lo = 0
        seg = PROBE_MIN if PROBE_MIN < cap else cap
        short_runs = 0
        while lo < length:
            # Sync: patch the snapshot slots the scalar side mutated.
            if log:
                if len(log) > refresh_floor:
                    t_flat[:] = l1_tags
                    v_flat[:] = l1_valid
                else:
                    for slot in log:
                        t_flat[slot] = l1_tags[slot]
                        v_flat[slot] = l1_valid[slot]
                log.clear()

            # Probe the leading hit run from lo, in adaptively sized
            # segments, examining at most ``cap`` predictions.
            probe_hi = lo + cap
            if probe_hi > length:
                probe_hi = length
            run_len = 0
            part_sets: list = []
            part_ways: list = []
            seg_lo = lo
            miss = False
            while seg_lo < probe_hi:
                seg_hi = seg_lo + seg
                if seg_hi > probe_hi:
                    seg_hi = probe_hi
                a = np_addrs[seg_lo:seg_hi]
                sidx = a & l1_mask
                eq = (tags2d[sidx] == a[:, None]) & valid2d[sidx]
                seg_hit = eq.any(axis=1)
                if seg_hit.all():
                    part_sets.append(sidx)
                    part_ways.append(eq.argmax(axis=1))
                    run_len += seg_hi - seg_lo
                    seg_lo = seg_hi
                    grown = seg * 2
                    seg = grown if grown < cap else cap
                else:
                    k = int(np.argmax(~seg_hit))
                    if k:
                        part_sets.append(sidx[:k])
                        part_ways.append(eq[:k].argmax(axis=1))
                        run_len += k
                    miss = True
                    shrunk = 2 * run_len
                    if shrunk < SEG_MIN:
                        shrunk = SEG_MIN
                    seg = shrunk if shrunk < cap else cap
                    break
            m = lo + run_len

            if run_len >= VEC_MIN:
                # ---- vector-apply the leading hit run [lo, m) ----
                scalar_lo = m
                if len(part_sets) == 1:
                    r_set = part_sets[0]
                    r_way = part_ways[0]
                else:
                    r_set = np.concatenate(part_sets)
                    r_way = np.concatenate(part_ways)
                r_flat = r_set * ways + r_way

                # Exact LRU stamps: rank of each touch within its set's
                # ordered touches (stable sort keeps trace order per set).
                order = np.argsort(r_set, kind="stable")
                s_sorted = r_set[order]
                group_start = np.searchsorted(s_sorted, s_sorted, side="left")
                ranks = np.empty(run_len, dtype=np.int64)
                ranks[order] = np.arange(run_len, dtype=np.int64) - group_start + 1
                clocks_np = np.array(l1_clocks, dtype=np.int64)
                stamp_vals = clocks_np[r_set] + ranks

                # Each (set, way)'s final stamp is its *last* touch's stamp.
                order2 = np.argsort(r_flat, kind="stable")
                f_sorted = r_flat[order2]
                last = np.empty(run_len, dtype=bool)
                last[-1] = True
                np.not_equal(f_sorted[1:], f_sorted[:-1], out=last[:-1])
                wb_pos = order2[last]
                for flat, stamp in zip(
                    r_flat[wb_pos].tolist(), stamp_vals[wb_pos].tolist()
                ):
                    l1_stamps[flat] = stamp

                counts = np.bincount(r_set, minlength=num_sets)
                touched = np.flatnonzero(counts)
                for index, count in zip(
                    touched.tolist(), counts[touched].tolist()
                ):
                    l1_clocks[index] += count

                # Stores: dirty bits (order-free) and on_write (in order).
                wr_rel = np.flatnonzero(np_kinds[lo:m] == 1)
                if wr_rel.size:
                    for flat in np.unique(r_flat[wr_rel]).tolist():
                        l1_dirty[flat] = True
                    for j in wr_rel.tolist():
                        on_write(addrs[lo + j])

                d_run = np_deltas[lo:m]
                core.instructions += int(d_run.sum(dtype=np.int64))
                # Seeded sequential cumsum == the scalar float fold.
                buf = np.empty(run_len + 1, dtype=np.float64)
                buf[0] = core.cycles
                np.multiply(d_run, base_cpi, out=buf[1:])
                core.cycles = float(buf.cumsum()[-1])
                vector_hits += run_len

                if 0 <= next_sample < m:
                    value = victim_occupancy()
                    while next_sample < m:
                        samples.append(value)
                        next_sample += sample_every
            else:
                # Short run: the vector apply's fixed cost exceeds its
                # benefit, so replay these hits through the scalar kernel.
                scalar_lo = lo

            # Scalar span: the short run (if any), the predicted miss,
            # and — in a detected miss-heavy phase — a whole burst.
            scalar_hi = m + 1 if miss else m
            if miss:
                if run_len < SHORT_RUN:
                    short_runs += 1
                    if short_runs >= SHORT_LIMIT:
                        # Stay primed: while the miss-heavy phase lasts,
                        # one more short run re-triggers the next burst
                        # immediately instead of after SHORT_LIMIT more
                        # wasted probes.
                        short_runs = SHORT_LIMIT
                        scalar_hi = m + BURST
                        if scalar_hi > length:
                            scalar_hi = length
                else:
                    short_runs = 0


            # Scalar kernel for [scalar_lo, scalar_hi); its L1 mutations
            # land in the log and are patched in at the next sync.
            if scalar_lo < scalar_hi:
                _, next_sample = run_scalar(scalar_lo, scalar_hi, next_sample)

            lo = scalar_hi if miss else m
    finally:
        hierarchy._l1_log = prev_log

    flush()
    stats = hierarchy.stats
    stats.accesses += vector_hits
    stats.l1_hits += vector_hits
    l1.stat_hits += vector_hits
    for value in samples:
        occupancy.observe(value)
