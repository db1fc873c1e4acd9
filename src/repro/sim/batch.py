"""Batch access engine: the scalar access kernel single-core runs and mixes share.

The scalar access kernel (:func:`scalar_kernel`) is the one inlined
copy of the demand path — the L1 hit and the miss path of
:meth:`~repro.cache.hierarchy.CacheHierarchy.access` —
over columns hoisted once per (hierarchy, trace), with every counter
batched in closure cells and flushed once.  Each LLC operation that the
demand, prefetch and writeback lanes share is written once, as a
closure over those columns and cells: the single-line back-invalidation,
the generic ``llc.access`` call, the uncompressed-NRU fill, and
Base-Victim's fill and victim drop.  Inlined updates land in the same
order with the same values as the per-method reference — the
hierarchy's and the LLC architectures' own methods, which the traced
engine runs.  The replay loop is a generator, so one frame serves every
span of a (hierarchy, trace) and a span costs one ``send``, not a call
that rebuilds a frame over the closure's free variables.  The kernel
keeps its own trace position and wraps at the trace end unless its
pass-end hook says the run is over, so a span is ``run(limit)`` and
nothing more.  Both of its callers drive it the same way, building it
once per (hierarchy, trace), calling ``run`` and then ``flush``:

* the ``batch`` engine of :func:`repro.sim.single_core.simulate_trace`
  replays the trace once as one span, ``run(inf)``;
* the mix driver (:func:`repro.sim.multi_core.simulate_mix`) runs each
  thread's run-ahead spans, often only one or two accesses long, and
  its hook records each thread's first-pass measurement.

Byte-identity against the traced reference loop — results, serialised
observations and the machine state left behind — is enforced by the
differential fuzz oracles in ``tests/sim/test_batch_equivalence.py``
(single core) and ``tests/sim/test_mix_equivalence.py`` (shared-LLC
mixes).
"""

from __future__ import annotations

from repro.cache.hierarchy import _decompression_cycles
from repro.cache.prefetch import _PAGE_LINES, _PAGE_MASK, _PAGE_SHIFT
from repro.cache.replacement.nru import NRUPolicy
from repro.cache.replacement.victim import ECMVictimPolicy
from repro.core.basevictim import BaseVictimLLC
from repro.core.interfaces import AccessKind
from repro.core.uncompressed import UncompressedLLC

# AccessKind members as plain ints (see repro.cache.hierarchy).
_READ = int(AccessKind.READ)
_WRITEBACK = int(AccessKind.WRITEBACK)
_PREFETCH = int(AccessKind.PREFETCH)


def _one_pass() -> bool:
    """The default pass-end hook: the run is over after one pass."""
    return True


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
    addr_offset: int = 0,
    size_memo: dict | None = None,
    size_fn=None,
    on_pass_end=_one_pass,
    countdown: list[int] | None = None,
):
    """The scalar access body for one (hierarchy, trace): ``(run, flush)``.

    ``run(limit)`` replays one span: accesses, from where the last span
    stopped, while the core's clock is ``< limit``.  It returns the
    clock.  The kernel keeps its own trace index.  At the trace end it
    writes the core back and calls ``on_pass_end()``, which returns
    True when the run is over: from then on the kernel issues nothing.
    Otherwise it wraps to the start of the trace and the span goes on
    while the clock is below the limit.  The default hook ends the run
    after one pass, so ``run(inf)`` replays the trace once.

    With a ``victim_occupancy``, the kernel appends ``victim_occupancy()``
    to ``samples`` once every ``sample_every`` accesses.  ``countdown``
    is a one-element list: the accesses until the next sample, counted
    over every kernel that shares it (a mix shares one; by default the
    kernel gets its own, starting at ``sample_every``).  A sampling
    kernel reads it when a span starts and writes it when the span
    stops; a kernel that does not sample never touches it.

    ``run`` is the bound ``send`` of one generator, so every span
    resumes the same frame.  That frame reads the core's cycles,
    instructions and stall cycles once, at the first span, and owns
    them from then on: it writes them back to ``core`` at each trace
    end and in ``flush()``, and nothing else may write ``core`` in
    between.

    ``flush()`` writes the core back and adds (``+=``) the batched
    counters back once, after the last span, so kernels over one shared
    LLC sum correctly.  ``addr_offset`` is added on the hierarchy side
    only: ``on_write`` and the size lookups (by default the
    hierarchy's) take the trace address.
    """
    length = len(addrs)
    sampling = victim_occupancy is not None
    if countdown is None:
        countdown = [sample_every]
    # The private caches' sets: one dict ``line -> dirty`` each, least
    # recently used first (see repro.cache.setassoc.LRUCache).
    l1 = hierarchy.l1
    l1_sets = l1._sets
    l1_mask = l1._set_mask
    ways = l1.ways

    l2 = hierarchy.l2
    l2_sets = l2._sets
    l2_mask = l2._set_mask
    l2_ways = l2.ways

    prefetcher = hierarchy.prefetcher
    pf_degree = prefetcher.degree
    pf_table = prefetcher._table
    pf_table_size = prefetcher.table_size

    llc = hierarchy.llc
    llc_access = llc.access
    llc_contains = llc.contains
    llc_hint = llc.hint_downgrade

    # LLC flavor lanes.  The perf matrix runs exactly two LLC flavors,
    # and both spend the bench traces almost entirely in the miss path,
    # so their demand, writeback, prefetch and hint sites are inlined
    # over hoisted columns: ``unc`` selects the uncompressed-NRU LLC and
    # ``bv`` the NRU Base-Victim LLC with clean victims inserted by ECM.
    # Any other LLC takes ``llc_call``, ``llc_contains`` and
    # ``llc_hint``, the plain method calls.  Both lanes touch each set's
    # ``policy_state.referenced`` bits inline on hits, hints and fills,
    # and take a full set's victim from the policy's own
    # ``choose_victim``, the one copy of NRU's hand scan.
    unc = None
    bv = None
    if isinstance(llc, UncompressedLLC) and type(llc.policy) is NRUPolicy:
        unc = llc.cache
        u_sets = unc._sets
        u_mask = unc._set_mask
        u_ways = unc.ways
        u_tags = unc.tags
        u_valid = unc.valid
        u_dirty = unc.dirty
        choose_victim = llc.policy.choose_victim
    elif (
        isinstance(llc, BaseVictimLLC)
        and type(llc.policy) is NRUPolicy
        and type(llc.victim_policy) is ECMVictimPolicy
        and llc.clean_victims
    ):
        # The inlined fills run ECM's slot choice.  With clean victims
        # no victim line is ever dirty, so every victim drop is silent
        # and every fill installs a clean line.
        bv = llc
        bv_sets = llc._sets
        bv_mask = llc._set_mask
        bv_spl = llc.segments_per_line
        bv_vp = llc.victim_policy
        choose_victim = llc.policy.choose_victim
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
    fill_l2 = hierarchy._fill_l2

    base_cpi = core.base_cpi
    l2_stall = core.l2_stall
    llc_exposed = core.llc_exposed
    mlp_llc = core.mlp_llc
    mlp_memory = core.mlp_memory

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

    def back_invalidate(line, wrote_back, now):
        """Drop ``line``, which left the LLC's baseline image, from L1 and L2.

        ``hierarchy._process_invalidates`` for one line: dirty upstream
        data goes to memory unless the LLC already wrote it back.
        """
        nonlocal back_invalidations_c, memory_writes_c
        # Each pop returns the line's dirty bit, or None if it was absent.
        dirty1 = l1_sets[line & l1_mask].pop(line, None)
        dirty2 = l2_sets[line & l2_mask].pop(line, None)
        if dirty1 is not None or dirty2 is not None:
            back_invalidations_c += 1
        if (dirty1 or dirty2) and not wrote_back:
            memory_writes_c += 1
            if memory is not None:
                mem_write(line, now)

    def llc_call(line, kind, size, now):
        """``hierarchy._llc_access``: ``(result, DRAM read latency)``.

        One ``llc.access`` with its stats merge, DRAM traffic and a
        ``back_invalidate`` per line the LLC dropped.
        """
        nonlocal memory_reads_c, memory_writes_c, silent_evictions_c
        nonlocal llc_data_reads_c, llc_data_writes_c, llc_fill_segments_c
        nonlocal llc_accesses_c
        result = llc_access(line, kind, size)
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
                read_latency = mem_read(line, now)
            for _ in range(result.memory_writes):
                mem_write(line, now)
        for dropped, dropped_wrote_back in result.invalidates:
            back_invalidate(dropped, dropped_wrote_back, now)
        return result, read_latency

    def unc_fill(uset, line, now):
        """Read ``line`` from memory into the uncompressed-NRU LLC.

        A miss or a prefetch: ``cache.fill``, inlined.  A full set evicts
        NRU's victim, writing it back if dirty and back-invalidating it.
        Returns the DRAM read latency.
        """
        nonlocal memory_reads_c, memory_writes_c, llc_data_writes_c
        nonlocal llc_fill_segments_c, unc_evictions_c, unc_writebacks_c
        memory_reads_c += 1
        llc_data_writes_c += 1
        llc_fill_segments_c += 1
        read_latency = mem_read(line, now) if memory is not None else 0.0
        base = uset.base
        if uset.valid_count == u_ways:
            way = choose_victim(uset.policy_state)
            slot = base + way
            victim = u_tags[slot]
            victim_dirty = u_dirty[slot]
            del uset.lookup[victim]
            unc_evictions_c += 1
            if victim_dirty:
                unc_writebacks_c += 1
                memory_writes_c += 1
                if memory is not None:
                    mem_write(line, now)
            back_invalidate(victim, victim_dirty, now)
        else:
            slot = u_valid.index(False, base, base + u_ways)
            way = slot - base
            uset.valid_count += 1
        u_tags[slot] = line
        u_valid[slot] = True
        u_dirty[slot] = False
        uset.lookup[line] = way
        uset.policy_state.referenced[way] = True
        return read_latency

    def bv_drop_victim(bset, way):
        """``BaseVictimLLC._evict_victim``; victims are clean, so it is silent."""
        nonlocal silent_evictions_c, bv_silent_c
        del bset.vict_lookup[bset.vict_tags[way]]
        bv._victim_resident -= 1
        bset.vict_valid[way] = False
        silent_evictions_c += 1
        bv_silent_c += 1

    def bv_fill(bset, line, size, now):
        """Install clean ``line`` in the Baseline Cache: a miss or a promotion.

        ``BaseVictimLLC._fill_baseline`` and its ECM ``_insert_victim``,
        inlined: free way first, then NRU's victim.  A dirty
        replaced line is written back so it is demoted clean (Section
        IV.A), the fill's victim partner is dropped when the two no
        longer share the way (Section IV.B.5), and the replaced line is
        back-invalidated whether it is demoted or dropped.
        """
        nonlocal memory_writes_c, llc_data_reads_c, llc_data_writes_c
        nonlocal llc_fill_segments_c, bv_choices_c, bv_replacements_c
        nonlocal bv_demotions_c
        base_valid = bset.base_valid
        base_size = bset.base_size
        vict_valid = bset.vict_valid
        replaced = None
        if bset.base_valid_count < len(base_valid):
            way = base_valid.index(False)
            bset.base_valid_count += 1
        else:
            way = choose_victim(bset.policy_state)
            replaced = bset.base_tags[way]
            was_dirty = bset.base_dirty[way]
            if was_dirty:
                memory_writes_c += 1
                if memory is not None:
                    mem_write(line, now)
            replaced_size = base_size[way]
            del bset.base_lookup[replaced]
        bset.base_tags[way] = line
        base_valid[way] = True
        bset.base_dirty[way] = False
        base_size[way] = size
        bset.base_lookup[line] = way
        bset.policy_state.referenced[way] = True
        if vict_valid[way] and size + bset.vict_size[way] > bv_spl:
            bv.stat_partner_evictions += 1
            bv_drop_victim(bset, way)
        llc_data_writes_c += 1
        llc_fill_segments_c += size
        if replaced is None:
            return

        # ECM over the parallel columns: among the ways whose base
        # partner leaves room, a free slot beside the largest base,
        # else the occupied slot beside the largest base.
        room = bv_spl - replaced_size
        way = free_way = -1
        occ_size = free_size = -1
        w = 0
        # A demotion follows a replacement: the set is full, every base way valid.
        for bsize, vvalid in zip(base_size, vict_valid):
            if bsize <= room:
                if vvalid:
                    if bsize > occ_size:
                        occ_size = bsize
                        way = w
                elif bsize > free_size:
                    free_size = bsize
                    free_way = w
            w += 1
        if free_way >= 0:
            way = free_way
        if way < 0:
            bv.stat_demotion_drops += 1
        else:
            bv_choices_c += 1
            if vict_valid[way]:
                bv_replacements_c += 1
                bv_drop_victim(bset, way)
            bset.vict_tags[way] = replaced
            vict_valid[way] = True
            bset.vict_size[way] = replaced_size
            bset.clock += 1
            bset.vict_stamp[way] = bset.clock
            bset.vict_lookup[replaced] = way
            bv._victim_resident += 1
            bv_demotions_c += 1
            # Migration: read out of the base way, write into here.
            llc_data_reads_c += 1
            llc_data_writes_c += 1
            llc_fill_segments_c += replaced_size
        back_invalidate(replaced, was_dirty, now)

    def replay():
        """The span loop behind ``run``: one frame for every span."""
        nonlocal accesses_c, l1_hits, l2_hits_c, llc_hits_c, llc_victim_hits_c
        nonlocal llc_misses_c, compressed_hits_c, memory_reads_c, memory_writes_c
        nonlocal llc_data_reads_c, llc_data_writes_c, llc_fill_segments_c
        nonlocal llc_accesses_c, writebacks_to_llc_c, prefetch_fills_c
        nonlocal l1_evictions_c, l1_writebacks_c, l2_probe_hits_c
        nonlocal l2_probe_misses_c, l2_evictions_c, l2_writebacks_c
        nonlocal unc_hits_c, unc_misses_c, unc_wbmiss_c, bv_base_hits_c
        nonlocal bv_victim_hits_c, bv_misses_c, bv_promotions_c
        limit = yield
        cycles = core.cycles
        instructions = core.instructions
        stall_cycles = core.stall_cycles
        i = 0
        next_sample = countdown[0] - 1 if sampling else -1
        while True:
            # Indexed reads, not zip over slices: a mix span is often one or
            # two accesses, and per-span slicing would cost more than that.
            for i in range(i, length):
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
                l1set = l1_sets[addr & l1_mask]
                dirty = l1set.pop(addr, None)
                if dirty is not None:
                    # Inlined l1.probe hit: the LRU touch reinserts the
                    # line at the set's MRU end, merging the store.
                    l1set[addr] = dirty or is_write
                    l1_hits += 1
                else:
                    # Inlined l2.probe (a demand read never dirties L2).
                    l2set = l2_sets[addr & l2_mask]
                    dirty = l2set.pop(addr, None)
                    if dirty is not None:
                        l2set[addr] = dirty
                        l2_probe_hits_c += 1
                        l2_hits_c += 1
                        stall = l2_stall
                        prefetches: list[int] | tuple[()] = ()
                    else:
                        l2_probe_misses_c += 1

                        # Prefetcher training (StreamPrefetcher.observe,
                        # inlined; the branches are reordered but every
                        # table/counter update lands in the same order).
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
                            # UncompressedLLC.access(addr, READ, 1), inlined.
                            ucset = u_sets[addr & u_mask]
                            uway = ucset.lookup.get(addr)
                            llc_accesses_c += 1
                            if uway is not None:
                                ucset.policy_state.referenced[uway] = True
                                unc_hits_c += 1
                                llc_hits_c += 1
                                llc_data_reads_c += 1
                                stall = (
                                    llc_exposed + extra_tag_cycles
                                ) / mlp_llc
                            else:
                                unc_misses_c += 1
                                llc_misses_c += 1
                                llc_data_reads_c += 1
                                read_latency = unc_fill(ucset, addr, cycles)
                                stall = (
                                    llc_exposed
                                    + extra_tag_cycles
                                    + read_latency
                                ) / mlp_memory
                        elif bv is not None:
                            # BaseVictimLLC.access(addr, READ, size) —
                            # _base_hit, _victim_hit or _miss — inlined.
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
                                    # _victim_hit READ: the line leaves the
                                    # Victim Cache and is promoted exactly
                                    # like a fill.
                                    bv_victim_hits_c += 1
                                    llc_hits_c += 1
                                    llc_victim_hits_c += 1
                                    llc_data_reads_c += 1
                                    # Promoted at its stored size.
                                    size = bcset.vict_size[vict_way]
                                    extra = extra_tag_cycles
                                    if 0 < size < bv_spl:
                                        compressed_hits_c += 1
                                        extra += decompression_cycles
                                    stall = (llc_exposed + extra) / mlp_llc
                                    del bcset.vict_lookup[addr]
                                    bv._victim_resident -= 1
                                    bcset.vict_valid[vict_way] = False
                                    bv_promotions_c += 1
                                else:
                                    # _miss READ, inlined.
                                    bv_misses_c += 1
                                    llc_misses_c += 1
                                    memory_reads_c += 1
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
                                bv_fill(bcset, addr, size, cycles)
                        else:
                            if uses_sizes:
                                size = memo_get(taddr)
                                if size is None:
                                    size = size_fn(taddr)
                            else:
                                size = 1
                            result, read_latency = llc_call(
                                addr, _READ, size, cycles
                            )
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
                        # path (the L2-hit path fills only the L1): append
                        # at the MRU end, and an overfull set evicts its
                        # first (least recently used) key.
                        l2set[addr] = False
                        if len(l2set) > l2_ways:
                            victim2 = next(iter(l2set))
                            victim2_dirty = l2set.pop(victim2)
                            l2_evictions_c += 1
                            if victim2_dirty:
                                l2_writebacks_c += 1

                            # L1 must not outlive its L2 copy (inclusive
                            # pair): l1.invalidate, inlined.
                            dirty = l1_sets[victim2 & l1_mask].pop(victim2, None)
                            if victim2_dirty or dirty:
                                writebacks_to_llc_c += 1
                                if unc is not None:
                                    # UncompressedLLC WRITEBACK, inlined:
                                    # a hit refreshes and dirties the
                                    # line; a miss bypasses to memory.
                                    ucset = u_sets[victim2 & u_mask]
                                    uway = ucset.lookup.get(victim2)
                                    llc_accesses_c += 1
                                    if uway is not None:
                                        ucset.policy_state.referenced[uway] = True
                                        u_dirty[ucset.base + uway] = True
                                        unc_hits_c += 1
                                        llc_data_writes_c += 1
                                        llc_fill_segments_c += 1
                                    else:
                                        unc_misses_c += 1
                                        unc_wbmiss_c += 1
                                        memory_writes_c += 1
                                        if memory is not None:
                                            mem_write(victim2, cycles)
                                elif bv is not None:
                                    # BaseVictimLLC WRITEBACK: the two
                                    # dominant outcomes (in-place base
                                    # hit, non-resident bypass) inlined;
                                    # the rare victim-hit promotion keeps
                                    # the method call.
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
                                            bv_drop_victim(bcset, base_way)
                                    elif victim2 not in bcset.vict_lookup:
                                        # Writeback to a non-resident
                                        # line bypasses to memory.
                                        llc_accesses_c += 1
                                        bv.stat_writeback_misses += 1
                                        memory_writes_c += 1
                                        if memory is not None:
                                            mem_write(victim2, cycles)
                                    else:
                                        llc_call(
                                            victim2, _WRITEBACK, size_v, cycles
                                        )
                                else:
                                    if uses_sizes:
                                        size_v = memo_get(victim2 - addr_offset)
                                        if size_v is None:
                                            size_v = size_fn(victim2 - addr_offset)
                                    else:
                                        size_v = 1
                                    llc_call(victim2, _WRITEBACK, size_v, cycles)
                            elif l2_hints:
                                # Clean, unreused L2 eviction: CHAR-style
                                # downgrade hint (hint_downgrade, inlined
                                # for both matrix LLC flavors).
                                if unc is not None:
                                    ucset = u_sets[victim2 & u_mask]
                                    uway = ucset.lookup.get(victim2)
                                    if uway is not None:
                                        ucset.policy_state.referenced[uway] = False
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
                    # the L2-hit and the L2-miss paths converge here.  As
                    # in the L2 fill, an overfull set evicts its first key.
                    l1set[addr] = is_write
                    if len(l1set) > ways:
                        victim1 = next(iter(l1set))
                        l1_evictions_c += 1
                        if l1set.pop(victim1):
                            l1_writebacks_c += 1
                            # Dirty L1 victim merges into the (inclusive)
                            # L2: l2.probe(victim1, is_write=True),
                            # inlined with its LRU touch.
                            m2set = l2_sets[victim1 & l2_mask]
                            if m2set.pop(victim1, None) is not None:
                                m2set[victim1] = True
                                l2_probe_hits_c += 1
                            else:
                                # Inclusion guarantees presence; refill
                                # defensively if not (rare repair path).
                                l2_probe_misses_c += 1
                                hierarchy.now = cycles
                                fill_l2(victim1, dirty=True)

                    # Hardware prefetches issued by this miss.  Like the
                    # reference, a prefetch lookup counts no LLC hit or
                    # miss, and a prefetch that hits is dropped silently.
                    for target in prefetches:
                        if unc is not None:
                            # contains + PREFETCH access, inlined.
                            ucset = u_sets[target & u_mask]
                            if target in ucset.lookup:
                                continue
                            llc_accesses_c += 1
                            prefetch_fills_c += 1
                            unc_fill(ucset, target, cycles)
                            continue
                        if bv is not None:
                            # BaseVictimLLC.contains, inlined.
                            bcset = bv_sets[target & bv_mask]
                            if (
                                target in bcset.base_lookup
                                or target in bcset.vict_lookup
                            ):
                                continue
                            # PREFETCH to a non-resident line: _miss,
                            # inlined (the residency check above rules
                            # out both hit paths).
                            size_p = memo_get(target - addr_offset)
                            if size_p is None:
                                size_p = size_fn(target - addr_offset)
                            llc_accesses_c += 1
                            bv_misses_c += 1
                            memory_reads_c += 1
                            prefetch_fills_c += 1
                            if memory is not None:
                                mem_read(target, cycles)
                            bv_fill(bcset, target, size_p, cycles)
                            continue
                        if llc_contains(target):
                            continue
                        if uses_sizes:
                            size_p = memo_get(target - addr_offset)
                            if size_p is None:
                                size_p = size_fn(target - addr_offset)
                        else:
                            size_p = 1
                        pf, _ = llc_call(target, _PREFETCH, size_p, cycles)
                        if not pf.hit:
                            prefetch_fills_c += 1

                    cycles += stall
                    stall_cycles += stall
                if i == next_sample:
                    samples.append(victim_occupancy())
                    next_sample += sample_every
            else:
                # The trace end: write the core back for the hook, then
                # wrap unless the run is over.
                core.cycles = cycles
                core.instructions = instructions
                core.stall_cycles = stall_cycles
                accesses_c += length
                i = 0
                if sampling:
                    next_sample -= length
                if on_pass_end():
                    while True:
                        yield cycles
                continue
            if sampling:
                countdown[0] = next_sample - i + 1
            try:
                limit = yield cycles
            except GeneratorExit:
                # flush() closes the generator: the core's last write-back.
                core.cycles = cycles
                core.instructions = instructions
                core.stall_cycles = stall_cycles
                accesses_c += i
                return
            if sampling:
                next_sample = i + countdown[0] - 1

    spans = replay()
    next(spans)

    def flush() -> None:
        spans.close()
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
        elif bv is not None:
            bv.stat_base_hits += bv_base_hits_c
            bv.stat_victim_hits += bv_victim_hits_c
            bv.stat_misses += bv_misses_c
            bv.stat_promotions += bv_promotions_c
            bv.stat_demotions += bv_demotions_c
            bv.stat_silent_evictions += bv_silent_c
            bv_vp.stat_choices += bv_choices_c
            bv_vp.stat_replacements += bv_replacements_c

    return spans.send, flush
