"""The minor collection: a Parallel Scavenge-style scavenge with
Panthera's modifications (§4.2.2).

Phases and their costs (all charged as one parallel batch of 16 GC
threads; devices proceed concurrently, so NVM's 10 GB/s is the binding
constraint whenever card scanning touches NVM-resident arrays):

1. *root-task*: trace the young object graph from the roots.  Visiting an
   object costs one latency-bound read plus its header bytes on the
   device it resides on.  Tag bits are propagated parent -> child with
   the DRAM > NVM conflict rule.
2. *old-to-young task* (split by Panthera into DRAM-to-young and
   NVM-to-young): scan objects with dirty cards.  Scanning streams the
   object's full payload from its device.  Objects stuck dirty because
   of shared cards (§4.2.3) are rescanned by *every* minor GC.
3. copy/promote: live young objects are evacuated.  Panthera's *eager
   promotion* sends tagged objects straight to the old space named by
   their MEMORY_BITS; untagged objects age through the survivor spaces
   and are promoted after ``tenuring_threshold`` survivals.

Per-object costs are accumulated through
:class:`~repro.gc.charging.ChargeAccumulator` and deposited once per
device per phase — bit-identical to per-object depositing, several times
faster (see :mod:`repro.gc.charging`).
"""

from __future__ import annotations

from typing import List, Set

from repro.config import DeviceKind
from repro.core.tags import MEMORY_BITS_NONE, MemoryTag, merge_tags
from repro.errors import GCError
from repro.gc.charging import ChargeAccumulator
from repro.heap.object_model import HeapObject
from repro.memory.machine import TrafficSet
from repro.trace.events import PROMOTE, SURVIVOR_COPY


def _propagate_tag(parent: HeapObject, child: HeapObject) -> None:
    """Propagate MEMORY_BITS from parent to child during tracing, merging
    conflicts with DRAM > NVM (§4.2.2)."""
    if parent.memory_bits == MEMORY_BITS_NONE:
        return
    merged = merge_tags(
        MemoryTag.from_bits(parent.memory_bits), MemoryTag.from_bits(child.memory_bits)
    )
    child.set_tag(merged)


def run_minor_gc(collector) -> None:
    """Execute one minor collection on behalf of ``collector``."""
    heap = collector.heap
    machine = collector.machine
    config = collector.config
    policy = collector.policy
    stats = collector.stats

    start_ns = machine.clock.now_ns
    # Scanning (root trace + old-to-young card scan) and evacuation
    # (survivor/promotion copying) are charged as two serialized batches:
    # Parallel Scavenge's threads cannot overlap copy work behind the
    # card scan that discovers it.
    scan_traffic = TrafficSet()
    copy_traffic = TrafficSet()
    visited: Set[HeapObject] = set()
    young_live: List[HeapObject] = []

    # Floor cost: in-flight young data (aggregation buffers, iterator
    # state) that survives this one scavenge and is copied to a survivor
    # space, in every configuration — the young generation is always
    # DRAM-resident.
    eden = heap.eden
    floor_bytes = (eden.top - eden.base) * config.minor_live_fraction
    if floor_bytes > 0:
        copy_traffic.add(
            DeviceKind.DRAM, read_bytes=floor_bytes, write_bytes=floor_bytes
        )

    in_young = heap.in_young
    roots = heap.iter_roots()
    card_table = heap.card_table
    fresh = stuck = None
    if roots or card_table.pending_scan():
        charges = ChargeAccumulator(scan_traffic)
        # Visit charges are deferred into `pending` and settled with one
        # bulk `visit_all` call per segment; segments end wherever a
        # non-visit charge (a holder's stream_read) comes next, so the
        # charge sequence — and with it the device first-touch order —
        # matches charging each visit inline.
        pending: List[HeapObject] = []
        note = pending.append

        def trace_young(entry: HeapObject) -> None:
            """Trace the young subgraph reachable from ``entry``."""
            stack = [entry]
            while stack:
                obj = stack.pop()
                if obj in visited or not in_young(obj):
                    continue
                visited.add(obj)
                young_live.append(obj)
                note(obj)
                for child in obj.refs:
                    if in_young(child):
                        _propagate_tag(obj, child)
                        if child not in visited:
                            stack.append(child)

        # Phase 1: root task.  Old roots are covered by the card table;
        # young roots are traced.  Root objects with MEMORY_BITS set by
        # rdd_alloc are recognised here (§4.2.2's modified root-task).
        for root in roots:
            note(root)
            if in_young(root):
                trace_young(root)
        if pending:
            charges.visit_all(pending)
            pending.clear()

        # Phase 2: old-to-young card scan (deterministic order).
        fresh, stuck = card_table.scan_plan()
        if fresh or stuck:
            for holder in sorted(fresh | stuck, key=lambda o: o.oid):
                charges.stream_read(holder)
                stats.card_scanned_bytes += holder.size
                if holder in stuck:
                    stats.stuck_rescans += 1
                for child in holder.refs:
                    if in_young(child):
                        _propagate_tag(holder, child)
                        trace_young(child)
                if pending:
                    charges.visit_all(pending)
                    pending.clear()
        charges.flush()

    # Phase 3: copy / promote (skipped outright when nothing survived —
    # the common case for pure streaming churn).
    trace = heap.trace
    survivor_to = heap.survivor_to
    threshold = config.tenuring_threshold
    promoted: List[HeapObject] = []
    charges = ChargeAccumulator(copy_traffic) if young_live else None
    for obj in young_live:
        src = obj.space
        src_pieces = src.object_traffic(obj)
        if trace is not None:
            src_space = src.name
            src_device = src.device_of(obj.addr).value
        eager_space = policy.eager_promotion_space(heap, obj)
        if eager_space is not None:
            dest = eager_space
            stats.eager_promoted_objects += 1
        elif obj.age + 1 >= threshold:
            dest = policy.promotion_space(heap, obj)
        else:
            dest = survivor_to
        if dest is survivor_to:
            if survivor_to.end - survivor_to.top >= obj.size and survivor_to.place(obj):
                charges.copy(src_pieces, obj, survivor_to)
                obj.age += 1
                stats.copied_bytes += obj.size
                if trace is not None:
                    trace.move(SURVIVOR_COPY, obj, src_space, src_device)
                continue
            # Survivor overflow: fall through to promotion.
            dest = policy.promotion_space(heap, obj)
        nbytes = charges.copy(src_pieces, obj, dest)
        if not heap._place_in_old(obj, dest):
            raise GCError(
                "promotion failed: the collector must guarantee old-gen "
                "headroom before scavenging"
            )
        obj.age = 0  # age now counts survived major cycles
        stats.promoted_bytes += nbytes
        promoted.append(obj)
        if trace is not None:
            trace.move(PROMOTE, obj, src_space, src_device)
    if charges is not None:
        charges.flush()

    # Phase 4: card hygiene.  Freshly-scanned cards are cleaned unless the
    # object still holds young references (e.g. its tuples are still aging
    # in a survivor space); stuck cards stay dirty until a major GC.
    card_table.after_minor_scan()
    if fresh:
        for holder in sorted(fresh, key=lambda o: o.oid):
            if heap.in_old(holder) and any(in_young(c) for c in holder.refs):
                card_table.mark_dirty(holder)
    for obj in promoted:
        if any(in_young(c) for c in obj.refs):
            if not card_table.is_registered(obj):
                card_table.register(obj)
            card_table.mark_dirty(obj)

    # Phase 5: flip the young generation.  Everything still registered in
    # eden or the from-space is dead (survivors were evacuated above), so
    # the death events are published before the spaces are wiped.
    for space in (heap.eden, heap.survivor_from):
        if trace is not None:
            space_name = space.name
            for obj in sorted(space.objects, key=lambda o: o.oid):
                trace.free(obj, space_name)
        space.reset()
    heap.survivor_from, heap.survivor_to = heap.survivor_to, heap.survivor_from

    machine.clock.advance(config.gc_fixed_pause_ns)
    for batch in (scan_traffic, copy_traffic):
        # An empty batch is a no-op (zero duration, nothing recorded);
        # skipping it avoids the run_batch call on trivial scavenges.
        if batch.per_device:
            machine.run_batch(
                batch.per_device,
                threads=config.gc_threads,
                cpu_ns=_gc_processing_ns(batch, config),
            )
    stats.record_minor(start_ns, machine.clock.now_ns - start_ns)


def _gc_processing_ns(traffic: TrafficSet, config) -> float:
    """Object-work cost of the collection across all GC threads.

    Tracing, copying and card scanning are header checks, forwarding
    updates and reference fix-ups — not pure memcpy — so aggregate GC
    throughput is CPU-capped (~20 GB/s for 16 threads at the default
    0.05 ns/B).  On DRAM this cap binds; on NVM the 10 GB/s device
    bandwidth binds instead, which is §5.3's observation that Parallel
    Scavenge's parallelism is crippled by NVM bandwidth.
    """
    processed = 0.0
    for t in traffic.per_device.values():
        processed += t.read_bytes + t.write_bytes
    return processed * config.gc_ns_per_byte
