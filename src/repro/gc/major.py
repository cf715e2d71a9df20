"""The major collection: full-heap mark, sweep, per-space compaction and
Panthera's dynamic migration (§4.2.2).

Compaction never crosses the DRAM/NVM boundary — each old space is
compacted within itself, exactly the guarantee the paper adds to the
Parallel Scavenge full GC.  After compaction, the migration plan produced
by the placement policy is applied: under Panthera, RDD arrays whose
monitored call frequency says they are mis-placed move between the DRAM
and NVM components (together with their reachable data objects); under
Kingsguard-Writes, write-hot objects move into the DRAM region.

The mark and the moves (compaction, promotion, migration) each add
their charges into a :class:`~repro.gc.charging.ChargeAccumulator` —
per-device integer totals — and become one batch each.  The cycle
settles as one :meth:`~repro.memory.machine.Machine.run_batch` series:
the fixed pause, the mark batch, then the move batch, which starts only
after the mark; the settle records the pause.  The card table is only
refreshed for arrays compaction actually moved — objects in the dense
prefix keep their addresses, so their spans are already correct.
"""

from __future__ import annotations

from typing import Set

from repro.config import (
    CARD_SIZE,
    DENSE_PREFIX_WASTE,
    GC_FIXED_PAUSE_NS,
    DeviceKind,
)
from repro.errors import GCError
from repro.gc.charging import ChargeAccumulator
from repro.gc.minor import _propagate_tag
from repro.heap.object_model import HeapObject
from repro.trace.events import (
    MIGRATE_DRAM_TO_NVM,
    MIGRATE_NVM_TO_DRAM,
    PROMOTE,
)


def run_major_gc(collector) -> None:
    """Execute one full-heap collection on behalf of ``collector``."""
    heap = collector.heap
    machine = collector.machine
    policy = collector.policy
    stats = collector.stats
    monitor = collector.monitor

    mark_charges = ChargeAccumulator()
    move_charges = ChargeAccumulator()

    # Phase 1: mark.  Full trace over both generations.  The mark issues
    # nothing but visit charges, so the whole phase is one `visit_all`
    # over the mark order.
    mark_order: list = []
    note = mark_order.append
    visited: Set[HeapObject] = set()
    stack = list(heap.iter_roots())
    while stack:
        obj = stack.pop()
        if obj in visited:
            continue
        visited.add(obj)
        note(obj)
        for child in obj.refs:
            _propagate_tag(obj, child)
            if child not in visited:
                stack.append(child)
    mark_charges.visit_all(mark_order)

    # Phase 2: sweep the old generation.  The dead list is sorted only
    # when tracing, for a deterministic free-event order; the collection
    # itself is order-independent.
    trace = heap.trace
    card_table = heap.card_table
    for space in heap.old_spaces:
        dead = [obj for obj in space.objects if obj not in visited]
        if trace is not None:
            dead.sort(key=lambda o: o.oid)
        for obj in dead:
            space.discard(obj)
            card_table.unregister(obj)
            obj.space = None
            obj.addr = None
            if trace is not None:
                trace.free(obj, space.name)

    # Phase 3: evacuate the young generation.  A full GC tenures every
    # survivor; tagged objects land in the space their MEMORY_BITS name.
    live_young = [
        obj
        for space in heap.young_spaces
        for obj in sorted(space.objects, key=lambda o: o.oid)
        if obj in visited
    ]
    #: where each survivor came from (its space is cleared by the reset
    #: below, before the promotion loop re-places it); trace-only.
    young_src = (
        {obj: obj.space.name for obj in live_young} if trace is not None else {}
    )
    for space in heap.young_spaces:
        if trace is not None:
            space_name = space.name
            for obj in sorted(space.objects, key=lambda o: o.oid):
                if obj not in young_src:
                    trace.free(obj, space_name)
        space.reset()

    # Phase 4: compact each old space in place (never across the
    # DRAM/NVM boundary).  Like PSParallelCompact, a *dense prefix* is
    # left untouched: objects at the bottom of the space with little dead
    # space beneath them are not worth moving, which is what keeps stable
    # persisted RDDs from being rewritten (on NVM!) at every full GC.
    for space in heap.old_spaces:
        live = space.begin_compaction()
        waste_budget = int(space.size * DENSE_PREFIX_WASTE)
        sliding = False
        for obj in live:
            old_addr = obj.addr
            assert old_addr is not None
            if not sliding and old_addr - space.top <= waste_budget:
                # Dense prefix: keep the object in place, accept the gap.
                space.top = old_addr + obj.size
                if obj.padded:
                    remainder = space.top % CARD_SIZE
                    if remainder:
                        space.top += CARD_SIZE - remainder
                space.adopt(obj)
                continue
            sliding = True
            old_pieces = space.traffic_split(old_addr, obj.size)
            align = CARD_SIZE if (heap.card_padding and obj.is_array) else None
            if not space.place(obj, align_end_to=align):
                raise GCError(f"compaction overflowed space {space.name}")
            obj.padded = align is not None
            if obj.addr != old_addr:
                for device, nbytes in old_pieces:
                    move_charges.read(device, nbytes)
                for device, nbytes in space.object_traffic(obj):
                    move_charges.write(device, nbytes)
                stats.compacted_bytes += obj.size
                if obj.is_array:
                    # The address changed: refresh the card-table span.
                    # Dense-prefix arrays kept theirs, so only movers pay.
                    card_table.register(obj)

    # Now promote the young survivors into the compacted old spaces.
    for obj in live_young:
        dest = policy.promotion_space(heap, obj)
        move_charges.read(heap.eden.device, obj.size)
        if not heap._place_in_old(obj, dest):
            raise GCError("full GC could not tenure a young survivor")
        for device, nbytes in obj.space.object_traffic(obj):
            move_charges.write(device, nbytes)
        stats.promoted_bytes += obj.size
        obj.age = 0
        if trace is not None:
            # The whole young generation is DRAM-resident (§4.1).
            trace.move(PROMOTE, obj, young_src[obj], heap.eden.device.value)

    # Phase 5: dynamic migration (§4.2.2).
    moves = policy.plan_migrations(heap, monitor)
    for obj, dst_space in moves:
        if obj not in visited or dst_space.holds(obj):
            continue
        src_pieces = obj.space.object_traffic(obj)
        if trace is not None:
            src_space_name = obj.space.name
            src_device = obj.space.device_of(obj.addr)
        card_table.unregister(obj)
        align = CARD_SIZE if (heap.card_padding and obj.is_array) else None
        if not dst_space.place(obj, align_end_to=align):
            continue  # destination filled up; skip the rest of the group
        for device, nbytes in src_pieces:
            move_charges.read(device, nbytes)
        for device, nbytes in dst_space.object_traffic(obj):
            move_charges.write(device, nbytes)
        if obj.is_array:
            card_table.register(obj)
            if obj.rdd_id is not None:
                stats.migrated_rdd_ids.add(obj.rdd_id)
        stats.migrated_object_count += 1
        if trace is not None:
            dst_device = dst_space.device_of(obj.addr)
            kind = (
                MIGRATE_NVM_TO_DRAM
                if dst_device is DeviceKind.DRAM
                else MIGRATE_DRAM_TO_NVM
            )
            trace.move(kind, obj, src_space_name, src_device.value)

    # Phase 6: housekeeping.  Every card is cleaned; write counters and
    # RDD call frequencies start a new cycle; old objects age one major
    # cycle (dynamic migration only re-assesses full-cycle survivors).
    card_table.clear_all()
    in_young = heap.in_young
    for space in heap.old_spaces:
        for obj in space.objects:
            obj.write_count = 0
            obj.age += 1
            if obj.refs and any(in_young(c) for c in obj.refs):
                raise GCError("old-to-young reference survived a full GC")
    if monitor is not None:
        monitor.reset()

    machine.run_batch(
        (
            ((), GC_FIXED_PAUSE_NS),
            mark_charges.batch(),
            move_charges.batch(),
        ),
        record="major",
    )
