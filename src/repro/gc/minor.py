"""The minor collection: a Parallel Scavenge-style scavenge with
Panthera's modifications (§4.2.2).

Phases and their costs (charged on the 16 GC threads a series with a
pause kind runs on; devices proceed concurrently, so NVM's 10 GB/s is
the binding constraint whenever card scanning touches NVM-resident
arrays):

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
   and are promoted after ``TENURING_THRESHOLD`` survivals.

Scanning (phases 1-2) and evacuation (phase 3) each add their charges
into a :class:`~repro.gc.charging.ChargeAccumulator` — per-device
integer totals — and become one batch each.  The scan phase's visits
are every root plus every young object the trace reached, so they are
charged in bulk after the trace.  The cycle settles as one
:meth:`~repro.memory.machine.Machine.run_batch` series: the fixed pause,
the scan batch, then the copy batch — Parallel Scavenge's threads cannot
overlap copy work behind the card scan that discovers it.

The settle records the pause (the series' ``"minor"`` record kind
calls :meth:`~repro.gc.stats.GCStats.record_minor`), so a scavenge never
reads the clock.

*Steady* scavenges.  Streaming churn fills eden with bytes that never
become objects, so most scavenges start with an empty young generation.
Such a scavenge traces nothing and copies nothing, and its scan batch
depends only on the roots and the stuck cards; :class:`SteadyScavenge`
prices it once, and the later eden overflows of the same allocation
stream replay it (:meth:`~repro.heap.managed_heap.ManagedHeap.allocate_streaming`),
one series per replayed collection (:meth:`SteadyScavenge.replay`).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.config import (
    GC_FIXED_PAUSE_NS,
    MINOR_LIVE_FRACTION,
    TENURING_THRESHOLD,
)
from repro.core.tags import MEMORY_BITS_NONE, MemoryTag, merge_tags
from repro.errors import GCError
from repro.gc.charging import ChargeAccumulator
from repro.heap.object_model import HeapObject
from repro.trace.events import PROMOTE, SURVIVOR_COPY


#: A collection's first batch: the fixed pause, pure CPU.
_PAUSE_BATCH = ((), GC_FIXED_PAUSE_NS)


def _propagate_tag(parent: HeapObject, child: HeapObject) -> None:
    """Propagate MEMORY_BITS from parent to child during tracing, merging
    conflicts with DRAM > NVM (§4.2.2)."""
    if parent.memory_bits == MEMORY_BITS_NONE:
        return
    merged = merge_tags(
        MemoryTag.from_bits(parent.memory_bits), MemoryTag.from_bits(child.memory_bits)
    )
    child.set_tag(merged)


class SteadyScavenge:
    """The priced scan phase of a scavenge that starts with an empty
    young generation.

    A scavenge is *steady* when eden and the from-space hold no
    :class:`HeapObject`, no card is freshly dirty and no Deca regions
    are active (the to-space is always empty between scavenges).  The
    young generation is then empty: references change only through
    :meth:`~repro.heap.managed_heap.ManagedHeap.write_ref`, and an
    old-to-young store dirties the holder's card.  So the trace reaches
    nothing, nothing is copied or freed, and the promotion bound is 0.
    What remains is the scan traffic — a streamed read of every stuck
    object and a visit of every root — and fixed increments of
    ``card_scanned_bytes`` and ``stuck_rescans``.

    The plan holds no invalidation key: it lives inside one
    :meth:`~repro.heap.managed_heap.ManagedHeap.allocate_streaming`
    call, between whose overflows only eden bumps happen.

    Attributes:
        scan_batch: the scan phase's ``(rows, cpu_ns)`` batch.
        card_scanned_bytes: bytes of the stuck objects rescanned.
        stuck_rescans: number of stuck objects rescanned.
    """

    __slots__ = (
        "scan_batch",
        "card_scanned_bytes",
        "stuck_rescans",
        "_floor_bytes",
        "_copy_batch",
    )

    def __init__(self, heap) -> None:
        charges = ChargeAccumulator()
        _, stuck = heap.card_table.scan_plan()
        card_scanned_bytes = 0
        for holder in stuck:
            charges.stream_read(holder)
            card_scanned_bytes += holder.size
        charges.visit_all(heap.iter_roots())
        self.scan_batch = charges.batch()
        self.card_scanned_bytes = card_scanned_bytes
        self.stuck_rescans = len(stuck)
        self._floor_bytes = None
        self._copy_batch = None

    @classmethod
    def of(cls, heap) -> Optional["SteadyScavenge"]:
        """The plan of the scavenge about to run, or None when it is not
        steady."""
        if (
            heap.eden.objects
            or heap.survivor_from.objects
            or heap.card_table.has_fresh_dirt()
        ):
            return None
        return cls(heap)

    def replay(self, collector, fills: List[float]) -> None:
        """Replay this scavenge once per entry of ``fills``, eden's fill
        at each of the stream's later overflows.

        Each replay is what :func:`run_minor_gc` would do with this
        plan: the stats increments, the young generation's flip (eden
        and both survivors are empty, so only the survivor roles swap;
        the caller bumps eden from its base) and one series of the fixed
        pause, scan and copy batches, its pause recorded by the settle.
        """
        heap = collector.heap
        stats = collector.stats
        replays = len(fills)
        stats.card_scanned_bytes += self.card_scanned_bytes * replays
        stats.stuck_rescans += self.stuck_rescans * replays
        if replays % 2:
            heap.survivor_from, heap.survivor_to = heap.survivor_to, heap.survivor_from
        collector.minors_since_major += replays
        run_batch = collector.machine.run_batch
        scan_batch = self.scan_batch
        for fill in fills:
            copy_batch = self.copy_batch(fill * MINOR_LIVE_FRACTION)
            run_batch((_PAUSE_BATCH, scan_batch, copy_batch), record="minor")

    def copy_batch(self, floor_bytes: float):
        """The copy phase's batch: nothing but the DRAM floor.  Kept for
        the last floor seen: a stream's overflows after the first all
        find eden filled to the same top."""
        if floor_bytes != self._floor_bytes:
            self._floor_bytes = floor_bytes
            self._copy_batch = ChargeAccumulator().batch(floor_bytes)
        return self._copy_batch


def run_minor_gc(collector) -> Optional[SteadyScavenge]:
    """Execute one minor collection on behalf of ``collector``; a steady
    scavenge builds its plan here.

    Returns:
        The steady plan this scavenge ran, or None after a full scavenge.
    """
    heap = collector.heap
    machine = collector.machine
    stats = collector.stats

    # Floor cost: in-flight young data (aggregation buffers, iterator
    # state) that survives this one scavenge and is copied to a survivor
    # space, in every configuration — the young generation is always
    # DRAM-resident.  Settled as DRAM stream bytes of the copy batch.
    eden = heap.eden
    floor_bytes = (eden.top - eden.base) * MINOR_LIVE_FRACTION

    plan = SteadyScavenge.of(heap)
    if plan is None:
        scan_batch, copy_batch = _scavenge(collector, floor_bytes)
    else:
        scan_batch = plan.scan_batch
        copy_batch = plan.copy_batch(floor_bytes)
        stats.card_scanned_bytes += plan.card_scanned_bytes
        stats.stuck_rescans += plan.stuck_rescans

    # Phase 5: flip the young generation.  Everything still registered in
    # eden or the from-space is dead (survivors were evacuated), so the
    # death events are published before the spaces are wiped.
    trace = heap.trace
    for space in (eden, heap.survivor_from):
        if trace is not None:
            space_name = space.name
            for obj in sorted(space.objects, key=lambda o: o.oid):
                trace.free(obj, space_name)
        space.reset()
    heap.survivor_from, heap.survivor_to = heap.survivor_to, heap.survivor_from

    machine.run_batch((_PAUSE_BATCH, scan_batch, copy_batch), record="minor")
    return plan


def _scavenge(collector, floor_bytes: float):
    """Phases 1-4 of a full scavenge: trace, card scan, evacuation and
    card hygiene.

    Returns:
        The scan and copy phases' ``(rows, cpu_ns)`` batches, the copy
        batch with ``floor_bytes`` of DRAM stream added.
    """
    heap = collector.heap
    policy = collector.policy
    stats = collector.stats

    scan_charges = ChargeAccumulator()
    copy_charges = ChargeAccumulator()
    visited: Set[HeapObject] = set()
    young_live: List[HeapObject] = []

    in_young = heap.in_young
    roots = heap.iter_roots()
    card_table = heap.card_table
    fresh = stuck = None
    if roots or card_table.pending_scan():

        def trace_young(entry: HeapObject) -> None:
            """Trace the young subgraph reachable from ``entry``."""
            stack = [entry]
            while stack:
                obj = stack.pop()
                if obj in visited or not in_young(obj):
                    continue
                visited.add(obj)
                young_live.append(obj)
                for child in obj.refs:
                    if in_young(child):
                        _propagate_tag(obj, child)
                        if child not in visited:
                            stack.append(child)

        # Phase 1: root task.  Old roots are covered by the card table;
        # young roots are traced.  Root objects with MEMORY_BITS set by
        # rdd_alloc are recognised here (§4.2.2's modified root-task).
        for root in roots:
            if in_young(root):
                trace_young(root)

        # Phase 2: old-to-young card scan (deterministic order).
        fresh, stuck = card_table.scan_plan()
        if fresh or stuck:
            for holder in sorted(fresh | stuck, key=lambda o: o.oid):
                scan_charges.stream_read(holder)
                stats.card_scanned_bytes += holder.size
                if holder in stuck:
                    stats.stuck_rescans += 1
                for child in holder.refs:
                    if in_young(child):
                        _propagate_tag(holder, child)
                        trace_young(child)

        # Every root is visited, and so is every young object the trace
        # reached (a young root once more).
        scan_charges.visit_all(roots)
        scan_charges.visit_all(young_live)

    # Phase 3: copy / promote (skipped outright when nothing survived —
    # the common case for pure streaming churn).
    trace = heap.trace
    survivor_to = heap.survivor_to
    promoted: List[HeapObject] = []
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
        elif obj.age + 1 >= TENURING_THRESHOLD:
            dest = policy.promotion_space(heap, obj)
        else:
            dest = survivor_to
        if dest is survivor_to:
            if survivor_to.end - survivor_to.top >= obj.size and survivor_to.place(obj):
                copy_charges.copy(src_pieces, obj, survivor_to)
                obj.age += 1
                stats.copied_bytes += obj.size
                if trace is not None:
                    trace.move(SURVIVOR_COPY, obj, src_space, src_device)
                continue
            # Survivor overflow: fall through to promotion.
            dest = policy.promotion_space(heap, obj)
        nbytes = copy_charges.copy(src_pieces, obj, dest)
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

    return scan_charges.batch(), copy_charges.batch(floor_bytes)
