"""The managed heap facade: allocation, roots, barrier, GC triggering.

This is the object the rest of the system talks to.  It owns the young
generation, the policy-built old spaces, the card table and the tag-wait
allocator state, and it delegates collections to the attached collector
(two-phase initialisation, since the collector also needs the heap).
The collector holds the heap; the heap holds its collector only weakly,
so the pair frees by reference counting.
"""

from __future__ import annotations

import weakref
from typing import Iterable, List, Optional, Set

from repro.config import CARD_SIZE, SystemConfig
from repro.errors import HeapError, OutOfMemoryError, OwnerFreedError
from repro.heap.allocator import TagWaitState
from repro.heap.layout import build_native_space, build_young_spaces
from repro.heap.card_table import CardTable
from repro.heap.object_model import HeapObject, ObjKind
from repro.heap.spaces import Space
from repro.memory.machine import Machine


class ManagedHeap:
    """The simulated JVM heap.

    Attributes:
        config: system configuration.
        machine: the simulated machine costs are charged to.
        eden, survivor_from, survivor_to: young generation spaces (DRAM).
        old_spaces: policy-built old generation spaces.
        native: the off-heap NVM region.
        card_table: dirty-card tracking for old-generation objects.
        tag_wait: the §4.2.1 "waiting for the RDD array" state.
    """

    def __init__(
        self,
        config: SystemConfig,
        machine: Machine,
        old_spaces: List[Space],
        card_padding: bool,
    ) -> None:
        self.config = config
        self.machine = machine
        (
            self.eden,
            self.survivor_from,
            self.survivor_to,
            next_base,
        ) = build_young_spaces(config)
        expected_old = sum(s.size for s in old_spaces)
        if expected_old > config.old_gen_bytes + config.interleave_chunk_bytes:
            raise HeapError("old spaces exceed the configured old generation")
        self.old_spaces = list(old_spaces)
        for space in self.old_spaces:
            if space.base < next_base:
                raise HeapError(f"old space {space.name} overlaps the young gen")
        native_base = max((s.end for s in self.old_spaces), default=next_base)
        self.native = build_native_space(config, native_base)
        self.card_table = CardTable()
        self.card_padding = card_padding
        self.tag_wait = TagWaitState(config.large_array_threshold)
        self._roots: Set[HeapObject] = set()
        #: memoised sorted root list (every GC sorts the roots otherwise;
        #: invalidated by add_root / remove_root)
        self._sorted_roots: Optional[List[HeapObject]] = None
        #: weak reference to the collector (see :attr:`collector`)
        self._collector: Optional[weakref.ref] = None
        #: optional :class:`~repro.trace.bus.TraceBus` the allocator and
        #: the GCs publish placement events to (None = tracing off; every
        #: emission site is guarded so the disabled cost is one check).
        self.trace = None
        #: off-intended old-gen placements (the graceful-degradation
        #: ladder: an NVM-tagged object that could not fit its intended
        #: space landed in another instead of aborting) and their bytes.
        self.fallback_count = 0
        self.fallback_bytes = 0.0
        #: old-gen bytes pinned by unreclaimable control objects (the
        #: fault injector's NVM-exhaustion balloon); capacity planners
        #: (block-manager eviction) must not count them as usable.
        self.pinned_old_bytes = 0.0
        #: optional :class:`~repro.heap.regions.RegionManager` (Deca's
        #: lifetime arenas; None for every tracing policy).  When set,
        #: classified allocations bypass the generational machinery.
        self.regions = None

    @property
    def collector(self):
        """The attached collector (``collect_minor()``/``collect_major()``),
        or None.  Set post-construction, by the collector itself; held
        weakly, so whoever attached it must keep it."""
        return self._collector() if self._collector is not None else None

    @collector.setter
    def collector(self, collector) -> None:
        self._collector = weakref.ref(collector) if collector is not None else None

    # -- space queries -----------------------------------------------------

    @property
    def young_spaces(self) -> List[Space]:
        """Eden plus the two survivor semi-spaces."""
        return [self.eden, self.survivor_from, self.survivor_to]

    def old_space_or_none(self, name: str) -> Optional[Space]:
        """The old space called ``name``, or None when the layout has
        none (e.g. no ``old-dram`` component without DRAM)."""
        for space in self.old_spaces:
            if space.name == name:
                return space
        return None

    def old_space_named(self, name: str) -> Space:
        """Look up an old space by name; raises HeapError if absent."""
        space = self.old_space_or_none(name)
        if space is None:
            raise HeapError(f"no old space named {name!r}")
        return space

    def in_young(self, obj: HeapObject) -> bool:
        """Whether the object currently resides in the young generation."""
        return obj.space is not None and obj.space.generation == "young"

    def in_old(self, obj: HeapObject) -> bool:
        """Whether the object currently resides in the old generation."""
        return obj.space is not None and obj.space.generation == "old"

    def old_used_bytes(self) -> int:
        """Bytes bump-allocated across all old spaces."""
        return sum(s.used for s in self.old_spaces)

    def old_capacity_bytes(self) -> int:
        """Total old generation capacity."""
        return sum(s.size for s in self.old_spaces)

    # -- roots ---------------------------------------------------------------

    def add_root(self, obj: HeapObject) -> None:
        """Register a GC root (driver variable, persisted block, ...)."""
        self._roots.add(obj)
        self._sorted_roots = None

    def remove_root(self, obj: HeapObject) -> None:
        """Unregister a GC root."""
        self._roots.discard(obj)
        self._sorted_roots = None

    def iter_roots(self) -> Iterable[HeapObject]:
        """All current roots, in allocation order (deterministic).

        The sorted list is memoised between root-set changes — callers
        must not mutate it (every in-tree caller copies or iterates).
        """
        if self._sorted_roots is None:
            self._sorted_roots = sorted(self._roots, key=lambda o: o.oid)
        return self._sorted_roots

    def is_root(self, obj: HeapObject) -> bool:
        """Whether the object is currently a root."""
        return obj in self._roots

    # -- allocation ------------------------------------------------------------

    def _require_collector(self):
        if self._collector is None:
            raise HeapError("no collector attached to the heap")
        collector = self._collector()
        if collector is None:
            raise OwnerFreedError("the heap's collector was freed")
        return collector

    def allocate_ephemeral(self, nbytes: int) -> None:
        """Bump-allocate short-lived streaming bytes in eden.

        No :class:`HeapObject` is created — streaming tuples die before the
        next collection ever traces them — but the bytes fill eden and
        therefore drive minor-GC frequency exactly like real allocation.
        """
        if nbytes < 0:
            raise HeapError("negative ephemeral allocation")
        if self.regions is not None and self.regions.take_ephemeral(self, nbytes):
            return
        # Inlined bump: this is the hottest mutator path (called for every
        # streamed batch), so the common in-bounds case pays two attribute
        # reads and an add instead of a Space.allocate call.
        eden = self.eden
        new_top = eden.top + nbytes
        if new_top <= eden.end:
            eden.top = new_top
            return
        if nbytes > eden.size:
            raise HeapError(
                f"ephemeral allocation of {nbytes} exceeds eden "
                f"({eden.size}); chunk the request"
            )
        self._require_collector().collect_minor()
        if eden.allocate(nbytes) is None:
            raise OutOfMemoryError("eden full even after a minor GC")

    def allocate_streaming(self, nbytes: int) -> None:
        """Stream ``nbytes`` of short-lived bytes through eden.

        The stream is bump-allocated in chunks of a quarter of eden, each
        allocated as :meth:`allocate_ephemeral` would.  When a chunk
        overflows eden, the minor GC it triggers may hand back a
        :class:`~repro.gc.minor.SteadyScavenge` plan (it found the young
        generation empty), and the stream's later overflows replay that
        plan, all in one :meth:`~repro.gc.minor.SteadyScavenge.replay`
        when the stream ends.  Only eden bumps happen between two
        overflows of one call, so the plan cannot go stale, and a replay
        needs no promotion guarantee (its young generation is empty); the
        plan is dropped when the call returns.
        Under Deca's regions every chunk goes through
        :meth:`allocate_ephemeral`, which the arenas may absorb.
        """
        if nbytes < 0:
            raise HeapError("negative streaming allocation")
        eden = self.eden
        chunk = max(1, eden.size // 4)
        if self.regions is not None:
            while nbytes > 0:
                take = chunk if nbytes > chunk else nbytes
                self.allocate_ephemeral(take)
                nbytes -= take
            return
        if eden.top + nbytes <= eden.end:
            # No chunk can overflow when the whole stream fits: one bump.
            eden.top += nbytes
            return
        collector = self._require_collector()
        plan = None
        fills = []  # eden's fill at each overflow that replays the plan
        while nbytes > 0:
            take = chunk if nbytes > chunk else nbytes
            new_top = eden.top + take
            if new_top > eden.end:
                if plan is None:
                    plan = collector.collect_minor()
                    new_top = eden.top + take
                    if new_top > eden.end:
                        raise OutOfMemoryError("eden full even after a minor GC")
                else:
                    fills.append(eden.top - eden.base)
                    new_top = eden.base + take
            eden.top = new_top
            nbytes -= take
        if fills:
            plan.replay(collector, fills)

    def new_object(
        self,
        kind: ObjKind,
        size: int,
        rdd_id: Optional[int] = None,
    ) -> HeapObject:
        """Allocate a survivable object in eden (the TLAB fast path).

        Under Deca, objects whose RDD has a lifetime class land in the
        matching region arena instead (no ``alloc`` event; the arena
        emits ``region_alloc``)."""
        obj = HeapObject(kind, size, rdd_id=rdd_id)
        if self.regions is not None and self.regions.take_object(self, obj):
            return obj
        if size > self.eden.size:
            raise HeapError(
                f"object of {size} bytes cannot fit in eden; use "
                "allocate_rdd_array for large arrays"
            )
        if not self.eden.place(obj):
            self._require_collector().collect_minor()
            if not self.eden.place(obj):
                raise OutOfMemoryError("eden full even after a minor GC")
        if self.trace is not None:
            self.trace.alloc(obj)
        return obj

    def allocate_rdd_array(self, size: int, rdd_id: Optional[int]) -> HeapObject:
        """Allocate an RDD backbone array.

        If the tag-wait state is armed (``rdd_alloc`` ran) and the array
        exceeds the recognition threshold, the array goes straight into
        the old space chosen by the policy for its tag (Table 1).  An
        untagged array below the recognition threshold starts in the
        young generation like any object (Table 1's NONE row); larger
        untagged arrays are humongous allocations that go old directly.
        """
        collector = self._require_collector()
        tag = self.tag_wait.consume_for_array(size)
        obj = HeapObject(ObjKind.RDD_ARRAY, size, rdd_id=rdd_id)
        if self.regions is not None and self.regions.take_object(self, obj):
            return obj
        if tag is not None:
            obj.set_tag(tag)
        elif size < self.config.large_array_threshold and size <= self.eden.size:
            if not self.eden.place(obj):
                collector.collect_minor()
                if not self.eden.place(obj):
                    raise OutOfMemoryError("eden full even after a minor GC")
            if self.trace is not None:
                self.trace.alloc(obj)
            return obj
        for attempt in range(2):
            space = collector.policy.array_allocation_space(self, tag, size)
            if self._place_in_old(obj, space):
                if self.trace is not None:
                    self.trace.alloc(obj)
                return obj
            if attempt == 0:
                collector.collect_major()
        raise OutOfMemoryError(
            f"cannot place a {size}-byte RDD array in the old generation"
        )

    def allocate_native(self, size: int, rdd_id: Optional[int]) -> HeapObject:
        """Place a serialized-tier RDD array in the native (non-GC'd)
        region (§4.1's off-heap NVM storage).

        Native objects are never collected: they live outside the
        generational machinery until :meth:`free_native` releases them.
        """
        obj = HeapObject(ObjKind.RDD_ARRAY, int(size), rdd_id=rdd_id)
        if not self.native.place(obj):
            raise OutOfMemoryError("native (off-heap) memory exhausted")
        if self.trace is not None:
            self.trace.alloc(obj)
        return obj

    def free_native(self, obj: HeapObject) -> bool:
        """Explicitly release a native-region object.

        Every native object belongs to a serialized-tier block, and
        those blocks are unpersistable and killable: their packed
        buffers are freed here so the native region's live bytes — and
        the trace-replay oracle's reconstruction of them — track the
        block manager's registry exactly.

        Returns:
            True when the object was resident in the native region.
        """
        if not self.native.holds(obj):
            return False
        if self.trace is not None:
            self.trace.free(obj, self.native.name)
        self.native.discard(obj)
        obj.space = None
        obj.addr = None
        return True

    def _place_in_old(self, obj: HeapObject, space: Space) -> bool:
        """Place an object in an old space, falling back across old spaces
        in policy order, registering arrays with the card table."""
        candidates = [space] + [s for s in self.old_spaces if s is not space]
        align = CARD_SIZE if (self.card_padding and obj.is_array) else None
        for candidate in candidates:
            if candidate.place(obj, align_end_to=align):
                obj.padded = align is not None
                if obj.is_array:
                    self.card_table.register(obj)
                if candidate is not space:
                    self.fallback_count += 1
                    self.fallback_bytes += obj.size
                    if self.trace is not None:
                        self.trace.fallback(obj, space.name)
                return True
        return False

    # -- mutator barrier ----------------------------------------------------------

    def write_ref(self, holder: HeapObject, target: HeapObject) -> None:
        """Store a reference ``holder.field = target`` through the write
        barrier: old-to-young stores dirty the holder's cards."""
        holder.add_ref(target)
        holder.write_count += 1
        if self.in_old(holder) and self.in_young(target):
            if not self.card_table.is_registered(holder):
                self.card_table.register(holder)
            self.card_table.mark_dirty(holder)

    def write_data(self, obj: HeapObject) -> None:
        """Record one mutator data write into an object (no card
        dirtying: only reference stores go through the card-marking
        barrier)."""
        obj.write_count += 1

    # -- stats -----------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable snapshot of space occupancy (debugging aid)."""
        lines = [
            f"{s.name}: {s.used}/{s.size} bytes, {len(s.objects)} objects"
            for s in self.young_spaces + self.old_spaces
        ]
        return "\n".join(lines)
