"""Lifetime-based region allocation: Deca's rival policy (arXiv 1602.01959).

Deca observes that almost all bytes a data-parallel job allocates fall
into three lifetime classes a static analysis can recover from the
program structure:

* *UDF-ephemeral* — streaming tuples and aggregation scratch created
  inside one user function invocation; dead before the operator yields.
* *Stage-local* — shuffle buffers and intermediate blocks that die when
  their stage's last task finishes.
* *Job-long* — explicitly persisted RDDs, live until the action (or the
  whole job) completes.

Instead of letting the generational collector discover those deaths by
tracing, each class gets a bump-pointer *arena* and the whole arena is
freed wholesale when its lifetime ends — a pointer reset whose cost is
charged through the cost plane as pure CPU work (no tracing, no
copying, no card scanning).  On hybrid memory the arenas also encode
placement: the ephemeral arena reuses the nursery's DRAM budget (eden
stays near-empty under Deca), the stage arena prefers DRAM, and the
job arena — the bulk of the data, written once and scanned
sequentially — is NVM-eligible, mirroring Panthera's observation that
long-lived RDDs tolerate NVM.

Region arenas live outside the traced heap: their objects never emit
``alloc``/``free`` trace events (the replay oracle's per-space ledger
covers only the GC-managed spaces) and are never card-registered.
The informational ``region_alloc``/``region_reset`` trace kinds make
them observable instead.
"""

from __future__ import annotations

import bisect
import enum
import math
from typing import Dict, List, Optional, Tuple

from repro.config import DeviceKind
from repro.heap.object_model import HeapObject
from repro.heap.spaces import Space

#: Per-byte CPU cost of a wholesale arena reset, across the mutator
#: threads.  A reset is pointer arithmetic plus page-table work — far
#: below ``GC_NS_PER_BYTE`` (0.04), which is the per-byte cost of the
#: tracing work a reset replaces.
RESET_NS_PER_BYTE = 0.002

#: Fraction of the arena budget given to the stage arena; the job arena
#: receives the remainder (persisted RDDs dominate a job's footprint).
STAGE_ARENA_FRACTION = 1.0 / 3.0


class LifetimeClass(enum.Enum):
    """Deca's three allocation lifetime classes."""

    EPHEMERAL = "udf-ephemeral"
    STAGE = "stage-local"
    JOB = "job-long"


class _ExtentAllocator:
    """First-fit free-extent allocator for the job arena.

    The job arena is not one bump pointer: each RDD's materialisation
    is its own *region* (Deca's data container), freed wholesale when
    the block is unpersisted, dropped or the job ends.  A block's
    objects are allocated back-to-back, so its freed extents coalesce
    back into large holes — no copying, no compaction.
    """

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.end = base + size
        self._free: List[Tuple[int, int]] = (
            [(base, self.end)] if size > 0 else []
        )

    def take(self, nbytes: int) -> Optional[int]:
        """Reserve ``nbytes`` from the first extent that fits."""
        for i, (start, end) in enumerate(self._free):
            if end - start >= nbytes:
                if end - start == nbytes:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + nbytes, end)
                return start
        return None

    def give(self, start: int, end: int) -> None:
        """Return an extent, coalescing with its neighbours."""
        if end <= start:
            return
        bisect.insort(self._free, (start, end))
        merged: List[Tuple[int, int]] = []
        for s, e in self._free:
            if merged and s <= merged[-1][1]:
                last_s, last_e = merged[-1]
                merged[-1] = (last_s, max(last_e, e))
            else:
                merged.append((s, e))
        self._free = merged

    @property
    def free_bytes(self) -> int:
        """Total free bytes across all extents."""
        return sum(e - s for s, e in self._free)

    @property
    def largest_extent(self) -> int:
        """Size of the largest single free extent."""
        return max((e - s for s, e in self._free), default=0)


class RegionManager:
    """Bump-pointer lifetime arenas attached to a :class:`ManagedHeap`.

    The owning heap (``heap.regions``) passes itself to every method
    that charges its machine or publishes to its trace bus; the manager
    keeps no reference back to it.

    Attributes:
        ephemeral: DRAM arena for streaming/UDF scratch bytes (recycled
            in place when it fills, reset at stage boundaries).
        stage: arena for stage-local blocks (reset when the scheduler's
            scope stack empties — a stage/action boundary).
        job: NVM-eligible arena for job-long persisted RDDs (reset only
            at job end).
        reset_count / reset_bytes: wholesale resets performed and the
            bytes they released (the work that replaces GC pauses).
    """

    def __init__(self, heap) -> None:
        config = heap.config
        base = heap.native.end
        arena_budget = max(
            0, config.old_gen_bytes - heap.old_capacity_bytes()
        )
        stage_size = int(arena_budget * STAGE_ARENA_FRACTION)
        job_size = arena_budget - stage_size
        stage_device = (
            DeviceKind.DRAM if config.old_dram_bytes > 0 else DeviceKind.NVM
        )
        job_device = (
            DeviceKind.NVM if config.old_nvm_bytes > 0 else DeviceKind.DRAM
        )
        self.ephemeral = Space(
            "region-ephemeral",
            base,
            heap.eden.size,
            "region",
            device=DeviceKind.DRAM,
        )
        self.stage = Space(
            "region-stage",
            self.ephemeral.end,
            stage_size,
            "region",
            device=stage_device,
        )
        self.job = Space(
            "region-job", self.stage.end, job_size, "region", device=job_device
        )
        #: per-RDD region bookkeeping inside the job arena: freed
        #: extents are recycled without copying (Deca's data containers).
        self._job_alloc = _ExtentAllocator(self.job.base, self.job.size)
        #: rdd_id -> lifetime class, fed by the scheduler as the static
        #: analysis' classification reaches each materialisation.
        self._classes: Dict[int, LifetimeClass] = {}
        self.reset_count = 0
        self.reset_bytes = 0.0
        #: whole-region frees performed (unpersist/evict) and their bytes.
        self.region_free_count = 0
        self.region_free_bytes = 0.0

    @classmethod
    def attach(cls, heap) -> "RegionManager":
        """Build a manager for ``heap`` and point ``heap.regions`` at it."""
        manager = cls(heap)
        heap.regions = manager
        return manager

    # -- classification -------------------------------------------------

    @property
    def spaces(self) -> List[Space]:
        """The three arenas (for verification and reporting)."""
        return [self.ephemeral, self.stage, self.job]

    def note_rdd(self, rdd_id: int, lifetime: LifetimeClass) -> None:
        """Record the lifetime class of an RDD about to materialise."""
        self._classes[rdd_id] = lifetime

    def lifetime_of(self, rdd_id: Optional[int]) -> Optional[LifetimeClass]:
        """The recorded class of an RDD, or None when unclassified."""
        if rdd_id is None:
            return None
        return self._classes.get(rdd_id)

    def forget(self, rdd_ids) -> None:
        """Drop the classes of released RDDs (their job ended)."""
        for rdd_id in rdd_ids:
            self._classes.pop(rdd_id, None)

    # -- allocation -----------------------------------------------------

    def take_object(self, heap, obj: HeapObject) -> bool:
        """Place a classified object into its lifetime arena.

        Job-long objects go through the per-RDD extent allocator;
        stage-local allocations bump the stage arena and fall over into
        a job extent when it is full (freed later than needed, never
        earlier — the safe direction).  When neither fits, the caller
        falls back to the traced heap.  No card registration, no
        ``alloc`` event: the arenas are invisible to the collector and
        the replay oracle's ledger.

        Returns:
            True when the object landed in an arena.
        """
        lifetime = self.lifetime_of(obj.rdd_id)
        if lifetime is None:
            return False
        if lifetime is LifetimeClass.JOB:
            if not self._place_in_job(obj):
                return False
        elif not self.stage.place(obj):
            if self._place_in_job(obj):
                heap.fallback_count += 1
                heap.fallback_bytes += obj.size
                if heap.trace is not None:
                    heap.trace.fallback(obj, self.stage.name)
            else:
                return False
        if heap.trace is not None:
            heap.trace.region_alloc(obj, lifetime.value)
        return True

    def _place_in_job(self, obj: HeapObject) -> bool:
        """Reserve a job-arena extent for ``obj`` and make it resident."""
        addr = self._job_alloc.take(int(math.ceil(obj.size)))
        if addr is None:
            return False
        obj.addr = addr
        obj.space = self.job.extent
        self.job.adopt(obj)
        # ``top`` is kept as a high-water mark so the bump-pointer
        # invariant (objects end at or below top) keeps holding.
        if addr + obj.size > self.job.top:
            self.job.top = addr + int(math.ceil(obj.size))
        return True

    def take_ephemeral(self, heap, nbytes: int) -> bool:
        """Bump UDF-ephemeral bytes into the ephemeral arena.

        The arena recycles in place when it fills (a charged wholesale
        reset — the Deca equivalent of the minor GC the legacy path
        would have triggered).  Requests larger than the arena are
        refused so the caller can chunk them through the legacy path.

        Returns:
            True when the bytes were taken by the arena.
        """
        arena = self.ephemeral
        if nbytes > arena.size:
            return False
        if arena.top + nbytes > arena.end:
            self._reset(heap, arena, "ephemeral-recycle")
        arena.top += nbytes
        return True

    # -- wholesale frees ------------------------------------------------

    def free_block(self, heap, block) -> float:
        """Free one block's region wholesale (unpersist/drop/evict).

        Job-arena objects return their extents to the free list (the
        whole-region free: pointer bookkeeping, no copying, no tracing);
        stage-arena objects just leave the residency set — their bytes
        come back at the next stage reset.

        Returns:
            The job-arena bytes released.
        """
        freed = 0.0
        for obj in block.heap_objects():
            if self.job.holds(obj):
                self.job.discard(obj)
                self._job_alloc.give(
                    obj.addr, obj.addr + int(math.ceil(obj.size))
                )
                obj.space = None
                obj.addr = None
                freed += obj.size
            elif self.stage.holds(obj):
                self.stage.discard(obj)
                obj.space = None
                obj.addr = None
        if freed:
            self.region_free_count += 1
            self.region_free_bytes += freed
            heap.machine.run_batch([((), freed * RESET_NS_PER_BYTE)])
            if heap.trace is not None:
                heap.trace.region_reset(
                    self.job.name, float(freed), f"region-free rdd={block.rdd_id}"
                )
        return freed

    def ensure_job_capacity(self, nbytes: float, block_manager) -> None:
        """Make room for ``nbytes`` in the job arena by freeing the
        least-recently-used region-resident blocks (region-grained
        eviction: each victim's whole region comes back at once; the
        block manager spills or drops it exactly as under pressure in
        the traced heap)."""
        needed = int(math.ceil(nbytes))
        while (
            self._job_alloc.free_bytes < needed
            or self._job_alloc.largest_extent < min(needed, self.job.size)
        ):
            if not block_manager.evict_region_victim():
                break

    def stage_boundary(self, heap) -> None:
        """A stage/action finished: free the stage and ephemeral arenas."""
        self._reset(heap, self.stage, "stage-end")
        self._reset(heap, self.ephemeral, "stage-end")

    def job_end(self, heap) -> None:
        """The job finished: free every arena."""
        self._reset(heap, self.stage, "job-end")
        self._reset(heap, self.ephemeral, "job-end")
        self._reset(heap, self.job, "job-end", freed=self.job.live_bytes())
        self._job_alloc = _ExtentAllocator(self.job.base, self.job.size)

    def _reset(
        self, heap, arena: Space, reason: str, freed: Optional[int] = None
    ) -> int:
        """Free one arena wholesale, charging the reset's CPU cost.

        Args:
            freed: bytes the reset releases; defaults to the arena's
                bump-pointer usage (the job arena passes its live bytes
                instead — extents freed earlier are not re-counted).

        Returns:
            The bytes released.
        """
        if freed is None:
            freed = arena.used
        if freed == 0:
            arena.reset()
            return 0
        heap.machine.run_batch([((), freed * RESET_NS_PER_BYTE)])
        if heap.trace is not None:
            heap.trace.region_reset(arena.name, float(freed), reason)
        arena.reset()
        self.reset_count += 1
        self.reset_bytes += freed
        return freed
