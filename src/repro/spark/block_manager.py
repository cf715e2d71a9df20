"""The block manager: persisted-RDD registry, memory pressure and spilling.

Persisted blocks are GC roots for as long as they stay in memory.  Under
memory pressure the manager evicts least-recently-used blocks: levels
with a disk component are serialised out (and later served from disk);
MEMORY_ONLY blocks are dropped and recomputed through lineage on next
access — both exactly Spark's behaviour, and both essential for the
32 GB-heap point of Figure 2(c).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.config import MUTATOR_THREADS, DeviceKind
from repro.gc.policies import PlacementPolicy
from repro.heap.managed_heap import ManagedHeap
from repro.memory.machine import Machine
from repro.spark.costmodel import CPU_NS_PER_BYTE, SER_FACTOR
from repro.spark.materialize import MaterializedBlock
from repro.spark.storage import TaggedStorageLevel


class BlockManager:
    """Registry of persisted blocks with LRU spill/drop under pressure."""

    #: Fraction of old-generation capacity kept free for promoted
    #: intermediates (Spark's "execution memory" share, coarsely).
    HEADROOM_FRACTION = 0.2

    def __init__(
        self,
        heap: ManagedHeap,
        machine: Machine,
        policy: PlacementPolicy,
    ) -> None:
        self.heap = heap
        self.machine = machine
        self.policy = policy
        self._blocks: Dict[int, MaterializedBlock] = {}
        self._lru = itertools.count(1)
        #: rdd_id -> records retained on "disk" after a spill
        self.spilled_count = 0
        self.dropped_count = 0
        #: blocks destroyed by injected executor kills (not pressure)
        self.killed_count = 0

    # -- lookup ---------------------------------------------------------------

    def get(self, rdd_id: int) -> Optional[MaterializedBlock]:
        """The block for an RDD, bumping its LRU clock."""
        block = self._blocks.get(rdd_id)
        if block is not None:
            block.last_used = next(self._lru)
        return block

    def contains(self, rdd_id: int) -> bool:
        """Whether a block (in memory or on disk) exists for the RDD."""
        return rdd_id in self._blocks

    def blocks(self) -> List[MaterializedBlock]:
        """All registered blocks."""
        return list(self._blocks.values())

    def in_memory_bytes(self) -> float:
        """Data bytes of heap-resident blocks.

        Serialized-tier and region-resident blocks are excluded: their
        payload lives in the native region / Deca arenas, so it never
        competes with the old generation the capacity machinery guards.
        """
        return sum(
            b.data_bytes
            for b in self._blocks.values()
            if not b.on_disk
            and not b.in_serialized_tier
            and not b.region_resident
        )

    def serialized_tier_bytes(self) -> float:
        """Packed bytes resident in the serialized off-heap tier."""
        return sum(
            b.data_bytes for b in self._blocks.values() if b.in_serialized_tier
        )

    # -- registration -----------------------------------------------------------

    def put(self, block: MaterializedBlock, level: TaggedStorageLevel) -> None:
        """Register a freshly materialised persisted block (already rooted
        by the materialiser)."""
        block.level = level
        block.last_used = next(self._lru)
        self._blocks[block.rdd_id] = block

    def unpersist(self, rdd_id: int) -> None:
        """Release a block: unroot its top and forget it."""
        block = self._blocks.pop(rdd_id, None)
        if block is not None and not block.on_disk:
            self._release_heap_objects(block)
        if block is not None and self.heap.trace is not None:
            self.heap.trace.block_event("unpersist", rdd_id, block.data_bytes)

    def _release_heap_objects(self, block: MaterializedBlock) -> None:
        """Unroot a block and stop card-scanning its (now garbage) arrays.

        Serialized-tier blocks additionally free their native batches
        explicitly — nothing else ever reclaims native memory (§4.1).
        The policy then frees whatever it keeps for the block (Deca's
        wholesale region free)."""
        self.heap.remove_root(block.top)
        for array in block.arrays:
            if self.heap.card_table.is_registered(array):
                self.heap.card_table.unregister(array)
        if block.in_serialized_tier:
            for array in block.arrays:
                self.heap.free_native(array)
        self.policy.release_block(self.heap, block)

    # -- memory pressure ------------------------------------------------------------

    def ensure_capacity(
        self, nbytes: float, collector, extra_live: float = 0.0
    ) -> None:
        """Make room for ``nbytes`` of new data in the old generation.

        Evicts LRU blocks until the estimated post-GC free space covers
        the request plus headroom, then runs a full GC to actually
        reclaim the evicted structures.  The headroom always reserves at
        least a nursery's worth of space so a scavenge can never fail to
        tenure its survivors.

        Args:
            nbytes: incoming data size.
            collector: used to run the reclaiming full GC.
            extra_live: live old-generation bytes the block registry
                cannot see (active transient ShuffledRDD blocks).
        """
        capacity = self.heap.old_capacity_bytes() - self.heap.pinned_old_bytes
        headroom = max(
            capacity * self.HEADROOM_FRACTION,
            float(self.heap.config.nursery_bytes),
        )
        evicted_any = False
        while self._estimated_free(capacity) - extra_live < nbytes + headroom:
            victim = self._pick_victim()
            if victim is None:
                break
            self._evict(victim)
            evicted_any = True
        needs_room = (
            self.heap.old_used_bytes() - self.heap.pinned_old_bytes
            + nbytes + headroom
            > capacity
        )
        if evicted_any or needs_room:
            collector.collect_major()

    def _estimated_free(self, capacity: float) -> float:
        return capacity - self.in_memory_bytes()

    def _pick_victim(self) -> Optional[MaterializedBlock]:
        # Serialized-tier and region-resident blocks occupy native
        # memory / Deca arenas, not the old generation — evicting one
        # frees nothing the caller needs.
        candidates = [
            b
            for b in self._blocks.values()
            if not b.on_disk
            and not b.in_serialized_tier
            and not b.region_resident
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda b: b.last_used)

    def evict_region_victim(self) -> bool:
        """Evict the LRU region-resident block (Deca's region-grained
        pressure path: the victim's whole region frees at once).

        Returns:
            True when a victim was evicted.
        """
        candidates = [
            b
            for b in self._blocks.values()
            if not b.on_disk and b.region_resident
        ]
        if not candidates:
            return False
        self._evict(min(candidates, key=lambda b: b.last_used))
        return True

    def _evict(self, block: MaterializedBlock) -> None:
        """Spill (disk-capable levels) or drop (MEMORY_ONLY) one block."""
        level = block.level.level if block.level is not None else None
        if level is not None and level.use_disk:
            self._spill(block)
        else:
            self._drop(block)

    def _spill(self, block: MaterializedBlock) -> None:
        """Serialise a block to disk and release its heap objects."""
        ser_bytes = block.data_bytes * SER_FACTOR
        # Read the block from wherever it lives, piece by piece, then
        # write the serialised form to disk.
        batches = [
            (((device, piece, 0.0, 0, 0),), 0.0)
            for pidx in range(len(block.arrays))
            for device, piece in block.partition_traffic(pidx)
        ]
        cpu_ns = block.data_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
        batches.append((((DeviceKind.DISK, 0.0, ser_bytes, 0, 0),), cpu_ns))
        self.machine.run_batch(batches)
        self._release_heap_objects(block)
        block.on_disk = True
        self.spilled_count += 1
        if self.heap.trace is not None:
            self.heap.trace.block_event("spill", block.rdd_id, block.data_bytes)

    def kill(self, rdd_id: int) -> Optional[MaterializedBlock]:
        """Destroy an in-memory block as if its executor died (fault
        injection): release its heap objects and forget it, so the next
        access recomputes it through lineage.  Unlike :meth:`_drop`
        this is not a pressure event — ``dropped_count`` stays put and
        ``killed_count`` is bumped instead.

        Returns:
            The destroyed block, or None if the RDD has no in-memory
            block to kill.
        """
        block = self._blocks.get(rdd_id)
        if block is None or block.on_disk:
            return None
        self._release_heap_objects(block)
        del self._blocks[rdd_id]
        self.killed_count += 1
        if self.heap.trace is not None:
            self.heap.trace.block_event("drop", block.rdd_id, block.data_bytes)
        return block

    def _drop(self, block: MaterializedBlock) -> None:
        """Drop a MEMORY_ONLY block entirely; lineage will recompute it."""
        self._release_heap_objects(block)
        del self._blocks[block.rdd_id]
        self.dropped_count += 1
        if self.heap.trace is not None:
            self.heap.trace.block_event("drop", block.rdd_id, block.data_bytes)
