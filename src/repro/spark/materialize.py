"""RDD materialisation: turning record lists into heap object structures.

A materialised RDD mirrors Figure 1 of the paper: a top object references
one backbone array per partition; each array references the partition's
tuple-slab data objects.  The backbone array is allocated through the
tag-wait path (``rdd_alloc`` + first-large-array recognition, §4.2.1), so
under Panthera it lands directly in the old space named by the RDD's
memory tag, while tops and slabs start young and are moved by the GC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import MUTATOR_THREADS, DeviceKind
from repro.core.tags import MemoryTag
from repro.heap.managed_heap import ManagedHeap
from repro.heap.object_model import HeapObject, ObjKind
from repro.memory.machine import Machine
from repro.spark.costmodel import (
    CPU_NS_PER_BYTE,
    SER_FACTOR,
    SLABS_PER_PARTITION,
    TOP_OBJECT_BYTES,
    array_bytes_for,
)
from repro.spark.partition import Record
from repro.spark.storage import TaggedStorageLevel


@dataclass
class MaterializedBlock:
    """One materialised RDD resident in the heap (or spilled to disk).

    Attributes:
        rdd_id: owning logical RDD.
        top: the RDD top object (the GC root handle).
        arrays: backbone array per partition.
        slabs: tuple-slab objects per partition.
        records: the data plane, per partition.
        data_bytes: total in-heap payload bytes (already shrunk for
            serialised levels).
        level: the tagged storage level, or None for transients.
        on_disk: True once the block was spilled (heap objects released).
        serialized: whether the in-heap form is a serialised buffer
            (reads pay deserialisation CPU).
        last_used: LRU clock for eviction.
        ser_batches: one tier batch per partition when the block
            lives in the serialized off-heap tier (the authoritative
            data plane for such blocks; ``records`` is empty), else
            None.
    """

    rdd_id: int
    top: HeapObject
    arrays: List[HeapObject]
    slabs: List[List[HeapObject]]
    records: List[List[Record]]
    data_bytes: float
    level: Optional[TaggedStorageLevel] = None
    on_disk: bool = False
    serialized: bool = False
    last_used: float = 0.0
    ser_batches: Optional[list] = None

    @property
    def in_serialized_tier(self) -> bool:
        """Whether this block's payload lives in the serialized tier
        (no object-heap structure, no GC tracing)."""
        return self.ser_batches is not None

    @property
    def region_resident(self) -> bool:
        """Whether this block's objects live in Deca region arenas.

        Region-resident blocks are freed by wholesale arena resets, never
        by GC or block-manager eviction, so capacity planners must not
        count them against the traced old generation."""
        objs = self.arrays if self.arrays else [self.top]
        return any(
            o.space is not None and o.space.generation == "region"
            for o in objs
        )

    def heap_objects(self) -> List[HeapObject]:
        """Every heap object belonging to this block."""
        objs = [self.top] + list(self.arrays)
        for partition_slabs in self.slabs:
            objs.extend(partition_slabs)
        return objs

    def partition_traffic(self, pidx: int) -> List[Tuple[DeviceKind, int]]:
        """Per-device byte pieces a streamed read of one partition touches
        (array plus slabs, wherever the GC has put them by now)."""
        pieces: List[Tuple[DeviceKind, int]] = []
        for obj in [self.arrays[pidx]] + self.slabs[pidx]:
            if obj.space is not None and obj.addr is not None:
                pieces.extend(obj.space.object_traffic(obj))
        return pieces

    def device_histogram(self) -> Dict[DeviceKind, int]:
        """Bytes per device over the whole block (for tests/reports)."""
        hist: Dict[DeviceKind, int] = {}
        for obj in self.heap_objects():
            if obj.space is None or obj.addr is None:
                continue
            for device, nbytes in obj.space.object_traffic(obj):
                hist[device] = hist.get(device, 0) + nbytes
        return hist


class Materializer:
    """Builds :class:`MaterializedBlock` structures in the heap."""

    def __init__(
        self,
        heap: ManagedHeap,
        machine: Machine,
        runtime=None,
    ) -> None:
        """Create a materialiser.

        Args:
            heap: the managed heap.
            machine: cost sink.
            runtime: the :class:`~repro.core.runtime_api.PantheraRuntime`
                whose ``rdd_alloc`` passes tags down, or None when running
                a non-Panthera policy (no instrumentation).
        """
        self.heap = heap
        self.machine = machine
        self.runtime = runtime

    def materialize(
        self,
        rdd,
        records_by_partition: List[List[Record]],
        tag: Optional[MemoryTag],
        serialized: bool = False,
    ) -> MaterializedBlock:
        """Materialise an RDD's records into heap objects.

        The top object is created (and rooted) first so mid-materialisation
        GCs keep the growing structure alive; ``rdd_alloc`` then arms the
        tag-wait state so the backbone arrays are recognised and
        pretenured; slabs are allocated young and wired to their array
        through the write barrier (dirtying the array's cards exactly as
        fresh old-to-young references do in the real system).

        With ``serialized`` (the _SER storage levels) the in-heap form is
        the compact byte buffer: ``SER_FACTOR`` of the deserialised size,
        paid back as deserialisation CPU on every read.
        """
        heap = self.heap
        shrink = SER_FACTOR if serialized else 1.0
        top = heap.new_object(ObjKind.RDD_TOP, TOP_OBJECT_BYTES, rdd.id)
        heap.add_root(top)
        arrays: List[HeapObject] = []
        slabs: List[List[HeapObject]] = []
        total_bytes = 0.0
        for records in records_by_partition:
            part_bytes = len(records) * rdd.bytes_per_record * shrink
            total_bytes += part_bytes
            if self.runtime is not None:
                self.runtime.rdd_alloc(top, tag)
            array_size = array_bytes_for(part_bytes)
            array = heap.allocate_rdd_array(array_size, rdd.id)
            device = array.space.device_of(array.addr)
            cpu_ns = array_size * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch([(((device, 0.0, array_size, 0, 0),), cpu_ns)])
            heap.write_ref(top, array)
            partition_slabs: List[HeapObject] = []
            slab_bytes = max(0.0, part_bytes - array_size)
            # Slabs must fit the young generation: split further when a
            # partition's payload dwarfs eden.
            max_slab = max(1, heap.eden.size // 2)
            n_slabs = max(
                1,
                SLABS_PER_PARTITION,
                -(-int(slab_bytes) // max_slab),  # ceil division
            )
            slab_size = int(slab_bytes // n_slabs)
            for i in range(n_slabs):
                size = slab_size if i < n_slabs - 1 else int(
                    slab_bytes - slab_size * (n_slabs - 1)
                )
                slab = heap.new_object(ObjKind.DATA, max(size, 0), rdd.id)
                # Slabs land in eden (DRAM) under the tracing policies;
                # under Deca the region arena may be NVM-backed, so the
                # write is charged to the slab's actual device.
                slab_device = (
                    slab.space.device_of(slab.addr)
                    if slab.space is not None and slab.addr is not None
                    else DeviceKind.DRAM
                )
                cpu_ns = slab.size * CPU_NS_PER_BYTE / MUTATOR_THREADS
                self.machine.run_batch(
                    [(((slab_device, 0.0, slab.size, 0, 0),), cpu_ns)]
                )
                heap.write_ref(array, slab)
                partition_slabs.append(slab)
            arrays.append(array)
            slabs.append(partition_slabs)
        # The block shares the scheduler's partition lists: nothing in
        # the system mutates a record list after it is built.
        return MaterializedBlock(
            rdd_id=rdd.id,
            top=top,
            arrays=arrays,
            slabs=slabs,
            records=records_by_partition,
            data_bytes=total_bytes,
        )

    def release(self, block: MaterializedBlock) -> None:
        """Unroot a block; its heap objects die at the next collection."""
        self.heap.remove_root(block.top)
