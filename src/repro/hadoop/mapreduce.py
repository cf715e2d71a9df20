"""A miniature MapReduce engine over the simulated heap.

The engine models Hadoop's memory behaviour the way §4.3 describes it:
map workers stream their input split through the young generation (the
records die there), optional *side tables* are long-lived in-memory
structures placed via Panthera's API 1 or monitored via API 2, and the
reduce phase hash-aggregates the shuffled output.

Data really flows: map/combine/reduce functions compute actual results,
so jobs are testable end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import MUTATOR_THREADS, DeviceKind
from repro.core.runtime_api import PantheraRuntime
from repro.core.tags import MemoryTag
from repro.errors import ReproError
from repro.heap.managed_heap import ManagedHeap
from repro.heap.object_model import HeapObject
from repro.memory.machine import Machine
from repro.spark.costmodel import (
    ALLOC_FACTOR,
    CPU_NS_PER_BYTE,
    CPU_NS_PER_RECORD,
    SER_FACTOR,
    hash_probes_for,
)
from repro.spark.partition import HashPartitioner

Record = Tuple[Any, Any]


@dataclass
class SideTable:
    """A long-lived in-memory table a job loads before its map phase.

    Attributes:
        name: identifier (also the monitor key).
        records: the data plane (key -> value built at load time).
        nbytes: byte weight of the table.
        tag: placement tag for API 1 pre-tenuring; None defers placement
            to API 2 dynamic monitoring.
        monitored: register with API 2 (track + per-probe call counts).
    """

    name: str
    records: List[Record]
    nbytes: int
    tag: Optional[MemoryTag] = None
    monitored: bool = False
    #: set at load time
    array: Optional[HeapObject] = None
    index: Dict[Any, List[Any]] = field(default_factory=dict)

    def lookup(self, key: Any) -> List[Any]:
        """Probe the table."""
        return self.index.get(key, [])


class MapReduceJob:
    """One MapReduce job with optional Panthera-managed side tables."""

    _owner_ids = iter(range(10_000, 10_000_000))

    def __init__(
        self,
        heap: ManagedHeap,
        machine: Machine,
        runtime: PantheraRuntime,
        map_fn: Callable[[Record], List[Record]],
        reduce_fn: Callable[[Any, List[Any]], Any],
        num_reducers: int = 4,
        side_tables: Optional[List[SideTable]] = None,
    ) -> None:
        self.heap = heap
        self.machine = machine
        self.runtime = runtime
        self.map_fn = map_fn
        self.reduce_fn = reduce_fn
        self.num_reducers = num_reducers
        self.side_tables = side_tables or []
        self._table_owner: Dict[str, int] = {}

    # -- side tables (§4.3's two APIs) -------------------------------------

    def load_side_tables(self) -> None:
        """Materialise every side table into the heap.

        Tables with a tag go through API 1 (``place_array``); monitored
        tables additionally register with API 2 so major GCs can
        re-assess them.
        """
        for table in self.side_tables:
            owner = next(self._owner_ids)
            self._table_owner[table.name] = owner
            table.array = self.runtime.place_array(
                table.nbytes, table.tag, owner_id=owner
            )
            self.heap.add_root(table.array)
            if table.monitored:
                self.runtime.track(owner)
            device = table.array.space.device_of(table.array.addr)
            cpu_ns = table.nbytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch([(((device, 0.0, table.nbytes, 0, 0),), cpu_ns)])
            table.index.clear()
            for key, value in table.records:
                table.index.setdefault(key, []).append(value)

    def release_side_tables(self) -> None:
        """Drop the side tables (end of job)."""
        for table in self.side_tables:
            if table.array is not None:
                self.heap.remove_root(table.array)
                table.array = None

    def _charge_probe(self, table: SideTable, nbytes: float) -> None:
        """One map task's probes into a side table."""
        if table.array is None:
            raise ReproError(f"side table {table.name!r} not loaded")
        probes = max(1, hash_probes_for(nbytes))
        device = table.array.space.device_of(table.array.addr)
        self.machine.run_batch([(((device, 0.0, 0.0, probes, 0),), 0.0)])
        owner = self._table_owner[table.name]
        if table.monitored:
            self.runtime.record_call(owner)

    # -- execution --------------------------------------------------------------

    def run(
        self,
        splits: List[List[Record]],
        bytes_per_record: float,
    ) -> Dict[Any, Any]:
        """Execute the job and return the reduced output.

        Args:
            splits: input splits (one per map task).
            bytes_per_record: byte weight of one input record.
        """
        if not splits:
            raise ReproError("a job needs at least one input split")
        self.load_side_tables()
        try:
            buckets: List[List[Record]] = [[] for _ in range(self.num_reducers)]
            # Spark's stable hash, not the salted built-in: string keys
            # must bucket the same under every PYTHONHASHSEED.
            partition_of = HashPartitioner(self.num_reducers).partition_of
            for split in splits:
                self._run_map_task(
                    split, bytes_per_record, buckets, partition_of
                )
            output: Dict[Any, Any] = {}
            for bucket in buckets:
                self._run_reduce_task(bucket, bytes_per_record, output)
            return output
        finally:
            self.release_side_tables()

    def _run_map_task(
        self,
        split: List[Record],
        bytes_per_record: float,
        buckets: List[List[Record]],
        partition_of: Callable[[Any], int],
    ) -> None:
        in_bytes = len(split) * bytes_per_record
        # Input read from HDFS (disk) into the young generation.
        cpu_ns = in_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
        self.machine.run_batch([(((DeviceKind.DISK, in_bytes, 0.0, 0, 0),), cpu_ns)])
        self._ephemeral(in_bytes)
        out: List[Record] = []
        for record in split:
            out.extend(self.map_fn(record))
        out_bytes = len(out) * bytes_per_record
        self._ephemeral(out_bytes)
        cpu_ns = (
            in_bytes * CPU_NS_PER_BYTE + len(split) * CPU_NS_PER_RECORD
        ) / MUTATOR_THREADS
        self.machine.run_batch([(((DeviceKind.DRAM, 0.0, out_bytes, 0, 0),), cpu_ns)])
        for table in self.side_tables:
            self._charge_probe(table, in_bytes)
        for key, value in out:
            buckets[partition_of(key)].append((key, value))
        # Shuffle spill to local disk.
        self.machine.run_batch(
            [(((DeviceKind.DISK, 0.0, out_bytes * SER_FACTOR, 0, 0),), 0.0)]
        )

    def _run_reduce_task(
        self,
        bucket: List[Record],
        bytes_per_record: float,
        output: Dict[Any, Any],
    ) -> None:
        in_bytes = len(bucket) * bytes_per_record
        self.machine.run_batch(
            [(((DeviceKind.DISK, in_bytes * SER_FACTOR, 0.0, 0, 0),), 0.0)]
        )
        self._ephemeral(in_bytes)
        grouped: Dict[Any, List[Any]] = {}
        for key, value in bucket:
            grouped.setdefault(key, []).append(value)
        probes = max(1, hash_probes_for(in_bytes))
        cpu_ns = (
            in_bytes * CPU_NS_PER_BYTE + len(bucket) * CPU_NS_PER_RECORD
        ) / MUTATOR_THREADS
        self.machine.run_batch([(((DeviceKind.DRAM, 0.0, 0.0, probes, 0),), cpu_ns)])
        for key, values in grouped.items():
            output[key] = self.reduce_fn(key, values)

    def _ephemeral(self, nbytes: float) -> None:
        self.heap.allocate_streaming(int(nbytes * ALLOC_FACTOR))
