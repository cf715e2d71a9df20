#!/usr/bin/env python3
"""A Cassandra-flavoured LSM store on the Panthera runtime APIs.

Section 4.3 names "database systems such as Apache Cassandra" as a third
target for Panthera's APIs.  An LSM storage engine is a perfect fit for
hybrid memory:

* the **memtable** absorbs every write — write-hot, small, DRAM;
* flushed **SSTable block caches** are read-mostly; *recent* SSTables are
  still probed constantly (reads skew young), older ones go cold fast —
  the access pattern the dynamic-monitoring API (API 2) exists for.

This example builds that engine over the simulated heap: the memtable is
pre-tenured into DRAM (API 1), each flush creates a monitored SSTable
cache (API 2), and after a few flush generations a major GC demotes the
cold old SSTables to NVM while the hot newest stays in DRAM.

Run with:  python examples/memtable_cassandra.py
"""

import random

from repro.config import MiB, PolicyName, SystemConfig
from repro.core.tags import MemoryTag
from repro.spark.context import SparkContext

HEAP = 512 * MiB
MEMTABLE_BYTES = 12 * MiB
SSTABLE_BYTES = 16 * MiB
FLUSH_EVERY = 4_000  # writes per flush
GENERATIONS = 4
READS_PER_GENERATION = 6_000


def build_stack():
    config = SystemConfig(
        heap_bytes=HEAP,
        dram_bytes=HEAP // 3,
        nvm_bytes=HEAP - HEAP // 3,
        policy=PolicyName.PANTHERA,
        large_array_threshold=MiB,
        interleave_chunk_bytes=8 * MiB,
    )
    node = SparkContext.create(config)
    return node.machine, node.heap, node.collector, node.runtime


class LsmStore:
    """Memtable + levelled SSTable caches over the Panthera runtime."""

    def __init__(self, machine, heap, collector, runtime) -> None:
        self.machine = machine
        self.heap = heap
        self.collector = collector
        self.runtime = runtime
        self.memtable = runtime.place_array(MEMTABLE_BYTES, MemoryTag.DRAM, owner_id=1)
        heap.add_root(self.memtable)
        self.memtable_data = {}
        self.sstables = []  # (owner_id, array, key range)
        self._next_owner = 100

    def put(self, key, value) -> None:
        self.memtable_data[key] = value
        self.heap.write_data(self.memtable)
        device = self.memtable.space.device_of(self.memtable.addr)
        self.machine.run_batch([(((device, 0.0, 0.0, 0, 1),), 0.0)])
        if len(self.memtable_data) >= FLUSH_EVERY:
            self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new monitored SSTable cache."""
        owner = self._next_owner
        self._next_owner += 1
        array = self.runtime.place_array(SSTABLE_BYTES, MemoryTag.NVM, owner)
        self.heap.add_root(array)
        self.runtime.track(owner)
        device = array.space.device_of(array.addr)
        self.machine.run_batch([(((device, 0.0, SSTABLE_BYTES, 0, 0),), 0.0)])
        self.sstables.append((owner, array, dict(self.memtable_data)))
        self.memtable_data.clear()

    def get(self, key):
        if key in self.memtable_data:
            return self.memtable_data[key]
        # Newest SSTable first (LSM read path).
        for owner, array, data in reversed(self.sstables):
            device = array.space.device_of(array.addr)
            self.machine.run_batch([(((device, 0.0, 0.0, 2, 0),), 0.0)])
            self.runtime.record_call(owner)
            if key in data:
                return data[key]
        return None


def main() -> None:
    rng = random.Random(11)
    machine, heap, collector, runtime = build_stack()
    store = LsmStore(machine, heap, collector, runtime)

    key_space = 40_000
    for generation in range(GENERATIONS):
        for _ in range(FLUSH_EVERY):
            store.put(rng.randrange(key_space), rng.random())
        # Reads skew heavily towards recently written keys.
        newest_base = generation * FLUSH_EVERY
        for _ in range(READS_PER_GENERATION):
            if rng.random() < 0.9 and store.sstables:
                store.get(rng.randrange(key_space))  # mostly hits newest
        heap.allocate_ephemeral(heap.eden.size // 2)  # app churn

    # Age the SSTables across one monitoring cycle, then re-assess.
    collector.collect_major()
    for owner, array, _ in store.sstables[-1:]:
        for _ in range(5):
            runtime.record_call(owner)  # the newest stays hot
    collector.collect_major()

    print(f"memtable: {store.memtable.space.name} (API 1 pre-tenured, write-hot)")
    for idx, (owner, array, _) in enumerate(store.sstables):
        age = len(store.sstables) - idx - 1
        print(
            f"sstable gen {idx} (age {age}): {array.space.name} "
            f"{'<- hot, promoted to DRAM' if array.space.name == 'old-dram' else ''}"
        )
    print(
        f"\nmajor GCs: {collector.stats.major_count}, dynamically migrated "
        f"structures: {collector.stats.migrated_object_count}"
    )
    print(f"simulated time {machine.elapsed_s:.2f}s, energy {machine.energy_j():.1f}J")


if __name__ == "__main__":
    main()
