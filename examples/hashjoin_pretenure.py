#!/usr/bin/env python3
"""The §4.3 applicability story: Panthera's two public APIs outside Spark.

The paper argues the runtime APIs generalise to any Big Data system whose
backbone is a key-value array, and walks through Hadoop HashJoin: the
build-side table is loaded once, shared by all map workers and probed
constantly — it belongs in DRAM; the probe-side partitions stream through
the young generation and die there.

This example implements that HashJoin directly against the heap/GC layer
of a node wired by ``SparkContext.create`` (no RDDs), using:

  * API 1 (``place_array``): pre-tenure the build table by tag, and
  * API 2 (``track`` / ``record_call``): dynamically monitor a second,
    hard-to-predict table and let the major GC migrate it.

Run with:  python examples/hashjoin_pretenure.py
"""

import random

from repro.config import MiB, PolicyName, SystemConfig
from repro.core.tags import MemoryTag
from repro.spark.context import SparkContext

HEAP = 256 * MiB
BUILD_TABLE_BYTES = 20 * MiB
MONITORED_TABLE_BYTES = 12 * MiB
PROBE_PARTITIONS = 12
PROBE_PARTITION_BYTES = 16 * MiB


def build_stack():
    config = SystemConfig(
        heap_bytes=HEAP,
        dram_bytes=HEAP // 3,
        nvm_bytes=HEAP - HEAP // 3,
        policy=PolicyName.PANTHERA,
        large_array_threshold=MiB,
        interleave_chunk_bytes=4 * MiB,
    )
    node = SparkContext.create(config)
    return config, node.machine, node.heap, node.collector, node.runtime


def main() -> None:
    rng = random.Random(7)
    config, machine, heap, collector, runtime = build_stack()

    # --- API 1: pre-tenure the shared build table into DRAM ------------
    build_table = runtime.place_array(
        BUILD_TABLE_BYTES, MemoryTag.DRAM, owner_id=1
    )
    heap.add_root(build_table)
    print(
        f"build table ({BUILD_TABLE_BYTES // MiB} MiB): pre-tenured into "
        f"{build_table.space.name}"
    )

    # --- API 2: monitor a second table whose access pattern is unknown -
    mystery_table = runtime.place_array(
        MONITORED_TABLE_BYTES, MemoryTag.NVM, owner_id=2
    )
    heap.add_root(mystery_table)
    runtime.track(2)
    print(
        f"mystery table ({MONITORED_TABLE_BYTES // MiB} MiB): starts in "
        f"{mystery_table.space.name}, monitored via API 2"
    )

    # --- map workers stream probe partitions through the young gen -----
    for partition in range(PROBE_PARTITIONS):
        # Probe records are short-lived young objects.
        heap.allocate_ephemeral(PROBE_PARTITION_BYTES)
        # Probing reads the build table (random accesses) — charge it.
        probes = PROBE_PARTITION_BYTES // 4096
        device = build_table.space.device_of(build_table.addr)
        machine.run_batch([(((device, 0.0, 0.0, probes, 0),), 0.0)])
        runtime.record_call(1)
        # The mystery table turns out to be probed constantly too.
        runtime.record_call(2)
        if rng.random() < 0.5:
            runtime.record_call(2)

    print(f"\nafter {PROBE_PARTITIONS} probe partitions:")
    print(f"  minor GCs: {collector.stats.minor_count}")
    print(f"  mystery table calls this cycle: "
          f"{collector.monitor.call_count(2)}")

    # --- a full GC re-assesses the monitored structure ------------------
    # (it has now survived a monitoring cycle and is clearly hot)
    mystery_table.age = 1
    collector.collect_major()
    print("\nafter the major GC:")
    print(f"  build table:   {build_table.space.name} (stays hot in DRAM)")
    print(f"  mystery table: {mystery_table.space.name} "
          "(migrated NVM -> DRAM by the reassessment)")
    print(f"  RDD-level migrations recorded: "
          f"{collector.stats.migrated_rdd_count}")

    print(f"\nsimulated time: {machine.elapsed_s:.3f} s, "
          f"memory energy: {machine.energy_j():.2f} J")


if __name__ == "__main__":
    main()
