#!/usr/bin/env python3
"""WordCount with a DRAM-resident dictionary on the Hadoop substrate.

A second §4.3 scenario: a Hadoop-style WordCount whose map tasks filter
through a stop-word dictionary held as a shared in-memory side table.
The dictionary is exactly the paper's "long-lived and frequently
accessed" structure — pre-tenured into DRAM via API 1 — while each map
task's split streams through the young generation and dies there.

Run with:  python examples/wordcount_mapreduce.py
"""

import random

from repro.config import MiB, PolicyName, SystemConfig
from repro.core.tags import MemoryTag
from repro.gc.gclog import render_log
from repro.hadoop.mapreduce import MapReduceJob, SideTable
from repro.spark.context import SparkContext

HEAP = 512 * MiB
WORDS = (
    "hybrid memory panthera spark heap nvm dram garbage collector energy "
    "latency bandwidth tag analysis stage shuffle the a of and to in"
).split()
STOP_WORDS = {"the", "a", "of", "and", "to", "in"}


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


def make_splits(n_splits: int, lines_per_split: int, seed: int = 3):
    rng = random.Random(seed)
    splits = []
    for split_idx in range(n_splits):
        split = []
        for line_idx in range(lines_per_split):
            line = " ".join(rng.choice(WORDS) for _ in range(12))
            split.append((split_idx * lines_per_split + line_idx, line))
        splits.append(split)
    return splits


def main() -> None:
    machine, heap, collector, runtime = build_stack()
    stop_table = SideTable(
        name="stop-words",
        records=[(word, True) for word in STOP_WORDS],
        nbytes=8 * MiB,
        tag=MemoryTag.DRAM,  # shared, probed per word: hot -> DRAM (API 1)
    )

    def tokenize(record):
        _, line = record
        return [
            (word, 1)
            for word in line.split()
            if not stop_table.lookup(word)
        ]

    job = MapReduceJob(
        heap,
        machine,
        runtime,
        map_fn=tokenize,
        reduce_fn=lambda word, counts: sum(counts),
        num_reducers=4,
        side_tables=[stop_table],
    )
    splits = make_splits(n_splits=16, lines_per_split=40)
    counts = job.run(splits, bytes_per_record=2 * MiB)

    top = sorted(counts.items(), key=lambda kv: kv[1], reverse=True)[:8]
    print("top words (stop words filtered in the map phase):")
    for word, count in top:
        print(f"  {word:12s} {count}")
    assert not STOP_WORDS & set(counts)

    print("\nheap behaviour:")
    print(f"  simulated time: {machine.elapsed_s:.2f} s, "
          f"memory energy: {machine.energy_j():.1f} J")
    for line in render_log(collector.stats, machine.elapsed_s, tail=3):
        print("  " + line)


if __name__ == "__main__":
    main()
