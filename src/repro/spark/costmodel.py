"""Mutator cost model: the constants that turn record processing into
simulated nanoseconds and bytes.

One simulated record stands for a *slab* of real tuples whose combined
payload is ``bytes_per_record``; the constants below describe the real
fine-grained structure (100-byte tuples referenced by 8-byte array
slots — Figure 1's heap shape), so array sizes, hash-probe counts and
CPU time all scale with true data volume rather than simulated record
count.

These constants are the calibration surface of the reproduction: the
paper's *shapes* (who wins, by what factor) come from the device model;
these constants set the mutator/GC balance so the shapes are visible at
a Figure 5-like scale.  ``CPU_NS_PER_BYTE`` and ``ALLOC_FACTOR`` were
fitted once and are frozen (docs/COST_MODEL.md §6).
"""

from __future__ import annotations

#: Pure-CPU cost per processed byte (before the mutator-thread divisor).
CPU_NS_PER_BYTE = 8.0
#: Per-record function-call overhead.
CPU_NS_PER_RECORD = 2_000.0
#: Eden fills ``ALLOC_FACTOR`` times faster than useful output bytes:
#: JVM Spark allocates boxed tuples, iterator wrappers and buffer
#: copies far beyond the live data (the "large amounts of
#: intermediate data" that make GC frequent, §5.3).
ALLOC_FACTOR = 5.0
#: One latency-bound probe per this many bytes of hash-table build input.
HASH_GRAIN_BYTES = 4_096
#: Serialised-to-deserialised size ratio (shuffle files, spilled blocks
#: and the serialized persist levels).
SER_FACTOR = 0.4
#: Fraction of a partition's payload living in array objects.  Figure
#: 1's RDDs are array-heavy — the backbone reference array plus nested
#: char/buffer arrays — which is why the paper notes "the array is often
#: much larger than the top and tuple objects" and pretenures it.
ARRAY_SHARE = 0.5
#: Size of an RDD top object.
TOP_OBJECT_BYTES = 256
#: Data (tuple-slab) objects per partition.
SLABS_PER_PARTITION = 4
#: Parsing cost of input data per byte.
SOURCE_CPU_NS_PER_BYTE = 2.0


def array_bytes_for(data_bytes: float) -> int:
    """Backbone/buffer array size for ``data_bytes`` of partition
    payload; at least one card's worth so even empty partitions own
    an array."""
    return max(512, int(data_bytes * ARRAY_SHARE))


def hash_probes_for(build_bytes: float) -> int:
    """Latency-bound probes to build/query a hash table over
    ``build_bytes`` of input."""
    return int(build_bytes / HASH_GRAIN_BYTES)
