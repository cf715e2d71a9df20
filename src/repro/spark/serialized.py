"""The serialized off-heap tier's data plane: each partition as built.

A persisted RDD landing in the serialized tier (see
:mod:`repro.spark.storage`) keeps each partition as one
:class:`SerializedColumnBatch`: the partition exactly as the data plane
produced it — a record list or a ``ColumnBatch`` of any column schema —
held by reference and read back unchanged, so a serialized persist
keeps its readers on whichever plane built the partition.  Every other
storage level shares its record lists the same way; partitions are
never mutated.

The tier matters to the simulation only through its modelled costs:
the serialize-on-persist and deserialize-on-access batches charged
through ``Machine.run_batch`` are derived from the RDD's modelled byte
sizes (``bytes_per_record`` × ``SER_FACTOR``), exactly like every
other storage path, so traces and clocks stay a pure function of
(workload, config, scale).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.spark.partition import Record


class SerializedColumnBatch:
    """One partition of a serialized-tier block.

    Attributes:
        count: number of records in the partition.
    """

    __slots__ = ("count", "_partition")

    def __init__(self, partition: Sequence[Record]) -> None:
        self.count = len(partition)
        self._partition = partition

    @classmethod
    def pack(cls, partition: Sequence[Record]) -> "SerializedColumnBatch":
        """Hold one partition in the tier."""
        return cls(partition)

    def unpack(self) -> Sequence[Record]:
        """The partition that was packed: the same object."""
        return self._partition

    def __len__(self) -> int:
        return self.count


def pack_partitions(
    parts: Sequence[Sequence[Record]],
) -> List[SerializedColumnBatch]:
    """Pack every partition of a block."""
    return [SerializedColumnBatch.pack(p) for p in parts]
