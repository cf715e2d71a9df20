"""Shuffle file management.

Each stage ends at a shuffle that writes partitioned, serialised records
to disk files; the next stage begins by reading them (§2).  Shuffle
outputs are retained until the job (the application) ends — this is
Spark's stage-skipping memoisation, and it is what keeps lineage-based
recomputation of an iterative job linear instead of exponential.  A job
that ends releases every output (:meth:`ShuffleManager.release`); a
persistent cluster executor's next job writes shuffles of its own.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Set

from repro.errors import SparkError
from repro.spark.partition import Record


class ShuffleManager:
    """In-memory registry standing in for shuffle files on disk."""

    def __init__(self) -> None:
        #: shuffle id -> per-reduce-partition record lists
        self._outputs: Dict[int, List[List[Record]]] = {}
        #: shuffle id -> serialised bytes per reduce partition
        self._sizes: Dict[int, List[float]] = {}
        #: shuffle id -> reduce partitions lost to an injected executor
        #: kill (their records are gone until the map stage re-runs)
        self._lost: Dict[int, Set[int]] = {}
        #: shuffle id -> dense first-write ordinal.  Raw shuffle ids come
        #: from a process-global counter, so they depend on how many
        #: experiments the process ran before; ordinals are a pure
        #: function of the run (the basis of trace byte-identity).  A
        #: release keeps the counter going: the shuffle service stripes
        #: partition owners by ordinal.
        self._ordinals: Dict[int, int] = {}
        self._next_ordinal = itertools.count()

    def has(self, shuffle_id: int) -> bool:
        """Whether this shuffle's map stage already ran."""
        return shuffle_id in self._outputs

    def write(
        self,
        shuffle_id: int,
        buckets: List[List[Record]],
        serialized_bytes: List[float],
        overwrite: bool = False,
    ) -> None:
        """Store one shuffle's complete map output.

        Args:
            overwrite: allow replacing an existing output — the
                fault-recovery path, where a forced map-stage re-run
                restores reduce partitions an executor kill destroyed.
                A rewrite clears the shuffle's lost marks.
        """
        if shuffle_id in self._outputs and not overwrite:
            raise SparkError(f"shuffle {shuffle_id} written twice")
        if len(buckets) != len(serialized_bytes):
            raise SparkError("bucket/size length mismatch")
        self._outputs[shuffle_id] = buckets
        self._sizes[shuffle_id] = serialized_bytes
        self._lost.pop(shuffle_id, None)
        if shuffle_id not in self._ordinals:
            self._ordinals[shuffle_id] = next(self._next_ordinal)

    def ordinal(self, shuffle_id: int) -> int:
        """Dense, run-local index of a written shuffle (0-based, in
        first-write order, counted across releases); safe to embed in
        traces and reports."""
        return self._ordinals[shuffle_id]

    def release(self) -> None:
        """Release every shuffle's output: the job that wrote them ended
        (:meth:`~repro.spark.context.SparkContext.end_job`).  Released
        shuffles read as never written; ordinals keep counting."""
        self._outputs.clear()
        self._sizes.clear()
        self._lost.clear()
        self._ordinals.clear()

    def invalidate(self, shuffle_id: int, pidx: int) -> None:
        """Lose one reduce partition (an injected executor kill): its
        records are destroyed and reads fail until the map stage
        re-runs via :meth:`write` with ``overwrite=True``."""
        if shuffle_id not in self._outputs:
            raise SparkError(f"shuffle {shuffle_id} has not been written")
        if not 0 <= pidx < len(self._outputs[shuffle_id]):
            raise SparkError(
                f"shuffle {shuffle_id} has no reduce partition {pidx}"
            )
        self._outputs[shuffle_id][pidx] = []
        self._lost.setdefault(shuffle_id, set()).add(pidx)

    def is_lost(self, shuffle_id: int, pidx: int) -> bool:
        """Whether a reduce partition is currently lost to a kill."""
        return pidx in self._lost.get(shuffle_id, ())

    def read(self, shuffle_id: int, pidx: int) -> List[Record]:
        """Fetch one reduce partition's records.

        The returned list is shared with the stored output (no consumer
        mutates record lists, and :meth:`invalidate` replaces rather than
        mutates bucket entries).
        """
        if self.is_lost(shuffle_id, pidx):
            raise SparkError(
                f"shuffle {shuffle_id} partition {pidx} was lost and has "
                "not been recomputed"
            )
        try:
            records = self._outputs[shuffle_id][pidx]
        except KeyError:
            raise SparkError(f"shuffle {shuffle_id} has not been written") from None
        return records

    def serialized_bytes(self, shuffle_id: int, pidx: int) -> float:
        """Serialised on-disk size of one reduce partition."""
        return self._sizes[shuffle_id][pidx]
