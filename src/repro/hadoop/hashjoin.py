"""The §4.3 HashJoin walkthrough as a reusable building block.

"In the case of HashJoin, which is a building block for SQL engines, one
input table is loaded entirely in memory while the second table is
partitioned across map workers. ... The first table is long-lived and
frequently accessed. Hence, it should be tagged DRAM and placed in the
DRAM space of the old generation, while different partitions of the
second table can be placed in the young generation and they will die
there quickly."
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.runtime_api import PantheraRuntime
from repro.core.tags import MemoryTag
from repro.hadoop.mapreduce import MapReduceJob, SideTable
from repro.heap.managed_heap import ManagedHeap
from repro.memory.machine import Machine

Record = Tuple[Any, Any]


class HashJoin:
    """Broadcast hash join: build side in memory, probe side streamed.

    The build table is pre-tenured into DRAM via API 1 (it is shared by
    all map workers and probed constantly).  Pass ``monitored=True`` to
    instead defer to API 2: the table starts wherever its tag says (or
    NVM if untagged) and the major GC migrates it once its call
    frequency is known — the paper's "parts ... whose memory tags can be
    easily inferred are pretenured and other parts are dynamically
    migrated" flexibility.
    """

    def __init__(
        self,
        heap: ManagedHeap,
        machine: Machine,
        runtime: PantheraRuntime,
        build_records: List[Record],
        build_nbytes: int,
        tag: Optional[MemoryTag] = MemoryTag.DRAM,
        monitored: bool = False,
        num_reducers: int = 4,
    ) -> None:
        self.table = SideTable(
            name="hashjoin-build",
            records=build_records,
            nbytes=build_nbytes,
            tag=tag,
            monitored=monitored,
        )
        self.heap = heap
        self.machine = machine
        self.runtime = runtime
        self.num_reducers = num_reducers

    def join(
        self,
        probe_splits: List[List[Record]],
        bytes_per_record: float,
    ) -> Dict[Any, List[Tuple[Any, Any]]]:
        """Join the probe side against the build table.

        Returns:
            key -> list of (probe value, build value) pairs.
        """
        table = self.table

        def probe(record: Record) -> List[Record]:
            key, value = record
            return [
                (key, (value, build_value)) for build_value in table.lookup(key)
            ]

        def collect(key: Any, values: List[Any]) -> List[Tuple[Any, Any]]:
            return list(values)

        job = MapReduceJob(
            self.heap,
            self.machine,
            self.runtime,
            map_fn=probe,
            reduce_fn=collect,
            num_reducers=self.num_reducers,
            side_tables=[table],
        )
        return job.run(probe_splits, bytes_per_record)
