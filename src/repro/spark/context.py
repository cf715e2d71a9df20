"""SparkContext: wires the whole simulated stack together.

``SparkContext.create(config)`` builds one node: the machine (devices +
clock + energy), the placement policy, the managed heap, the collector,
and whatever the policy attaches to the heap — Panthera's access monitor
and the runtime whose ``rdd_alloc`` instrumentation the scheduler
invokes at materialisation points, Deca's lifetime arenas.  The engine
never asks which policy it runs: every policy-specific decision is a
:class:`~repro.gc.policies.PlacementPolicy` hook.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.runtime_api import PantheraRuntime
from repro.errors import SparkError
from repro.gc.collector import Collector
from repro.gc.policies import make_policy
from repro.heap.layout import HEAP_BASE, young_span_bytes
from repro.heap.managed_heap import ManagedHeap
from repro.memory.machine import Machine
from repro.spark import columnar as _columnar
from repro.spark.block_manager import BlockManager
from repro.spark.materialize import Materializer
from repro.spark.partition import Record, split_evenly
from repro.spark.rdd import RDD, SourceRDD
from repro.spark.scheduler import Scheduler
from repro.spark.shuffle import ShuffleManager


#: ``(id(dataset), num_partitions, columnar)`` -> ``(weakref to the
#: dataset, split partitions)``.  Contexts live for one run but memoised
#: datasets live for the process, so every run over the same dataset
#: shares one split of it.  Keyed on object identity: a ``DatasetSpec``
#: compares its columns by value.  An entry dies with its dataset.
_SPLITS: Dict[Tuple[int, int, bool], tuple] = {}


def _dataset_splits(dataset, num_partitions: int) -> list:
    """The shared source partitions of one dataset: column batches
    sliced from its columns on the columnar plane, record lists from its
    record view otherwise."""
    columnar = _columnar.columnar_active()
    key = (id(dataset), num_partitions, columnar)
    entry = _SPLITS.get(key)
    if entry is not None and entry[0]() is dataset:
        return entry[1]

    def forget(ref, key=key) -> None:
        if _SPLITS.get(key, (None,))[0] is ref:
            del _SPLITS[key]

    if columnar:
        parts = _columnar.split_columns(
            dataset.keys, dataset.values, dataset.dim, num_partitions
        )
    else:
        parts = split_evenly(dataset.records, num_partitions)
    _SPLITS[key] = (weakref.ref(dataset, forget), parts)
    return parts


class SparkContext:
    """One simulated Spark driver + executor node."""

    def __init__(
        self,
        config: SystemConfig,
        machine: Machine,
        heap: ManagedHeap,
        collector: Collector,
        runtime: Optional[PantheraRuntime] = None,
    ) -> None:
        self.config = config
        self.machine = machine
        self.heap = heap
        self.collector = collector
        self.policy = collector.policy
        self.monitor = collector.monitor
        #: the policy's runtime (Panthera's); None means no tags anywhere
        self.runtime = runtime
        self.shuffles = ShuffleManager()
        self.block_manager = BlockManager(heap, machine, self.policy)
        self.materializer = Materializer(heap, machine, runtime)
        self.scheduler = Scheduler(self)
        self._rdd_ids = itertools.count(1)
        #: the running job's RDDs and the cached sources, by id
        #: (:meth:`end_job` drops the rest); an RDD holds its context
        #: only weakly (:attr:`RDD.ctx <repro.spark.rdd.RDD.ctx>`)
        self._rdds: Dict[int, RDD] = {}
        #: ``id(dataset)`` -> ``(dataset, source)``; the entry holds the
        #: dataset so its id cannot be reused while the context lives.
        self._sources: Dict[int, Tuple[object, SourceRDD]] = {}

    @property
    def faults(self):
        """Optional :class:`~repro.faults.injector.FaultInjector`; the
        scheduler consults it at stage/action boundaries (None = no
        fault injection, one ``is None`` check per boundary)."""
        return self.scheduler.faults

    @faults.setter
    def faults(self, injector) -> None:
        self.scheduler.faults = injector

    @property
    def cluster(self):
        """The :class:`~repro.cluster.executor.ShuffleClient` of the
        cluster executor this context runs on, installed for the
        executor's lifetime; the scheduler calls its ``shuffle_fetch``
        on every reduce-partition fetch (one ``is None`` check), and
        executor kills read its shuffle service.  None = a standalone
        node."""
        return self.scheduler.cluster

    @cluster.setter
    def cluster(self, client) -> None:
        self.scheduler.cluster = client

    # -- construction -----------------------------------------------------

    @classmethod
    def create(
        cls,
        config: SystemConfig,
        policy=None,
    ) -> "SparkContext":
        """Build the full stack for one configuration.

        Args:
            policy: an optional custom
                :class:`~repro.gc.policies.PlacementPolicy` instance;
                defaults to the one named by ``config.policy``.  Passing
                a custom policy is the extension point for placement
                research (see ``examples/custom_policy.py``).
        """
        machine = Machine(config)
        policy = policy or make_policy(config)
        old_base = HEAP_BASE + young_span_bytes(config)
        old_spaces = policy.build_old_spaces(old_base)
        heap = ManagedHeap(
            config, machine, old_spaces, card_padding=policy.card_padding
        )
        runtime = policy.attach(heap, machine)
        monitor = runtime.monitor if runtime is not None else None
        collector = Collector(heap, machine, policy, monitor=monitor)
        return cls(config, machine, heap, collector, runtime=runtime)

    # -- RDD registry ----------------------------------------------------------

    def new_rdd_id(self) -> int:
        """Fresh RDD id."""
        return next(self._rdd_ids)

    def register_rdd(self, rdd: RDD) -> None:
        """Track a logical RDD (for reports and tests)."""
        self._rdds[rdd.id] = rdd

    def rdd_by_id(self, rdd_id: int) -> RDD:
        """Look up a registered RDD."""
        try:
            return self._rdds[rdd_id]
        except KeyError:
            raise SparkError(f"unknown RDD id {rdd_id}") from None

    # -- sources -----------------------------------------------------------------

    def source_rdd(self, dataset) -> SourceRDD:
        """SourceRDD for a dataset spec (cached, like an HDFS file)."""
        cached = self._sources.get(id(dataset))
        if cached is not None:
            return cached[1]
        if not dataset.n_records:
            raise SparkError("cannot parallelize an empty dataset")
        source = SourceRDD(
            self,
            _dataset_splits(dataset, dataset.num_partitions),
            bytes_per_record=dataset.bytes_per_record,
            name=dataset.name,
        )
        self._sources[id(dataset)] = (dataset, source)
        return source

    def parallelize(
        self,
        records: List[Record],
        num_partitions: int,
        total_bytes: float,
        name: str = "parallelize",
    ) -> SourceRDD:
        """Create a source RDD from records with a total byte weight.

        Raises:
            SparkError: on an empty dataset or fewer than one partition.
        """
        if not records:
            raise SparkError("cannot parallelize an empty dataset")
        if num_partitions < 1:
            raise SparkError("an RDD needs at least one partition")
        partitions = split_evenly(records, num_partitions)
        return SourceRDD(
            self,
            partitions,
            bytes_per_record=total_bytes / len(records),
            name=name,
        )

    # -- runtime hooks --------------------------------------------------------------

    def on_rdd_call(self, rdd: RDD) -> None:
        """A transformation/action was invoked on an RDD: under Panthera,
        calls on materialised RDDs are monitored (§4.2.2)."""
        self.scheduler.on_rdd_call(rdd)

    def unpersist(self, rdd: RDD) -> None:
        """Release an RDD's persisted block."""
        self.block_manager.unpersist(rdd.id)

    def end_job(self) -> None:
        """End the running job as Spark ends an application: unpersist
        every block (in RDD-id order), forget every RDD but the cached
        sources, with their tags and Deca lifetime classes, and release
        every shuffle output.  The sources' tags stay: a later job's
        propagation merges into them.  Released ids are never reused.
        """
        manager = self.block_manager
        for rdd_id in sorted(block.rdd_id for block in manager.blocks()):
            manager.unpersist(rdd_id)
        sources = {source.id for _, source in self._sources.values()}
        released = [rdd_id for rdd_id in self._rdds if rdd_id not in sources]
        tags = self.scheduler.runtime_tags
        for rdd_id in released:
            del self._rdds[rdd_id]
            tags.pop(rdd_id, None)
        if self.heap.regions is not None:
            self.heap.regions.forget(released)
        self.shuffles.release()
