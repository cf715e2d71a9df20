"""The logical RDD graph: lazy transformations and their dependencies.

RDDs here are *descriptions* — nothing computes until an action runs.
Narrow transformations pipeline inside a stage; wide (shuffle)
dependencies cut stages exactly like Spark's scheduler (§2).  Every RDD
carries an average ``bytes_per_record`` so the cost plane knows how many
bytes each partition represents.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Any, Callable, List, Optional, Tuple

from repro.core.tags import MemoryTag
from repro.errors import OwnerFreedError, SparkError
from repro.spark import columnar as _columnar
from repro.spark.partition import _MISSING, HashPartitioner, Record
from repro.spark.storage import StorageLevel


def _distinct_key(record: Record) -> Record:
    """``distinct``'s keying: the whole record is the key."""
    return (record, None)


def _keep_first(a: Any, _b: Any) -> Any:
    """``distinct``'s fold: each key keeps its first value."""
    return a


def _distinct_unkey(record: Record) -> Record:
    """``distinct``'s unkeying: back to the original record."""
    return record[0]


_columnar.register_map_kernel(_distinct_key, _columnar.distinct_key_kernel)
_columnar.register_reduce_kernel(_keep_first, _columnar.keep_first_kernel)
_columnar.register_map_kernel(_distinct_unkey, _columnar.distinct_unkey_kernel)


class Dependency:
    """Base class for RDD dependencies."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """Each child partition uses at most one parent partition (§2)."""


class ShuffleDependency(Dependency):
    """Each parent partition feeds many child partitions: a stage boundary.

    Attributes:
        partitioner: how shuffle output is bucketed.
        map_side_combine: optional per-key pairwise combiner applied
            before the shuffle write (reduceByKey's optimisation).
        map_side_aggregate: optional per-partition pre-aggregator
            (records -> records) applied before the shuffle write —
            aggregateByKey's seq-fold, which pairwise combining cannot
            express.  Mutually exclusive with ``map_side_combine``.
        combine_factor: output/input byte ratio of the map-side combine.
    """

    _ids = itertools.count(0)

    def __init__(
        self,
        parent: "RDD",
        partitioner: HashPartitioner,
        map_side_combine: Optional[Callable[[Any, Any], Any]] = None,
        map_side_aggregate: Optional[Callable[[List[Record]], List[Record]]] = None,
        combine_factor: float = 1.0,
    ) -> None:
        super().__init__(parent)
        self.partitioner = partitioner
        self.map_side_combine = map_side_combine
        self.map_side_aggregate = map_side_aggregate
        self.combine_factor = combine_factor
        self.shuffle_id = next(ShuffleDependency._ids)


class RDD:
    """A logical, immutable, partitioned collection of key/value records."""

    def __init__(
        self,
        ctx,
        deps: List[Dependency],
        num_partitions: int,
        bytes_per_record: float,
        name: str,
        partitioner: Optional[HashPartitioner] = None,
    ) -> None:
        if num_partitions <= 0:
            raise SparkError("an RDD needs at least one partition")
        self._ctx = weakref.ref(ctx)
        self.id: int = ctx.new_rdd_id()
        self.deps = deps
        self.num_partitions = num_partitions
        self.bytes_per_record = float(bytes_per_record)
        self.name = name
        self.partitioner = partitioner
        self.persist_level: Optional[StorageLevel] = None
        #: tag inferred by the static analysis for this RDD's variable (set
        #: by the driver before execution); propagated tags are handled at
        #: runtime by the scheduler.
        self.memory_tag: Optional[MemoryTag] = None
        #: lifetime class assigned by the Deca analysis (None under the
        #: tracing policies); the scheduler routes classified RDDs into
        #: the matching region arena at materialisation.
        self.lifetime = None
        ctx.register_rdd(self)

    @property
    def ctx(self):
        """The :class:`~repro.spark.context.SparkContext` this RDD belongs
        to.  Held weakly: the context's registry holds the RDD.

        Raises:
            OwnerFreedError: when the context was freed.
        """
        ctx = self._ctx()
        if ctx is None:
            raise OwnerFreedError(f"{self!r} outlived its SparkContext")
        return ctx

    # -- bookkeeping -------------------------------------------------------

    @property
    def parents(self) -> List["RDD"]:
        """Parent RDDs in dependency order."""
        return [d.parent for d in self.deps]

    def persist(self, level: StorageLevel = StorageLevel.MEMORY_ONLY) -> "RDD":
        """Mark this RDD for materialisation at first computation."""
        self.persist_level = level
        self.ctx.on_rdd_call(self)
        return self

    def checkpoint(self) -> "RDD":
        """Mark for checkpointing: at first computation the RDD is
        written to reliable storage and the lineage above it is never
        re-executed (Spark's fault-tolerance cut for long lineages).

        Modelled as DISK_ONLY persistence — the scheduler serves later
        reads from the checkpoint file and skips every upstream stage.
        """
        return self.persist(StorageLevel.DISK_ONLY)

    def unpersist(self) -> "RDD":
        """Release this RDD's materialised block (lineage remains)."""
        self.persist_level = None
        self.ctx.unpersist(self)
        return self

    # -- narrow transformations ------------------------------------------------

    def map(
        self,
        fn: Callable[[Record], Record],
        size_factor: float = 1.0,
        name: str = "map",
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """Apply ``fn`` to each record.

        Set ``preserves_partitioning`` when ``fn`` never changes keys, so
        downstream joins can stay narrow (Spark's ``mapPartitions``
        flag; GraphX relies on it to avoid re-shuffling the graph).
        """
        def apply_map(records: List[Record]) -> List[Record]:
            if _columnar.is_batch(records):
                out = _columnar.apply_map_batch(fn, records)
                if out is not None:
                    return out
                records = records.to_records()
            return list(map(fn, records))

        return self._narrow(
            apply_map, size_factor, name, preserves=preserves_partitioning
        )

    def flat_map(
        self,
        fn: Callable[[Record], List[Record]],
        size_factor: float = 1.0,
        name: str = "flatMap",
    ) -> "RDD":
        """Apply ``fn`` to each record and flatten the results."""
        def apply_flat_map(records: List[Record]) -> List[Record]:
            if _columnar.is_batch(records):
                out = _columnar.apply_flat_map_batch(fn, records)
                if out is not None:
                    return out
                records = records.to_records()
            return list(
                itertools.chain.from_iterable(map(fn, records))
            )

        return self._narrow(apply_flat_map, size_factor, name, preserves=False)

    def filter(
        self, predicate: Callable[[Record], bool], name: str = "filter"
    ) -> "RDD":
        """Keep records satisfying the predicate."""
        def apply_filter(records: List[Record]) -> List[Record]:
            return list(filter(predicate, records))

        return self._narrow(apply_filter, 1.0, name, preserves=True)

    def map_values(
        self,
        fn: Callable[[Any], Any],
        size_factor: float = 1.0,
        name: str = "mapValues",
    ) -> "RDD":
        """Transform values, preserving keys and partitioning."""
        def apply_map_values(records: List[Record]) -> List[Record]:
            if _columnar.is_batch(records):
                kern = _columnar.map_values_kernel_for(fn)
                out = kern(records) if kern is not None else None
                if out is not None:
                    return out
                records = records.to_records()
            return [(k, fn(v)) for k, v in records]

        return self._narrow(apply_map_values, size_factor, name, preserves=True)

    def values(self, name: str = "values") -> "RDD":
        """Project to values (keyed by their original key for bookkeeping
        simplicity: downstream flatMaps receive (key, value) pairs)."""
        def apply_values(records: List[Record]) -> List[Record]:
            return records

        return self._narrow(apply_values, 1.0, name, preserves=False)

    def _narrow(
        self,
        fn: Callable[[List[Record]], List[Record]],
        size_factor: float,
        name: str,
        preserves: bool,
    ) -> "RDD":
        self.ctx.on_rdd_call(self)
        return MapPartitionsRDD(
            self.ctx,
            parent=self,
            fn=fn,
            bytes_per_record=self.bytes_per_record * size_factor,
            name=name,
            preserves_partitioning=preserves,
        )

    def union(self, other: "RDD", name: str = "union") -> "RDD":
        """Concatenate two RDDs (narrow)."""
        self.ctx.on_rdd_call(self)
        self.ctx.on_rdd_call(other)
        return UnionRDD(self.ctx, [self, other], name=name)

    def keys(self, name: str = "keys") -> "RDD":
        """Project to ``(key, key)`` pairs (keys only, keyed by itself)."""
        return self.map(lambda r: (r[0], r[0]), name=name)

    def sample(self, fraction: float, seed: int = 17, name: str = "sample") -> "RDD":
        """Deterministic Bernoulli sample of the records."""
        if not 0.0 <= fraction <= 1.0:
            raise SparkError("sample fraction must be in [0, 1]")
        import random as _random

        def apply_sample(records: List[Record]) -> List[Record]:
            rng = _random.Random(seed)
            return [r for r in records if rng.random() < fraction]

        return self._narrow(apply_sample, fraction, name, preserves=True)

    # -- wide transformations -------------------------------------------------

    def _default_partitioner(self, n: Optional[int]) -> HashPartitioner:
        """``n`` partitions, or this RDD's count when ``n`` is None (a
        count below one is refused by :class:`HashPartitioner`)."""
        return HashPartitioner(self.num_partitions if n is None else n)

    def group_by_key(
        self,
        num_partitions: Optional[int] = None,
        size_factor: float = 1.0,
        name: str = "groupByKey",
    ) -> "RDD":
        """Group values by key (wide).

        ``size_factor`` scales the grouped records' byte weight: grouping
        E edge records into V adjacency records conserves total bytes
        when ``size_factor = E / V``.
        """
        self.ctx.on_rdd_call(self)
        partitioner = self._default_partitioner(num_partitions)

        def group(records: List[Record]) -> List[Record]:
            batch = _columnar.group_by_key_batch(records)
            if batch is not None:
                return batch
            grouped: dict = {}
            get = grouped.get
            for k, v in records:
                values = get(k)
                if values is None:
                    grouped[k] = [v]
                else:
                    values.append(v)
            return list(grouped.items())

        return ShuffledRDD(
            self.ctx,
            self,
            partitioner,
            aggregator=group,
            name=name,
            size_factor=size_factor,
        )

    def reduce_by_key(
        self,
        fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        size_factor: float = 1.0,
        name: str = "reduceByKey",
    ) -> "RDD":
        """Reduce values per key with a map-side combine (wide)."""
        self.ctx.on_rdd_call(self)
        partitioner = self._default_partitioner(num_partitions)

        def reduce_partition(records: List[Record]) -> List[Record]:
            folded = _columnar.apply_reduce_kernel(fn, records)
            if folded is not None:
                return folded
            acc: dict = {}
            get = acc.get
            for k, v in records:
                prev = get(k, _MISSING)
                acc[k] = v if prev is _MISSING else fn(prev, v)
            return list(acc.items())

        return ShuffledRDD(
            self.ctx,
            self,
            partitioner,
            aggregator=reduce_partition,
            name=name,
            map_side_combine=fn,
            combine_factor=0.5,
            size_factor=size_factor,
        )

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        """Remove duplicate records (wide)."""
        keyed = self.map(_distinct_key, name="distinct-key")
        deduped = keyed.reduce_by_key(_keep_first, num_partitions, name="distinct")
        return deduped.map(_distinct_unkey, name="distinct-unkey")

    def aggregate_by_key(
        self,
        zero: Any,
        seq_fn: Callable[[Any, Any], Any],
        comb_fn: Callable[[Any, Any], Any],
        num_partitions: Optional[int] = None,
        size_factor: float = 1.0,
        name: str = "aggregateByKey",
    ) -> "RDD":
        """Per-key aggregation with distinct within-partition (``seq_fn``
        folded from ``zero``) and across-partition (``comb_fn``) combine
        functions (wide)."""
        self.ctx.on_rdd_call(self)
        partitioner = self._default_partitioner(num_partitions)

        def seq_fold(records: List[Record]) -> List[Record]:
            acc: dict = {}
            get = acc.get
            for k, v in records:
                prev = get(k, _MISSING)
                acc[k] = seq_fn(zero if prev is _MISSING else prev, v)
            return list(acc.items())

        def comb_fold(records: List[Record]) -> List[Record]:
            acc: dict = {}
            get = acc.get
            for k, partial in records:
                prev = get(k, _MISSING)
                acc[k] = partial if prev is _MISSING else comb_fn(prev, partial)
            return list(acc.items())

        return ShuffledRDD(
            self.ctx,
            self,
            partitioner,
            aggregator=comb_fold,
            name=name,
            map_side_aggregate=seq_fold,
            combine_factor=0.5,
            size_factor=size_factor,
        )

    def sort_by_key(
        self,
        ascending: bool = True,
        num_partitions: Optional[int] = None,
        name: str = "sortByKey",
    ) -> "RDD":
        """Sort by key within each hash partition (wide).

        A faithful range partitioner would need a sampling pass; hash
        bucketing with per-partition sorting preserves the memory
        behaviour (a full shuffle plus a sort buffer), which is what the
        simulation cares about.
        """
        self.ctx.on_rdd_call(self)
        partitioner = self._default_partitioner(num_partitions)

        def sort_records(records: List[Record]) -> List[Record]:
            return sorted(records, key=lambda r: r[0], reverse=not ascending)

        return ShuffledRDD(
            self.ctx, self, partitioner, aggregator=sort_records, name=name
        )

    def cogroup(self, other: "RDD", name: str = "cogroup") -> "RDD":
        """Group both RDDs by key: ``(key, ([self values], [other
        values]))``, keeping keys present on either side."""
        self.ctx.on_rdd_call(self)
        self.ctx.on_rdd_call(other)
        n = max(self.num_partitions, other.num_partitions)
        partitioner = (
            self.partitioner
            if self.partitioner is not None
            else other.partitioner or HashPartitioner(n)
        )
        return CoGroupedRDD(
            self.ctx, self, other, partitioner, name=name, inner=False
        )

    def subtract_by_key(self, other: "RDD", name: str = "subtractByKey") -> "RDD":
        """Records of ``self`` whose key does not appear in ``other``."""
        cogrouped = self.cogroup(other, name="subtract-cogroup")

        def keep_left_only(records: List[Record]) -> List[Record]:
            out: List[Record] = []
            for k, (left, right) in records:
                if not right:
                    out.extend((k, v) for v in left)
            return out

        return MapPartitionsRDD(
            self.ctx,
            parent=cogrouped,
            fn=keep_left_only,
            bytes_per_record=self.bytes_per_record,
            name=name,
            preserves_partitioning=True,
        )

    def join(self, other: "RDD", name: str = "join") -> "RDD":
        """Inner join by key; co-partitioned parents join narrowly (§2)."""
        self.ctx.on_rdd_call(self)
        self.ctx.on_rdd_call(other)
        n = max(self.num_partitions, other.num_partitions)
        partitioner = (
            self.partitioner
            if self.partitioner is not None
            else other.partitioner or HashPartitioner(n)
        )
        cogrouped = CoGroupedRDD(self.ctx, self, other, partitioner, name="cogroup")

        def flatten(records: List[Record]) -> List[Record]:
            batch = _columnar.flatten_join(records)
            if batch is not None:
                return batch
            out: List[Record] = []
            for k, (left, right) in records:
                for lv in left:
                    for rv in right:
                        out.append((k, (lv, rv)))
            return out

        result = MapPartitionsRDD(
            self.ctx,
            parent=cogrouped,
            fn=flatten,
            bytes_per_record=self.bytes_per_record + other.bytes_per_record,
            name=name,
            preserves_partitioning=True,
        )
        return result

    # -- actions --------------------------------------------------------------

    def count(self) -> int:
        """Number of records (runs the pipeline)."""
        self.ctx.on_rdd_call(self)
        return self.ctx.scheduler.run_action(self, "count")

    def collect(self) -> List[Record]:
        """All records (runs the pipeline)."""
        self.ctx.on_rdd_call(self)
        return self.ctx.scheduler.run_action(self, "collect")

    def take(self, n: int) -> List[Record]:
        """The first ``n`` records.

        Spark stops after enough partitions have produced ``n`` records;
        we model that by computing partitions in order until satisfied.
        """
        if n < 0:
            raise SparkError("take(n) needs n >= 0")
        self.ctx.on_rdd_call(self)
        return self.ctx.scheduler.run_take(self, n)

    def first(self) -> Record:
        """The first record."""
        taken = self.take(1)
        if not taken:
            raise SparkError("first() on an empty RDD")
        return taken[0]

    def reduce(self, fn: Callable[[Record, Record], Record]):
        """Fold all records with ``fn`` (runs the pipeline)."""
        self.ctx.on_rdd_call(self)
        records = self.ctx.scheduler.run_action(self, "collect")
        if not records:
            raise SparkError("reduce of an empty RDD")
        acc = records[0]
        for r in records[1:]:
            acc = fn(acc, r)
        return acc

    # -- computation (invoked by the scheduler) ----------------------------------

    def compute_partition(self, pidx: int, task) -> List[Record]:
        """Produce one partition's records; overridden per subclass."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}[{self.id}] {self.name}>"


class SourceRDD(RDD):
    """Input data partitioned from a generator (textFile / parallelize).

    On the columnar plane every packable record-list partition is packed
    into a column batch once, here; a partition that already is a batch
    (a dataset's, see ``SparkContext.source_rdd``) is kept as it is.
    """

    def __init__(
        self,
        ctx,
        partitions: List[Any],
        bytes_per_record: float,
        name: str = "source",
    ) -> None:
        super().__init__(
            ctx,
            deps=[],
            num_partitions=len(partitions),
            bytes_per_record=bytes_per_record,
            name=name,
        )
        if _columnar.columnar_active():
            partitions = [
                _columnar.ColumnBatch.from_records(part) or part
                for part in partitions
            ]
        self._partitions = partitions

    def compute_partition(self, pidx: int, task) -> List[Record]:
        records = self._partitions[pidx]
        task.charge_source_read(self, records)
        # Source partitions are shared, not copied: downstream
        # transformations build fresh output lists and never mutate
        # their input.
        return records


class MapPartitionsRDD(RDD):
    """A pipelined narrow transformation."""

    def __init__(
        self,
        ctx,
        parent: RDD,
        fn: Callable[[List[Record]], List[Record]],
        bytes_per_record: float,
        name: str,
        preserves_partitioning: bool,
    ) -> None:
        super().__init__(
            ctx,
            deps=[NarrowDependency(parent)],
            num_partitions=parent.num_partitions,
            bytes_per_record=bytes_per_record,
            name=name,
            partitioner=parent.partitioner if preserves_partitioning else None,
        )
        self.fn = fn

    def compute_partition(self, pidx: int, task) -> List[Record]:
        parent = self.deps[0].parent
        records = task.get_records(parent, pidx)
        out = self.fn(records)
        task.charge_narrow_op(self, parent, records, out)
        return out


class UnionRDD(RDD):
    """Concatenation: child partition i is one parent's partition."""

    def __init__(self, ctx, parents: List[RDD], name: str = "union") -> None:
        bpr = max(p.bytes_per_record for p in parents)
        super().__init__(
            ctx,
            deps=[NarrowDependency(p) for p in parents],
            num_partitions=sum(p.num_partitions for p in parents),
            bytes_per_record=bpr,
            name=name,
        )

    def _locate(self, pidx: int) -> Tuple[RDD, int]:
        for dep in self.deps:
            if pidx < dep.parent.num_partitions:
                return dep.parent, pidx
            pidx -= dep.parent.num_partitions
        raise SparkError(f"partition {pidx} out of range for union")

    def compute_partition(self, pidx: int, task) -> List[Record]:
        parent, parent_pidx = self._locate(pidx)
        return task.get_records(parent, parent_pidx)


class ShuffledRDD(RDD):
    """Stage input: freshly shuffled data, always materialised (§2)."""

    def __init__(
        self,
        ctx,
        parent: RDD,
        partitioner: HashPartitioner,
        aggregator: Callable[[List[Record]], List[Record]],
        name: str,
        map_side_combine: Optional[Callable[[Any, Any], Any]] = None,
        map_side_aggregate: Optional[Callable[[List[Record]], List[Record]]] = None,
        combine_factor: float = 1.0,
        size_factor: float = 1.0,
    ) -> None:
        dep = ShuffleDependency(
            parent,
            partitioner,
            map_side_combine=map_side_combine,
            map_side_aggregate=map_side_aggregate,
            combine_factor=combine_factor,
        )
        super().__init__(
            ctx,
            deps=[dep],
            num_partitions=partitioner.num_partitions,
            bytes_per_record=parent.bytes_per_record * combine_factor * size_factor,
            name=name,
            partitioner=partitioner,
        )
        self.aggregator = aggregator

    @property
    def shuffle_dep(self) -> ShuffleDependency:
        """The single wide dependency feeding this RDD."""
        return self.deps[0]  # type: ignore[return-value]

    def compute_partition(self, pidx: int, task) -> List[Record]:
        raw = task.fetch_shuffle(self.shuffle_dep, pidx)
        out = self.aggregator(raw)
        task.charge_aggregation(self, raw, out)
        return out


class CoGroupedRDD(RDD):
    """Two-parent grouping: the backbone of join.

    A parent that is already partitioned by the target partitioner
    contributes through a narrow dependency (no shuffle — this is why
    persisted, pre-partitioned ``links`` never reshuffles in PageRank);
    other parents shuffle.
    """

    def __init__(
        self,
        ctx,
        left: RDD,
        right: RDD,
        partitioner: HashPartitioner,
        name: str = "cogroup",
        inner: bool = True,
    ) -> None:
        deps: List[Dependency] = []
        for parent in (left, right):
            if parent.partitioner == partitioner:
                deps.append(NarrowDependency(parent))
            else:
                deps.append(ShuffleDependency(parent, partitioner))
        super().__init__(
            ctx,
            deps=deps,
            num_partitions=partitioner.num_partitions,
            bytes_per_record=left.bytes_per_record + right.bytes_per_record,
            name=name,
            partitioner=partitioner,
        )
        #: inner=True keeps only keys present on both sides (join);
        #: inner=False keeps all keys (Spark's cogroup semantics).
        self.inner = inner

    def compute_partition(self, pidx: int, task) -> List[Record]:
        sides: List[List[Record]] = []
        for dep in self.deps:
            if isinstance(dep, ShuffleDependency):
                sides.append(task.fetch_shuffle(dep, pidx))
            else:
                sides.append(task.get_records(dep.parent, pidx))
        if self.inner:
            out = _columnar.join_batches(*sides)
            if out is not None:
                task.charge_cogroup(self, sides, out)
                return out
        # One dict probe per record and no per-record slot-tuple
        # allocation: side 0 fully, then side 1.
        grouped: dict = {}
        left, right = sides
        get = grouped.get
        for k, v in left:
            slot = get(k)
            if slot is None:
                grouped[k] = ([v], [])
            else:
                slot[0].append(v)
        for k, v in right:
            slot = get(k)
            if slot is None:
                grouped[k] = ([], [v])
            else:
                slot[1].append(v)
        if self.inner:
            out = [(k, v) for k, v in grouped.items() if all(v)]
        else:
            out = list(grouped.items())
        task.charge_cogroup(self, sides, out)
        return out
