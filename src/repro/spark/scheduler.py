"""The DAG scheduler and task-side cost charging.

Execution follows Spark's model (§2): an action walks the lineage, runs
every not-yet-written shuffle map stage bottom-up, then computes the
final pipeline.  Wide dependencies are memoised as shuffle files for the
application's lifetime (stage skipping), which keeps iterative jobs
linear.  ShuffledRDDs — the materialised stage inputs the paper's tag
propagation targets — are materialised into the heap when first fetched
and released when their consuming scope ends.

This module is also the mutator cost model: every transformation charges
CPU time, young-generation writes and ephemeral allocation; every data
*source* (persisted block, shuffle file, input file) charges its read at
the device it actually lives on.  That single rule is what makes the
unmanaged baseline pay for NVM-resident hot RDDs while Panthera does not.
"""

from __future__ import annotations

from itertools import chain as _chain
from typing import Dict, List, Optional, Set

from repro.config import MUTATOR_THREADS, DeviceKind
from repro.core.lineage_propagation import propagate_tags
from repro.core.tags import MemoryTag
from repro.errors import OutOfMemoryError, SparkError
from repro.heap.object_model import ObjKind
from repro.spark.costmodel import (
    ALLOC_FACTOR,
    CPU_NS_PER_BYTE,
    CPU_NS_PER_RECORD,
    SER_FACTOR,
    SOURCE_CPU_NS_PER_BYTE,
    hash_probes_for,
)
from repro.spark.materialize import MaterializedBlock
from repro.spark import columnar as _columnar
from repro.spark.partition import _MISSING, Record
from repro.spark.rdd import (
    RDD,
    ShuffleDependency,
    ShuffledRDD,
)
from repro.spark.serialized import pack_partitions
from repro.spark.storage import expand_level, routes_to_serialized_tier


class Scheduler:
    """Runs actions over the logical RDD graph, charging the machine."""

    def __init__(self, ctx) -> None:
        # The context's members, held directly: the context owns the
        # scheduler, and nothing here points back to the context.
        self.heap = ctx.heap
        self.machine = ctx.machine
        self.policy = ctx.policy
        self.runtime = ctx.runtime
        self.monitor = ctx.monitor
        self.shuffles = ctx.shuffles
        self.block_manager = ctx.block_manager
        self.materializer = ctx.materializer
        #: the context's fault injector and cluster hook
        #: (:attr:`SparkContext.faults <repro.spark.context.SparkContext.faults>`,
        #: :attr:`~repro.spark.context.SparkContext.cluster`)
        self.faults = None
        self.cluster = None
        #: rdd_id -> runtime-propagated tag (ShuffledRDD inputs, §3)
        self.runtime_tags: Dict[int, Optional[MemoryTag]] = {}
        #: rdd_id -> transient ShuffledRDD block for the active scopes
        self._transients: Dict[int, MaterializedBlock] = {}
        self._scopes: List[List[MaterializedBlock]] = []
        self.transient_materializations = 0

    # ------------------------------------------------------------------
    # scopes: transient ShuffledRDD lifetime ("die when the stage ends")
    # ------------------------------------------------------------------

    def _push_scope(self) -> None:
        self._scopes.append([])

    def _pop_scope(self) -> None:
        heap = self.heap
        policy = self.policy
        for block in self._scopes.pop():
            self.materializer.release(block)
            # The stage is over: its buffers are garbage, and the stage's
            # final safepoint stops treating their card regions as
            # scannable (otherwise dead shuffle buffers would be
            # phantom-rescanned until the next full GC).
            for array in block.arrays:
                if heap.card_table.is_registered(array):
                    heap.card_table.unregister(array)
            self._transients.pop(block.rdd_id, None)
            policy.release_block(heap, block)
        if not self._scopes:
            # The outermost scope closing is a stage/action boundary;
            # nested scopes belong to the same stage.
            policy.stage_boundary(heap)

    def on_rdd_call(self, rdd: RDD) -> None:
        """A transformation/action was invoked on an RDD, or one of its
        cached partitions was read: under Panthera, calls on
        materialised RDDs are monitored (§4.2.2)."""
        if self.monitor is None:
            return
        if rdd.persist_level is not None or self.block_manager.contains(rdd.id):
            self.monitor.record_call(rdd.id)

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------

    def run_action(self, rdd: RDD, action: str):
        """Execute an action, driving all upstream stages."""
        self._ensure_upstream_shuffles(rdd)
        if self.faults is not None:
            self.faults.action_boundary(rdd)
        self._push_scope()
        try:
            tag = rdd.memory_tag if self.runtime is not None else None
            if tag is not None:
                propagate_tags(rdd, tag, self.runtime_tags)
            parts = [
                self.get_records(rdd, p) for p in range(rdd.num_partitions)
            ]
            if (
                tag is not None
                and rdd.persist_level is None
                and not self.block_manager.contains(rdd.id)
            ):
                # The action is a materialisation point (§3): build the
                # transient structure so the tag machinery is exercised,
                # released when the action's scope closes.
                block = self.materializer.materialize(rdd, parts, tag)
                self._scopes[-1].append(block)
        finally:
            self._pop_scope()
        if action == "count":
            # Lengths only: a column batch needs no unpacking to count.
            return sum(len(part) for part in parts)
        records: List[Record] = list(_chain.from_iterable(parts))
        if action == "collect":
            return records
        if action == "sum":
            return sum(v for _, v in records)
        raise SparkError(f"unknown action {action!r}")

    def run_take(self, rdd: RDD, n: int) -> List[Record]:
        """Compute partitions in order until ``n`` records are available
        (Spark's incremental ``take``)."""
        self._ensure_upstream_shuffles(rdd)
        if self.faults is not None:
            self.faults.action_boundary(rdd)
        self._push_scope()
        taken: List[Record] = []
        try:
            for pidx in range(rdd.num_partitions):
                if len(taken) >= n:
                    break
                taken.extend(self.get_records(rdd, pidx))
        finally:
            self._pop_scope()
        return taken[:n]

    # ------------------------------------------------------------------
    # stage orchestration
    # ------------------------------------------------------------------

    def _ensure_upstream_shuffles(self, rdd: RDD) -> None:
        """Run every missing shuffle map stage below ``rdd``, parents
        first (iterative postorder, so deep lineages never overflow the
        Python stack)."""
        order: List[ShuffleDependency] = []
        seen: Set[int] = set()
        stack = [(rdd, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                for dep in node.deps:
                    if isinstance(dep, ShuffleDependency):
                        if not self.shuffles.has(dep.shuffle_id):
                            order.append(dep)
                continue
            if node.id in seen:
                continue
            seen.add(node.id)
            if self.block_manager.contains(node.id):
                continue  # cached: its upstream stages are skipped
            stack.append((node, True))
            for dep in node.deps:
                stack.append((dep.parent, False))
        for dep in order:
            self._run_shuffle_map(dep)

    def _run_shuffle_map(self, dep: ShuffleDependency, force: bool = False) -> None:
        """Execute one shuffle map stage and write its files.

        Args:
            force: re-run the stage even though its output exists and
                overwrite it — the lineage-recovery path after an
                injected executor kill destroyed a reduce partition.
        """
        if self.shuffles.has(dep.shuffle_id) and not force:
            return
        self._ensure_upstream_shuffles(dep.parent)
        n_out = dep.partitioner.num_partitions
        buckets: List[List[Record]] = [[] for _ in range(n_out)]
        # The stage's map outputs are collected in map-partition order
        # and bucketed together after the loop, so an all-batch stage
        # splits once rather than once per map partition (nothing
        # between partitions reads the buckets).
        outputs: list = []
        # Each partition's machine charges (the combine probe and the
        # spill write) settle as one run_batch series: nothing between
        # them touches the machine, so clocks, counters and bandwidth
        # windows equal one call per charge.
        self._push_scope()
        try:
            for pidx in range(dep.parent.num_partitions):
                records = self.get_records(dep.parent, pidx)
                in_bytes = len(records) * dep.parent.bytes_per_record
                n_records = len(records)
                batches = []
                if dep.map_side_combine is not None or dep.map_side_aggregate is not None:
                    if dep.map_side_aggregate is not None:
                        records = dep.map_side_aggregate(records)
                        n_records = len(records)
                    else:
                        fn = dep.map_side_combine
                        folded = self._columnar_combine(fn, records)
                        if folded is not None:
                            # The kernel's grouped fold: same groups in
                            # the same first-occurrence order, each
                            # accumulated in record order — the dict
                            # fold below, vectorised.
                            records = folded
                            n_records = len(folded)
                        else:
                            # Single dict probe per record, fn folding
                            # each key's values in record order;
                            # combined.items() is bucketed as is, with
                            # no intermediate list.
                            combined = {}
                            get = combined.get
                            for k, v in records:
                                prev = get(k, _MISSING)
                                combined[k] = (
                                    v if prev is _MISSING else fn(prev, v)
                                )
                            records = combined.items()
                            n_records = len(combined)
                    probes = hash_probes_for(in_bytes)
                    batches.append(
                        (
                            ((DeviceKind.DRAM, 0.0, 0.0, probes, 0),),
                            in_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS,
                        )
                    )
                outputs.append(records)
                out_bytes = (
                    n_records * dep.parent.bytes_per_record * dep.combine_factor
                )
                ser_bytes = out_bytes * SER_FACTOR
                batches.append(
                    (
                        ((DeviceKind.DISK, 0.0, ser_bytes, 0, 0),),
                        out_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS,
                    )
                )
                self.machine.run_batch(batches)
        finally:
            self._pop_scope()
        _columnar.bucket_into_segments(dep.partitioner, outputs, buckets)
        bpr = dep.parent.bytes_per_record * dep.combine_factor
        sizes = [len(b) * bpr * SER_FACTOR for b in buckets]
        self.shuffles.write(dep.shuffle_id, buckets, sizes, overwrite=force)
        if self.faults is not None:
            # A completed map stage is a stage boundary: pending kills
            # scheduled for it fire now (possibly re-losing the output
            # this very stage just wrote — recovery is bounded).
            self.faults.stage_boundary(dep)

    def _columnar_combine(self, fn, records):
        """Map-side combine through ``fn``'s registered grouped-fold
        kernel, for data already in batch form.  Plain record lists stay
        on the dict fold: packing them is an O(N) Python loop that costs
        more than the vectorised fold saves.  The graph workloads'
        message fan-outs (PageRank's contribs, CC/SSSP's msgs) arrive
        here as batches from their flat_map kernels."""
        if _columnar.reduce_kernel_for(fn) is None:
            return None
        if not _columnar.is_batch(records):
            return None
        return _columnar.apply_reduce_kernel(fn, records)

    # ------------------------------------------------------------------
    # record access (the task-side data plane)
    # ------------------------------------------------------------------

    def get_records(self, rdd: RDD, pidx: int) -> List[Record]:
        """One partition of ``rdd``, from cache, shuffle or recomputation."""
        block = self.block_manager.get(rdd.id)
        if block is not None:
            return self._read_block(rdd, block, pidx)
        transient = self._transients.get(rdd.id)
        if transient is not None:
            return self._read_block(rdd, transient, pidx)
        if rdd.persist_level is not None:
            if self.faults is not None:
                self.faults.materialize_persisted(self, rdd)
            else:
                self._materialize_persisted(rdd)
            block = self.block_manager.get(rdd.id)
            if block is None:
                raise SparkError(f"persist of {rdd!r} produced no block")
            return self._read_block(rdd, block, pidx)
        if isinstance(rdd, ShuffledRDD):
            block = self._materialize_shuffled(rdd)
            return self._read_block(rdd, block, pidx)
        return rdd.compute_partition(pidx, self)

    def _read_block(
        self, rdd: RDD, block: MaterializedBlock, pidx: int
    ) -> List[Record]:
        """Serve one partition from a block, charging its read wherever
        the block's objects currently live."""
        if block.in_serialized_tier:
            return self._read_serialized_partition(rdd, block, pidx)
        records = block.records[pidx]
        if block.on_disk:
            part_bytes = len(records) * rdd.bytes_per_record
            disk_bytes = part_bytes * SER_FACTOR
            cpu_ns = part_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch(
                [(((DeviceKind.DISK, disk_bytes, 0.0, 0, 0),), cpu_ns)]
            )
        else:
            traffic: Dict[DeviceKind, float] = {}
            for device, nbytes in block.partition_traffic(pidx):
                traffic[device] = traffic.get(device, 0.0) + nbytes
            # Serialised blocks pay deserialisation CPU on every read.
            deser_cpu = 0.0
            if block.serialized:
                part_bytes = len(records) * rdd.bytes_per_record
                deser_cpu = part_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch(
                [([(d, b, 0.0, 0, 0) for d, b in traffic.items()], deser_cpu)]
            )
            # Consuming a cached partition leaves reference writes (task
            # iterators, buffer handles) in its card region, so the next
            # minor GC re-scans the array — on whatever device it lives.
            if pidx < len(block.arrays):
                array = block.arrays[pidx]
                heap = self.heap
                if heap.in_old(array) and heap.card_table.is_registered(array):
                    heap.card_table.mark_dirty(array)
        # Runtime consumption counts towards the RDD's call frequency —
        # this is what keeps iteratively re-read RDDs "hot" across major
        # GCs (§4.2.2).
        self.on_rdd_call(rdd)
        # Served partitions are shared, not copied: consumers never
        # mutate record lists.
        return records

    def _read_serialized_partition(
        self, rdd: RDD, block: MaterializedBlock, pidx: int
    ) -> List[Record]:
        """Serve one partition of a serialized-tier block.

        Deserialize-on-access: stream the packed batch off the native
        device, pay the unpack CPU, land the deserialised records in
        DRAM.  No cards are dirtied and nothing is re-scanned — the
        tier has no object-heap structure for the GC to see.
        """
        batch = block.ser_batches[pidx]
        part_bytes = batch.count * rdd.bytes_per_record
        packed_bytes = part_bytes * SER_FACTOR
        deser_cpu = part_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
        device = self.heap.native.device
        self.machine.run_batch(
            (
                (((device, packed_bytes, 0.0, 0, 0),), deser_cpu),
                (((DeviceKind.DRAM, 0.0, part_bytes, 0, 0),), 0.0),
            ),
        )
        if self.heap.trace is not None:
            self.heap.trace.deserialize(rdd.id, part_bytes)
        self.on_rdd_call(rdd)
        return batch.unpack()

    # ------------------------------------------------------------------
    # materialisation paths
    # ------------------------------------------------------------------

    def _materialize_persisted(self, rdd: RDD) -> None:
        """First computation of a persisted RDD: compute, then cache."""
        level = rdd.persist_level
        assert level is not None
        tag = rdd.memory_tag if self.runtime is not None else None
        if tag is not None:
            propagate_tags(rdd, tag, self.runtime_tags)
        self._push_scope()
        try:
            parts = [
                rdd.compute_partition(p, self) for p in range(rdd.num_partitions)
            ]
        finally:
            self._pop_scope()
        total_bytes = sum(len(p) for p in parts) * rdd.bytes_per_record
        if routes_to_serialized_tier(level):
            block = self._materialize_serialized_tier(rdd, parts)
        elif level.use_memory:
            in_heap_bytes = (
                total_bytes * SER_FACTOR if level.serialized else total_bytes
            )
            self.policy.reserve_persisted(
                rdd.ctx, rdd, in_heap_bytes, self._active_transient_bytes()
            )
            block = self.materializer.materialize(
                rdd, parts, tag, serialized=level.serialized
            )
            block.serialized = level.serialized
        else:  # DISK_ONLY
            top = self.heap.new_object(ObjKind.CONTROL, 64, rdd.id)
            block = MaterializedBlock(
                rdd_id=rdd.id,
                top=top,
                arrays=[],
                slabs=[[] for _ in parts],
                records=parts,
                data_bytes=total_bytes,
                on_disk=True,
            )
            disk_bytes = total_bytes * SER_FACTOR
            cpu_ns = total_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch(
                [(((DeviceKind.DISK, 0.0, disk_bytes, 0, 0),), cpu_ns)]
            )
        expanded = expand_level(level, tag)
        self.block_manager.put(block, expanded)

    def _materialize_serialized_tier(
        self, rdd: RDD, parts: List[List[Record]]
    ) -> MaterializedBlock:
        """Serialized-tier persistence: pack each partition into a
        column batch in the native region (§4.1's off-heap NVM), charge
        serialize-on-persist rows, and leave *nothing* for the GC to
        trace — the tier's whole trade (arXiv 2111.10589) is paying
        deserialisation on every access instead of tracing cost on
        every collection.
        """
        heap = self.heap
        top = heap.new_object(ObjKind.CONTROL, 64, rdd.id)
        arrays = []
        total_packed = 0.0
        for records in parts:
            part_bytes = len(records) * rdd.bytes_per_record
            packed_bytes = part_bytes * SER_FACTOR
            total_packed += packed_bytes
            try:
                native_obj = heap.allocate_native(packed_bytes, rdd.id)
            except OutOfMemoryError as exc:
                raise SparkError(str(exc)) from exc
            arrays.append(native_obj)
            # Row 1: stream the freshly computed records out of DRAM,
            # paying the serialisation CPU.  Row 2: land the packed
            # batch on the native device.
            ser_cpu = part_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS
            self.machine.run_batch(
                (
                    (((DeviceKind.DRAM, part_bytes, 0.0, 0, 0),), ser_cpu),
                    (((heap.native.device, 0.0, packed_bytes, 0, 0),), 0.0),
                ),
            )
        if heap.trace is not None:
            heap.trace.serialize(rdd.id, total_packed)
        return MaterializedBlock(
            rdd_id=rdd.id,
            top=top,
            arrays=arrays,
            slabs=[[] for _ in parts],
            records=[[] for _ in parts],
            data_bytes=total_packed,
            serialized=True,
            ser_batches=pack_partitions(parts),
        )

    def _active_transient_bytes(self) -> float:
        """Live bytes held by in-flight transient blocks (invisible to the
        block manager's registry)."""
        return sum(b.data_bytes for b in self._transients.values())

    def _materialize_shuffled(self, rdd: ShuffledRDD) -> MaterializedBlock:
        """Materialise a ShuffledRDD stage input (always materialised, §2)
        with its runtime-propagated tag; it dies when the scope ends."""
        if not self._scopes:
            self._push_scope()  # defensive: an implicit outermost scope
        dep = rdd.shuffle_dep
        estimate = None
        if self.shuffles.has(dep.shuffle_id):
            estimate = sum(
                self.shuffles.serialized_bytes(dep.shuffle_id, p)
                for p in range(rdd.num_partitions)
            ) / SER_FACTOR
        self.policy.reserve_stage_input(
            rdd.ctx, rdd, estimate, self._active_transient_bytes()
        )
        parts = [
            rdd.compute_partition(p, self) for p in range(rdd.num_partitions)
        ]
        # Only tags propagated under a runtime are ever recorded.
        tag = self.runtime_tags.get(rdd.id)
        block = self.materializer.materialize(rdd, parts, tag)
        self._transients[rdd.id] = block
        self._scopes[-1].append(block)
        self.transient_materializations += 1
        return block

    # ------------------------------------------------------------------
    # shuffle fetch + per-op cost charging (called from rdd.compute_partition)
    # ------------------------------------------------------------------

    def fetch_shuffle(self, dep: ShuffleDependency, pidx: int) -> List[Record]:
        """Read one reduce partition from shuffle files on disk."""
        if not self.shuffles.has(dep.shuffle_id):
            self._run_shuffle_map(dep)
        if self.faults is not None:
            self.faults.ensure_shuffle_partition(self, dep, pidx)
        if self.cluster is not None:
            # Partitions owned by a remote executor pay the network hop
            # (charged through Machine.run_batch on this machine) before
            # the local disk read below models the landing.
            self.cluster.shuffle_fetch(dep, pidx)
        records = self.shuffles.read(dep.shuffle_id, pidx)
        ser_bytes = self.shuffles.serialized_bytes(dep.shuffle_id, pidx)
        raw_bytes = ser_bytes / SER_FACTOR
        self._ephemeral(raw_bytes)
        # Disk read + DRAM landing settle as one two-batch series — they
        # are back-to-back accesses with nothing between them.
        self.machine.run_batch(
            (
                (
                    ((DeviceKind.DISK, ser_bytes, 0.0, 0, 0),),
                    raw_bytes * CPU_NS_PER_BYTE / MUTATOR_THREADS,
                ),
                (((DeviceKind.DRAM, 0.0, raw_bytes, 0, 0),), 0.0),
            ),
        )
        return records

    def _ephemeral(self, nbytes: float) -> None:
        """Stream ``nbytes`` of operator output through eden.

        The allocation-pressure factor models the JVM's temp-object churn
        (boxing, iterator wrappers): eden fills several times faster than
        the useful output volume.
        """
        self.heap.allocate_streaming(int(nbytes * ALLOC_FACTOR))

    def _write_overhead_ns(self, nbytes: float) -> float:
        """Kingsguard-Writes' monitoring barrier cost for ``nbytes`` of
        mutator writes."""
        per_write = self.policy.mutator_write_barrier_ns()
        if per_write <= 0:
            return 0.0
        return per_write * (nbytes / 64.0)

    def _charge_op(
        self,
        in_bytes: float,
        out_bytes: float,
        n_in: int,
        n_out: int,
        probe_bytes: float = 0.0,
    ) -> None:
        """Common charging for one partition-level operator."""
        cpu = (
            in_bytes * CPU_NS_PER_BYTE
            + (n_in + n_out) * CPU_NS_PER_RECORD
            + self._write_overhead_ns(out_bytes)
        ) / MUTATOR_THREADS
        self._ephemeral(out_bytes)
        probes = hash_probes_for(probe_bytes)
        self.machine.run_batch([(((DeviceKind.DRAM, 0.0, out_bytes, probes, 0),), cpu)])

    def charge_narrow_op(
        self, rdd: RDD, parent: RDD, in_records: List[Record], out_records: List[Record]
    ) -> None:
        """Cost of a pipelined narrow transformation."""
        self._charge_op(
            in_bytes=len(in_records) * parent.bytes_per_record,
            out_bytes=len(out_records) * rdd.bytes_per_record,
            n_in=len(in_records),
            n_out=len(out_records),
        )

    def charge_aggregation(
        self, rdd: ShuffledRDD, raw: List[Record], out: List[Record]
    ) -> None:
        """Cost of a reduce-side aggregation (hash build over raw input)."""
        in_bytes = len(raw) * rdd.deps[0].parent.bytes_per_record
        self._charge_op(
            in_bytes=in_bytes,
            out_bytes=len(out) * rdd.bytes_per_record,
            n_in=len(raw),
            n_out=len(out),
            probe_bytes=in_bytes,
        )

    def charge_cogroup(
        self, rdd: RDD, sides: List[List[Record]], out: List[Record]
    ) -> None:
        """Cost of a hash cogroup over all input sides."""
        in_bytes = sum(
            len(side) * dep.parent.bytes_per_record
            for side, dep in zip(sides, rdd.deps)
        )
        self._charge_op(
            in_bytes=in_bytes,
            out_bytes=len(out) * rdd.bytes_per_record,
            n_in=sum(len(s) for s in sides),
            n_out=len(out),
            probe_bytes=in_bytes,
        )

    def charge_source_read(self, rdd: RDD, records: List[Record]) -> None:
        """Cost of reading and parsing one input partition from disk."""
        nbytes = len(records) * rdd.bytes_per_record
        self._ephemeral(nbytes)
        self.machine.run_batch(
            (
                (
                    ((DeviceKind.DISK, nbytes, 0.0, 0, 0),),
                    nbytes * SOURCE_CPU_NS_PER_BYTE / MUTATOR_THREADS,
                ),
                (((DeviceKind.DRAM, 0.0, nbytes, 0, 0),), 0.0),
            ),
        )
