"""The serialized off-heap tier.

Covers the third placement target beyond the DRAM/NVM object heaps:
packed-column-batch placement in the native region, serialize-on-persist
and deserialize-on-access charging, the fallthrough bugfix (the old
silent object-heap degradation of ``MEMORY_ONLY_SER`` / ``OFF_HEAP`` is
gone), kill + lineage recovery of native blocks, strict trace-replay of
tier runs, ``TaggedStorageLevel`` edge cases and the tier holding every
partition (record list or column batch) as the data plane built it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MiB, PolicyName
from repro.core.tags import MemoryTag, Placement
from repro.core.static_analysis import analyze_program
from repro.faults import FaultPlan, KillSpec, action_checksums
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.spark.costmodel import SER_FACTOR
from repro.spark.storage import (
    StorageLevel,
    TaggedStorageLevel,
    expand_level,
    routes_to_serialized_tier,
)
from repro.trace import TraceSession
from repro.trace.replay import replay_events
from repro.workloads.registry import WORKLOADS, build_workload
from tests.conftest import small_context


def cached_rdd(ctx, level, n=12, total_bytes=6 * MiB, name="tier-src"):
    rdd = ctx.parallelize(
        [(i, i) for i in range(n)], 3, total_bytes, name=name
    ).map(lambda r: r)
    rdd.persist(level)
    rdd.count()
    return rdd


# -- tier placement ---------------------------------------------------------


class TestTierPlacement:
    def test_ser_block_lands_in_native_region(self):
        ctx = small_context()
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        block = ctx.block_manager.get(rdd.id)
        assert block.in_serialized_tier
        assert block.serialized
        assert block.ser_batches is not None
        for array in block.arrays:
            assert ctx.heap.native.holds(array)
        # No object-heap payload structure at all: nothing for a GC to
        # trace (the old silent fallthrough built slabs in the heap).
        assert all(not slabs for slabs in block.slabs)
        assert all(not recs for recs in block.records)

    def test_off_heap_block_packs_batches_too(self):
        ctx = small_context()
        rdd = cached_rdd(ctx, StorageLevel.OFF_HEAP)
        block = ctx.block_manager.get(rdd.id)
        assert block.in_serialized_tier
        assert all(ctx.heap.native.holds(a) for a in block.arrays)

    def test_packed_bytes_shrink_by_ser_factor(self):
        ctx = small_context()
        plain = cached_rdd(ctx, StorageLevel.MEMORY_ONLY, name="obj")
        ser = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER, name="ser")
        ratio = (
            ctx.block_manager.get(ser.id).data_bytes
            / ctx.block_manager.get(plain.id).data_bytes
        )
        assert ratio == pytest.approx(SER_FACTOR, rel=0.05)

    def test_results_identical_to_object_mode(self):
        def collect(level):
            ctx = small_context()
            rdd = cached_rdd(ctx, level)
            return sorted(ctx.scheduler.run_action(rdd, "collect"))

        tier = collect(StorageLevel.MEMORY_ONLY_SER)
        assert tier == collect(StorageLevel.MEMORY_ONLY)

    def test_tier_bytes_invisible_to_block_manager_pressure(self):
        ctx = small_context()
        cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        assert ctx.block_manager.in_memory_bytes() == 0.0
        assert ctx.block_manager.serialized_tier_bytes() > 0.0

    def test_regression_silent_object_heap_fallthrough_is_gone(self):
        """An old build placed MEMORY_ONLY_SER as object-heap slabs with
        no warning; the tier leaves no slabs behind."""
        ctx = small_context()
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        block = ctx.block_manager.get(rdd.id)
        assert block.in_serialized_tier
        assert not any(block.slabs[p] for p in range(len(block.slabs)))

    def test_persist_ser_level_routes_to_tier(self):
        ctx = small_context()
        rdd = ctx.parallelize(
            [(i, i) for i in range(6)], 2, 2 * MiB
        ).map(lambda r: r)
        rdd.persist(StorageLevel.MEMORY_ONLY_SER)
        rdd.count()
        assert ctx.block_manager.get(rdd.id).in_serialized_tier


# -- kill + recovery --------------------------------------------------------


class TestTierKillRecovery:
    def test_killed_tier_block_frees_native_and_recovers(self):
        ctx = small_context()
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        live_before = ctx.heap.native.live_bytes()
        assert live_before > 0
        killed = ctx.block_manager.kill(rdd.id)
        assert killed is not None
        assert ctx.heap.native.live_bytes() == 0
        assert ctx.block_manager.get(rdd.id) is None
        # Lineage recomputes and re-packs on next access.
        assert rdd.count() == 12
        block = ctx.block_manager.get(rdd.id)
        assert block is not None and block.in_serialized_tier
        assert ctx.heap.native.live_bytes() == live_before
        assert ctx.block_manager.killed_count == 1

    def test_unpersist_frees_native_bytes(self):
        ctx = small_context()
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        assert ctx.heap.native.live_bytes() > 0
        rdd.unpersist()
        assert ctx.heap.native.live_bytes() == 0

    def test_injected_block_kill_converges(self):
        def run(plan):
            config = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.01)
            return run_experiment(
                "KM",
                config,
                scale=0.01,
                workload_kwargs={
                    "iterations": 2,
                    "persist_level": StorageLevel.MEMORY_ONLY_SER,
                },
                keep_context=True,
                faults=plan,
            )

        faulted = run(FaultPlan(kills=[KillSpec("block", 1, 0)], seed=7))
        clean = run(None)
        assert action_checksums(faulted.action_results) == action_checksums(
            clean.action_results
        )


# -- trace stream -----------------------------------------------------------


class TestTierTracing:
    def test_strict_replay_reconstructs_native_bytes(self):
        ctx = small_context()
        session = TraceSession.attach_to_context(ctx)
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        rdd.count()
        # Mid-run: the replayed native live bytes match the heap.
        replayed = replay_events(session.events, strict=True)
        assert replayed.live_bytes.get("native", 0) == (
            ctx.heap.native.live_bytes()
        )
        assert ctx.heap.native.live_bytes() > 0
        rdd.unpersist()
        replayed = replay_events(session.events, strict=True)
        assert replayed.live_bytes.get("native", 0) == 0
        assert ctx.heap.native.live_bytes() == 0
        # And the full oracle (every space + pause list) closes.
        assert session.check() == []
        kinds = {e.kind for e in session.events}
        assert "serialize" in kinds
        assert "deserialize" in kinds

    def test_deserialize_charged_on_every_access(self):
        ctx = small_context()
        session = TraceSession.attach_to_context(ctx)
        rdd = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER)
        before = len([e for e in session.events if e.kind == "deserialize"])
        rdd.count()
        after = len([e for e in session.events if e.kind == "deserialize"])
        assert after - before == rdd.num_partitions


# -- TaggedStorageLevel edge cases -----------------------------------------


class TestTaggedStorageLevelEdges:
    def test_routing_predicate(self):
        assert routes_to_serialized_tier(StorageLevel.MEMORY_ONLY_SER)
        assert routes_to_serialized_tier(StorageLevel.OFF_HEAP)
        # Disk-capable serialised levels keep the spillable object form.
        assert not routes_to_serialized_tier(StorageLevel.MEMORY_AND_DISK_SER)
        assert not routes_to_serialized_tier(
            StorageLevel.MEMORY_AND_DISK_SER_2
        )
        assert not routes_to_serialized_tier(StorageLevel.MEMORY_ONLY)
        assert not routes_to_serialized_tier(StorageLevel.DISK_ONLY)

    def test_expand_forces_nvm_for_tier_levels(self):
        expanded = expand_level(StorageLevel.MEMORY_ONLY_SER, MemoryTag.DRAM)
        assert expanded.tag is MemoryTag.NVM
        assert expanded.name == "MEMORY_ONLY_SER_NVM"

    def test_untagged_name_is_bare_level(self):
        assert TaggedStorageLevel(StorageLevel.DISK_ONLY, None).name == (
            "DISK_ONLY"
        )


# -- static analysis placements --------------------------------------------


class TestPlacements:
    def test_three_way_placement_per_workload_variable(self):
        spec = build_workload("PR", scale=0.01, iterations=2)

        analysis = analyze_program(spec.program)
        assert analysis.placement_of("links") is Placement.DRAM_HEAP
        # contribs persists MEMORY_AND_DISK_SER: stays object-heap NVM.
        assert analysis.placement_of("contribs") is Placement.NVM_HEAP
        assert "contribs" in analysis.ser_candidates

    def test_ser_level_becomes_serialized_nvm_placement(self):
        spec = build_workload(
            "KM",
            scale=0.01,
            iterations=2,
            persist_level=StorageLevel.MEMORY_ONLY_SER,
        )
        analysis = analyze_program(spec.program)
        assert analysis.placement_of("points") is Placement.SERIALIZED_NVM


# -- read back as built ------------------------------------------------------

_SCALAR = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.booleans(),
)
_VALUE = st.one_of(
    _SCALAR,
    st.tuples(_SCALAR, _SCALAR),
    st.lists(_SCALAR, max_size=4),
)
#: The levels that route to the serialized tier.
_TIER_LEVELS = (StorageLevel.MEMORY_ONLY_SER, StorageLevel.OFF_HEAP)


def assert_read_as_built(make_rdd):
    """Persist the RDD ``make_rdd(ctx)`` builds at each serialized-tier
    level: every read returns the very partition object the data plane
    built for it, a record list or a column batch alike.

    Returns:
        The built partitions by index, per level.
    """
    built_per_level = []
    for level in _TIER_LEVELS:
        ctx = small_context()
        rdd = make_rdd(ctx)
        built = {}
        compute = type(rdd).compute_partition

        def recording(pidx, task, rdd=rdd, built=built):
            built[pidx] = part = compute(rdd, pidx, task)
            return part

        rdd.compute_partition = recording
        rdd.persist(level)
        rdd.count()
        assert ctx.block_manager.get(rdd.id).in_serialized_tier
        assert sorted(built) == list(range(rdd.num_partitions))
        for pidx, part in built.items():
            assert ctx.scheduler.get_records(rdd, pidx) is part
        built_per_level.append(built)
    return built_per_level


class TestRoundTrip:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        records=st.lists(st.tuples(_SCALAR, _VALUE), min_size=1, max_size=32),
        n_parts=st.integers(min_value=1, max_value=4),
    )
    def test_random_records_roundtrip_exactly(self, records, n_parts):
        assert_read_as_built(
            lambda ctx: ctx.parallelize(records, n_parts, 64 * len(records))
        )

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_workload_batch_roundtrips_bit_exactly(self, workload):
        records = build_workload(workload, scale=0.01).dataset.records
        for built in assert_read_as_built(
            lambda ctx: ctx.parallelize(records, 4, 64 * len(records))
        ):
            assert sum(len(part) for part in built.values()) == len(records)


# -- column-batch adoption --------------------------------------------------


def _column_schemas(np):
    """One batch per column schema the data plane builds."""
    from repro.spark import columnar as col

    ids = np.asarray([3, -1, 3, 2**62], dtype=np.int64)
    floats = np.asarray([0.5, -0.0, 1e300, 2.0], dtype=np.float64)
    mat = np.asarray([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]])
    counts = np.asarray([1, 2, 3, 4], dtype=np.int64)
    lists = col.ListColumn(
        np.asarray([0, 2, 2, 3, 5], dtype=np.int64),
        np.asarray([7, 8, 9, 10, 11], dtype=np.int64),
    )
    scalar = col.ScalarColumn
    vec_count = col.PairColumn(col.VecColumn(mat), scalar(counts))
    return {
        "scalar": col.ColumnBatch(scalar(ids), scalar(floats)),
        "vec": col.ColumnBatch(scalar(ids), col.VecColumn(mat)),
        "vec-count": col.ColumnBatch(scalar(ids), vec_count),
        "const-key": col.ColumnBatch(col.ConstColumn("grad", 4), vec_count),
        "csr-list": col.ColumnBatch(scalar(ids), lists),
        "graph-rows": col.ColumnBatch(
            scalar(ids), col.PairColumn(scalar(floats), lists)
        ),
        "tuple-key": col.ColumnBatch(
            col.PairColumn(scalar(ids), scalar(counts)), col.ConstColumn(None, 4)
        ),
        "singleton-slots": col.ColumnBatch(
            scalar(ids),
            col.PairColumn(
                col.SingletonColumn(scalar(counts)), col.SingletonColumn(scalar(floats))
            ),
        ),
        "csr-slots": col.ColumnBatch(scalar(ids), col.PairColumn(lists, lists)),
    }


_SCHEMA_NAMES = (
    "scalar",
    "vec",
    "vec-count",
    "const-key",
    "csr-list",
    "graph-rows",
    "tuple-key",
    "singleton-slots",
    "csr-slots",
)


class TestBatchAdoption:
    """The tier holds a column batch of any schema by reference and
    reads it back as that batch."""

    @pytest.mark.parametrize("schema", _SCHEMA_NAMES)
    def test_every_column_schema_is_adopted(self, schema):
        np = pytest.importorskip("numpy")
        batch = _column_schemas(np)[schema]

        def source(ctx):
            rdd = ctx.parallelize([(i, i) for i in range(len(batch))], 1, MiB)
            # The source serves its partition as this batch.
            rdd._partitions[0] = batch
            return rdd

        for built in assert_read_as_built(source):
            assert built == {0: batch}

    def test_ser_persist_keeps_vector_batches_columnar(self):
        """A MEMORY_ONLY_SER persist of K-Means-shaped rows reads back as
        the same vector batch, not as pickled tuples."""
        pytest.importorskip("numpy")
        from repro.spark import columnar as _columnar

        def same(record):
            return record

        _columnar.register_map_kernel(same, _columnar.identity_kernel)
        ctx = small_context(PolicyName.PANTHERA)
        records = [(i % 5, (0.5 * i, -1.0 * i)) for i in range(40)]
        source = ctx.parallelize(records, 2, 2**20, name="ser-vec")
        persisted = source.map(same).persist(StorageLevel.MEMORY_ONLY_SER)
        assert persisted.count() == 40
        block = ctx.block_manager.get(persisted.id)
        assert block.ser_batches is not None
        read = ctx.scheduler.get_records(persisted, 0)
        assert isinstance(read, _columnar.ColumnBatch)
        assert type(read.values) is _columnar.VecColumn
        assert read.to_records() == list(source._partitions[0])

