"""Scheduler + block manager integration: materialisation, transients,
spilling, dropping, recomputation."""

import pytest

from repro.config import MiB, PolicyName
from repro.spark.storage import StorageLevel
from tests.conftest import small_context


@pytest.fixture
def ctx():
    return small_context()


def parallelize(ctx, n=12, partitions=3, total_bytes=3 * MiB):
    return ctx.parallelize(
        [(i % 4, i) for i in range(n)], partitions, total_bytes, name="src"
    )


class TestPersistence:
    def test_persisted_rdd_materialized_once(self, ctx):
        cached = parallelize(ctx).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        block = ctx.block_manager.get(cached.id)
        assert block is not None
        top_before = block.top
        cached.count()
        assert ctx.block_manager.get(cached.id).top is top_before

    def test_block_structure_matches_figure1(self, ctx):
        cached = parallelize(ctx, partitions=3).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        block = ctx.block_manager.get(cached.id)
        assert len(block.arrays) == 3
        assert len(block.slabs) == 3
        assert block.top in list(ctx.heap.iter_roots())

    def test_block_bytes_match_records(self, ctx):
        cached = parallelize(ctx, n=12, total_bytes=3 * MiB).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        block = ctx.block_manager.get(cached.id)
        assert block.data_bytes == pytest.approx(3 * MiB, rel=0.01)

    def test_disk_only_block_served_from_disk(self, ctx):
        cached = parallelize(ctx).map(lambda r: r)
        cached.persist(StorageLevel.DISK_ONLY)
        assert cached.count() == 12
        block = ctx.block_manager.get(cached.id)
        assert block.on_disk
        assert cached.count() == 12  # reads back from disk

    def test_off_heap_block_lives_in_native_nvm(self, ctx):
        cached = parallelize(ctx).map(lambda r: r)
        cached.persist(StorageLevel.OFF_HEAP)
        cached.count()
        block = ctx.block_manager.get(cached.id)
        assert block.arrays
        for array in block.arrays:
            assert ctx.heap.native.holds(array)

    def test_unpersist_releases_root(self, ctx):
        cached = parallelize(ctx).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        top = ctx.block_manager.get(cached.id).top
        cached.unpersist()
        assert not ctx.heap.is_root(top)
        assert ctx.block_manager.get(cached.id) is None


class TestTransients:
    def test_shuffled_rdd_materialized_transiently(self, ctx):
        reduced = parallelize(ctx).reduce_by_key(lambda a, b: a + b)
        consumer = reduced.map_values(lambda v: v)
        consumer.count()
        assert ctx.scheduler.transient_materializations >= 1
        # After the action the transient scope closed: nothing lingers.
        assert not ctx.scheduler._transients

    def test_transient_objects_die_at_next_major(self, ctx):
        reduced = parallelize(ctx).reduce_by_key(lambda a, b: a + b)
        reduced.map_values(lambda v: v).count()
        live_before = sum(len(s.objects) for s in ctx.heap.old_spaces)
        ctx.collector.collect_major()
        live_after = sum(len(s.objects) for s in ctx.heap.old_spaces)
        assert live_after < live_before


class TestPressure:
    def small_heap_ctx(self):
        return small_context(heap_bytes=24 * MiB)

    def test_spill_under_pressure(self):
        ctx = self.small_heap_ctx()
        blocks = []
        for i in range(6):
            cached = ctx.parallelize(
                [(j, j) for j in range(8)], 2, 4 * MiB, name=f"b{i}"
            ).map(lambda r: r)
            cached.persist(StorageLevel.MEMORY_AND_DISK)
            cached.count()
            blocks.append(cached)
        assert ctx.block_manager.spilled_count >= 1
        # Spilled blocks still serve reads (from disk).
        assert blocks[0].count() == 8

    def test_drop_and_recompute_memory_only(self):
        ctx = self.small_heap_ctx()
        blocks = []
        for i in range(6):
            cached = ctx.parallelize(
                [(j, j) for j in range(8)], 2, 4 * MiB, name=f"b{i}"
            ).map(lambda r: r)
            cached.persist(StorageLevel.MEMORY_ONLY)
            cached.count()
            blocks.append(cached)
        assert ctx.block_manager.dropped_count >= 1
        for cached in blocks:
            assert cached.count() == 8  # recomputed through lineage

    def test_eviction_prefers_lru(self):
        ctx = self.small_heap_ctx()
        first = ctx.parallelize([(1, 1)], 1, 4 * MiB, name="old").map(lambda r: r)
        first.persist(StorageLevel.MEMORY_AND_DISK)
        first.count()
        hot = ctx.parallelize([(2, 2)], 1, 4 * MiB, name="hot").map(lambda r: r)
        hot.persist(StorageLevel.MEMORY_AND_DISK)
        for _ in range(3):
            hot.count()
        for i in range(4):
            filler = ctx.parallelize(
                [(j, j) for j in range(4)], 1, 4 * MiB, name=f"f{i}"
            ).map(lambda r: r)
            filler.persist(StorageLevel.MEMORY_AND_DISK)
            filler.count()
        first_block = ctx.block_manager.get(first.id)
        assert first_block is None or first_block.on_disk


class TestActionMaterialization:
    def test_action_target_with_tag_materializes_transiently(self):
        from repro.core.tags import MemoryTag

        ctx = small_context()
        rdd = parallelize(ctx).map(lambda r: r)
        rdd.memory_tag = MemoryTag.NVM
        before = ctx.scheduler.transient_materializations
        rdd.count()
        # The paper's action materialisation point built a structure.
        # (It is released at the end of the action scope.)
        assert not ctx.scheduler._transients

    def test_non_panthera_policy_never_tags(self):
        ctx = small_context(PolicyName.UNMANAGED)
        cached = parallelize(ctx).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        block = ctx.block_manager.get(cached.id)
        for array in block.arrays:
            assert array.memory_bits == 0
