"""Serialised in-memory storage levels: smaller footprint, CPU on read."""

import pytest

from repro.config import MiB
from repro.spark.costmodel import SER_FACTOR
from repro.spark.storage import StorageLevel
from tests.conftest import small_context


def cached_rdd(ctx, level, n=12, total_bytes=6 * MiB, name="ser-src"):
    rdd = ctx.parallelize(
        [(i, i) for i in range(n)], 3, total_bytes, name=name
    ).map(lambda r: r)
    rdd.persist(level)
    rdd.count()
    return rdd


class TestSerializedBlocks:
    def test_ser_block_is_smaller_in_heap(self):
        ctx = small_context()
        plain = cached_rdd(ctx, StorageLevel.MEMORY_ONLY, name="plain")
        ser = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER, name="ser")
        plain_block = ctx.block_manager.get(plain.id)
        ser_block = ctx.block_manager.get(ser.id)
        assert ser_block.serialized
        assert not plain_block.serialized
        assert ser_block.data_bytes < plain_block.data_bytes

    def test_ser_shrink_matches_ser_factor(self):
        ctx = small_context()
        plain = cached_rdd(ctx, StorageLevel.MEMORY_ONLY, name="plain2")
        ser = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER, name="ser2")
        ratio = (
            ctx.block_manager.get(ser.id).data_bytes
            / ctx.block_manager.get(plain.id).data_bytes
        )
        assert ratio == pytest.approx(SER_FACTOR, rel=0.05)

    def test_ser_read_pays_deserialization_cpu(self):
        plain_ctx = small_context()
        plain = cached_rdd(plain_ctx, StorageLevel.MEMORY_ONLY)
        before = plain_ctx.machine.clock.now_ns
        plain.count()
        plain_cost = plain_ctx.machine.clock.now_ns - before

        ser_ctx = small_context()
        ser = cached_rdd(ser_ctx, StorageLevel.MEMORY_ONLY_SER)
        before = ser_ctx.machine.clock.now_ns
        ser.count()
        ser_cost = ser_ctx.machine.clock.now_ns - before
        # Reads stream fewer bytes but pay CPU; net must differ from the
        # deserialised read, and the CPU term must make it non-trivial.
        assert ser_cost != plain_cost
        assert ser_cost > 0

    def test_ser_results_identical(self):
        ctx = small_context()
        plain = cached_rdd(ctx, StorageLevel.MEMORY_ONLY, name="a")
        ser = cached_rdd(ctx, StorageLevel.MEMORY_ONLY_SER, name="b")
        assert sorted(ctx.scheduler.run_action(plain, "collect")) == sorted(
            ctx.scheduler.run_action(ser, "collect")
        )

    def test_memory_and_disk_ser_spills_like_others(self):
        ctx = small_context(heap_bytes=24 * MiB)
        blocks = []
        for i in range(6):
            rdd = ctx.parallelize(
                [(j, j) for j in range(8)], 2, 4 * MiB, name=f"s{i}"
            ).map(lambda r: r)
            rdd.persist(StorageLevel.MEMORY_AND_DISK_SER)
            rdd.count()
            blocks.append(rdd)
        # Serialised blocks are half-size, so fewer (possibly zero)
        # spills than the deserialised test — but reads still work.
        for rdd in blocks:
            assert rdd.count() == 8
