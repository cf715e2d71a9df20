"""Tests for take/first and checkpointing."""

import pytest

from repro.config import DeviceKind, MiB
from repro.errors import SparkError
from tests.conftest import small_context


@pytest.fixture
def ctx():
    return small_context()


def parallelize(ctx, n=12, partitions=4):
    return ctx.parallelize([(i, i) for i in range(n)], partitions, 2 * MiB, name="t")


class TestTake:
    def test_take_returns_n(self, ctx):
        rdd = parallelize(ctx)
        assert len(rdd.take(5)) == 5

    def test_take_more_than_available(self, ctx):
        rdd = parallelize(ctx, n=3)
        assert len(rdd.take(100)) == 3

    def test_take_zero(self, ctx):
        assert parallelize(ctx).take(0) == []

    def test_take_negative_rejected(self, ctx):
        with pytest.raises(SparkError):
            parallelize(ctx).take(-1)

    def test_take_skips_late_partitions(self, ctx):
        # A one-record take must not compute every partition.
        rdd = parallelize(ctx, n=100, partitions=10).map(lambda r: r)
        before = ctx.machine.clock.now_ns
        rdd.take(1)
        cost_take = ctx.machine.clock.now_ns - before
        before = ctx.machine.clock.now_ns
        rdd.collect()
        cost_collect = ctx.machine.clock.now_ns - before
        assert cost_take < cost_collect

    def test_first(self, ctx):
        rdd = parallelize(ctx)
        key, value = rdd.first()
        assert key == value

    def test_first_on_empty_rejected(self, ctx):
        empty = parallelize(ctx).filter(lambda r: False)
        with pytest.raises(SparkError):
            empty.first()


class TestCheckpoint:
    def test_checkpoint_serves_from_disk(self, ctx):
        rdd = parallelize(ctx).map(lambda r: (r[0], r[1] * 2))
        rdd.checkpoint()
        assert rdd.count() == 12
        block = ctx.block_manager.get(rdd.id)
        assert block is not None and block.on_disk

    def test_checkpoint_truncates_lineage(self, ctx):
        base = parallelize(ctx)
        mid = base.group_by_key()
        mid.checkpoint()
        tail = mid.map_values(len)
        tail.count()
        shuffle_reads_before = ctx.machine.devices[DeviceKind.DISK].counters.read_bytes
        tail.count()  # second action: served from the checkpoint
        # The upstream shuffle stage is skipped — the ensure pass finds
        # the checkpointed block and never traverses past it.
        stages_after = ctx.scheduler.transient_materializations
        tail.count()
        assert ctx.scheduler.transient_materializations == stages_after

    def test_checkpoint_results_unchanged(self, ctx):
        plain = parallelize(ctx, n=9).map(lambda r: r)
        boxed = parallelize(ctx, n=9).map(lambda r: r)
        boxed.checkpoint()
        assert sorted(plain.collect()) == sorted(boxed.collect())

