"""Direct unit tests for the materialiser and the collector driver."""

import pytest

from repro.config import MiB
from repro.core.tags import MemoryTag
from repro.spark.materialize import Materializer
from tests.conftest import make_stack


class FakeRDD:
    """Just enough RDD surface for the materialiser."""

    def __init__(self, rdd_id=1, bytes_per_record=MiB):
        self.id = rdd_id
        self.bytes_per_record = bytes_per_record


def make_materializer(stack):
    return Materializer(stack.heap, stack.machine, stack.runtime)


class TestMaterializer:
    def test_block_shape(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        parts = [[(i, i)] * 3 for i in range(2)]
        block = materializer.materialize(FakeRDD(), parts, MemoryTag.NVM)
        assert len(block.arrays) == 2
        assert len(block.slabs) == 2
        assert block.data_bytes == pytest.approx(6 * MiB)
        assert panthera_stack.heap.is_root(block.top)

    def test_array_plus_slabs_cover_partition_bytes(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        block = materializer.materialize(FakeRDD(), [[(0, 0)] * 4], MemoryTag.NVM)
        covered = block.arrays[0].size + sum(s.size for s in block.slabs[0])
        assert covered == pytest.approx(4 * MiB, rel=0.01)

    def test_tagged_arrays_land_in_tagged_space(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        block = materializer.materialize(FakeRDD(), [[(0, 0)] * 2], MemoryTag.DRAM)
        assert block.arrays[0].space.name == "old-dram"

    def test_serialized_shrinks_footprint(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        plain = materializer.materialize(FakeRDD(1), [[(0, 0)] * 4], None)
        ser = materializer.materialize(
            FakeRDD(2), [[(0, 0)] * 4], None, serialized=True
        )
        assert ser.data_bytes < plain.data_bytes

    def test_release_unroots(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        block = materializer.materialize(FakeRDD(), [[(0, 0)]], None)
        materializer.release(block)
        assert not panthera_stack.heap.is_root(block.top)

    def test_partition_traffic_covers_all_bytes(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        block = materializer.materialize(FakeRDD(), [[(0, 0)] * 3], MemoryTag.NVM)
        pieces = block.partition_traffic(0)
        assert sum(n for _, n in pieces) == pytest.approx(3 * MiB, rel=0.01)

    def test_device_histogram_sums_to_block(self, panthera_stack):
        materializer = make_materializer(panthera_stack)
        block = materializer.materialize(FakeRDD(), [[(0, 0)] * 3], MemoryTag.DRAM)
        panthera_stack.collector.collect_minor()  # slabs promoted
        hist = block.device_histogram()
        total = sum(hist.values())
        # top + array + slabs
        assert total >= block.data_bytes * 0.9

    def test_no_runtime_means_untagged(self):
        stack = make_stack()
        materializer = Materializer(stack.heap, stack.machine, None)
        block = materializer.materialize(FakeRDD(), [[(0, 0)] * 2], MemoryTag.DRAM)
        # Without the Panthera runtime, the tag has no channel to travel.
        assert block.arrays[0].memory_bits == 0


class TestCollectorDriver:
    def test_minors_since_major_counter(self, panthera_stack):
        collector = panthera_stack.collector
        collector.collect_minor()
        collector.collect_minor()
        assert collector.minors_since_major == 2
        collector.collect_major()
        assert collector.minors_since_major == 0

    def test_old_free_bytes(self, panthera_stack):
        free_before = panthera_stack.collector.old_free_bytes()
        panthera_stack.heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        assert panthera_stack.collector.old_free_bytes() < free_before

    def test_stats_shared_with_heap_collector(self, panthera_stack):
        assert panthera_stack.heap.collector is panthera_stack.collector
