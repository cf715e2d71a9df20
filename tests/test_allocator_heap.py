"""Tests for the tag-wait allocation state (§4.2.1) and the managed heap."""

import pytest

from repro.config import DeviceKind, MiB, PolicyName
from repro.core.tags import MEMORY_BITS_DRAM, MEMORY_BITS_NVM, MemoryTag
from repro.errors import HeapError
from repro.heap.allocator import TagWaitState
from repro.heap.object_model import ObjKind
from tests.conftest import make_stack


class TestTagWaitState:
    def test_initially_disarmed(self):
        state = TagWaitState(1024)
        assert not state.armed
        assert state.consume_for_array(4096) is None

    def test_arm_then_large_array_consumes(self):
        state = TagWaitState(1024)
        state.arm(MemoryTag.NVM)
        assert state.armed
        assert state.consume_for_array(2048) is MemoryTag.NVM
        assert not state.armed  # reset after recognition (§4.2.1)

    def test_small_allocations_do_not_consume(self):
        state = TagWaitState(1024)
        state.arm(MemoryTag.DRAM)
        assert state.consume_for_array(100) is None
        assert state.armed  # still waiting for the RDD array

    def test_threshold_boundary(self):
        state = TagWaitState(1024)
        state.arm(MemoryTag.DRAM)
        assert state.consume_for_array(1024) is MemoryTag.DRAM

    def test_none_tag_still_arms_and_resets(self):
        state = TagWaitState(1024)
        state.arm(None)
        assert state.armed
        assert state.consume_for_array(4096) is None
        assert not state.armed

    def test_rearm_overwrites(self):
        state = TagWaitState(1024)
        state.arm(MemoryTag.NVM)
        state.arm(MemoryTag.DRAM)
        assert state.consume_for_array(4096) is MemoryTag.DRAM

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            TagWaitState(0)


class TestManagedHeapAllocation:
    def test_new_object_lands_in_eden(self, panthera_stack):
        heap = panthera_stack.heap
        obj = heap.new_object(ObjKind.DATA, 1024)
        assert heap.eden.holds(obj)
        assert heap.in_young(obj)

    def test_eden_full_triggers_minor_gc(self, panthera_stack):
        heap = panthera_stack.heap
        stats = panthera_stack.collector.stats
        total = 0
        while total <= heap.eden.size:
            heap.allocate_ephemeral(MiB)
            total += MiB
        assert stats.minor_count >= 1

    def test_oversized_ephemeral_rejected(self, panthera_stack):
        with pytest.raises(HeapError):
            panthera_stack.heap.allocate_ephemeral(
                panthera_stack.heap.eden.size + 1
            )

    def test_tagged_array_pretenured_to_nvm(self, panthera_stack):
        heap = panthera_stack.heap
        panthera_stack.runtime.rdd_alloc(
            heap.new_object(ObjKind.RDD_TOP, 64), MemoryTag.NVM
        )
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        assert array.space.name == "old-nvm"
        assert array.memory_bits == MEMORY_BITS_NVM

    def test_dram_tagged_array_goes_to_old_dram(self, panthera_stack):
        heap = panthera_stack.heap
        panthera_stack.runtime.rdd_alloc(
            heap.new_object(ObjKind.RDD_TOP, 64), MemoryTag.DRAM
        )
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        assert array.space.name == "old-dram"
        assert array.memory_bits == MEMORY_BITS_DRAM

    def test_dram_full_falls_back_to_nvm(self, panthera_stack):
        heap = panthera_stack.heap
        old_dram = heap.old_space_named("old-dram")
        filler_size = old_dram.free - MiB
        heap.tag_wait.arm(MemoryTag.DRAM)
        heap.allocate_rdd_array(filler_size, rdd_id=1)
        heap.tag_wait.arm(MemoryTag.DRAM)
        overflow = heap.allocate_rdd_array(4 * MiB, rdd_id=2)
        assert overflow.space.name == "old-nvm"

    def test_untagged_array_goes_to_nvm_under_panthera(self, panthera_stack):
        array = panthera_stack.heap.allocate_rdd_array(2 * MiB, rdd_id=3)
        assert array.space.name == "old-nvm"

    def test_small_untagged_array_starts_young(self, panthera_stack):
        # Table 1's NONE row: untagged objects start in the young gen;
        # only arrays above the recognition threshold pretenure.
        threshold = panthera_stack.config.large_array_threshold
        array = panthera_stack.heap.allocate_rdd_array(threshold // 2, rdd_id=3)
        assert panthera_stack.heap.in_young(array)

    def test_arrays_are_card_registered(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=4)
        assert heap.card_table.is_registered(array)

    def test_panthera_arrays_are_padded(self, panthera_stack):
        array = panthera_stack.heap.allocate_rdd_array(MiB + 7, rdd_id=5)
        assert array.padded

    def test_stock_arrays_are_not_padded(self, dram_stack):
        array = dram_stack.heap.allocate_rdd_array(MiB + 7, rdd_id=5)
        assert not array.padded

    def test_unmanaged_array_lands_in_chunked_old(self, unmanaged_stack):
        array = unmanaged_stack.heap.allocate_rdd_array(2 * MiB, rdd_id=6)
        assert array.space.name == "old"
        pieces = array.space.object_traffic(array)
        assert sum(n for _, n in pieces) == array.size


class TestWriteBarrier:
    def test_old_to_young_store_dirties_cards(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        slab = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, slab)
        fresh, _ = heap.card_table.scan_plan()
        assert array in fresh

    def test_young_to_young_store_does_not_dirty(self, panthera_stack):
        heap = panthera_stack.heap
        a = heap.new_object(ObjKind.DATA, 64)
        b = heap.new_object(ObjKind.DATA, 64)
        heap.write_ref(a, b)
        fresh, stuck = heap.card_table.scan_plan()
        assert not fresh and not stuck

    def test_write_counts_accumulate(self, panthera_stack):
        heap = panthera_stack.heap
        obj = heap.new_object(ObjKind.DATA, 64)
        for _ in range(3):
            heap.write_data(obj)
        assert obj.write_count == 3


class TestHeapQueries:
    def test_old_space_lookup(self, panthera_stack):
        heap = panthera_stack.heap
        assert heap.old_space_named("old-nvm").device is DeviceKind.NVM
        with pytest.raises(HeapError):
            heap.old_space_named("missing")

    def test_roots_registry(self, panthera_stack):
        heap = panthera_stack.heap
        obj = heap.new_object(ObjKind.CONTROL, 64)
        heap.add_root(obj)
        assert heap.is_root(obj)
        assert obj in list(heap.iter_roots())
        heap.remove_root(obj)
        assert not heap.is_root(obj)

    def test_describe_mentions_spaces(self, panthera_stack):
        text = panthera_stack.heap.describe()
        assert "eden" in text and "old-nvm" in text

    def test_policy_layouts(self):
        for policy, names in [
            (PolicyName.DRAM_ONLY, {"old"}),
            (PolicyName.UNMANAGED, {"old"}),
            (PolicyName.PANTHERA, {"old-dram", "old-nvm"}),
            (PolicyName.KINGSGUARD_NURSERY, {"old"}),
            (PolicyName.KINGSGUARD_WRITES, {"old-dram", "old"}),
        ]:
            stack = make_stack(policy)
            assert {s.name for s in stack.heap.old_spaces} == names
