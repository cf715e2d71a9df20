"""Major-collection tests: sweep, compaction boundaries, dense prefix,
dynamic migration and monitor reset (§4.2.2)."""


from repro.config import DENSE_PREFIX_WASTE, MiB, PolicyName
from repro.core.tags import MemoryTag
from repro.heap.object_model import ObjKind
from tests.conftest import make_stack


def rooted(stack, size=1024, kind=ObjKind.DATA):
    obj = stack.heap.new_object(kind, size)
    stack.heap.add_root(obj)
    return obj


class TestSweep:
    def test_dead_old_objects_reclaimed(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)  # unrooted: garbage
        space = array.space.owner
        used_before = space.used
        panthera_stack.collector.collect_major()
        assert array not in space.objects
        assert space.used < used_before

    def test_live_old_objects_survive(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        heap.add_root(array)
        panthera_stack.collector.collect_major()
        assert array in array.space.owner.objects

    def test_dead_arrays_unregistered_from_card_table(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        panthera_stack.collector.collect_major()
        assert not heap.card_table.is_registered(array)

    def test_young_survivors_all_tenured(self, panthera_stack):
        obj = rooted(panthera_stack)
        panthera_stack.collector.collect_major()
        assert panthera_stack.heap.in_old(obj)

    def test_cards_cleared(self, dram_stack):
        heap = dram_stack.heap
        array = heap.allocate_rdd_array(2 * MiB + 7, rdd_id=1)
        heap.add_root(array)
        slab = heap.new_object(ObjKind.DATA, 256)
        heap.write_ref(array, slab)
        dram_stack.collector.collect_major()
        fresh, stuck = heap.card_table.scan_plan()
        assert not fresh and not stuck

    def test_major_stats_recorded(self, panthera_stack):
        panthera_stack.collector.collect_major()
        stats = panthera_stack.collector.stats
        assert stats.major_count == 1
        assert stats.major_ns > 0


class TestCompaction:
    def test_compaction_never_crosses_device_boundary(self):
        # Migration off so only compaction could move objects.
        stack = make_stack(PolicyName.PANTHERA, dynamic_migration=False)
        heap = stack.heap
        live = []
        for i in range(6):
            heap.tag_wait.arm(MemoryTag.NVM if i % 2 else MemoryTag.DRAM)
            array = heap.allocate_rdd_array(MiB, rdd_id=i)
            if i % 3 != 0:
                heap.add_root(array)
                live.append((array, array.space.name))
        stack.collector.collect_major()
        for array, original_space in live:
            assert array.space.name == original_space

    def test_sliding_preserves_address_order(self, dram_stack):
        heap = dram_stack.heap
        arrays = [heap.allocate_rdd_array(MiB, rdd_id=i) for i in range(5)]
        for array in arrays[::2]:
            heap.add_root(array)
        dram_stack.collector.collect_major()
        survivors = [a for a in arrays if heap.in_old(a)]
        addrs = [a.addr for a in survivors]
        assert addrs == sorted(addrs)

    def test_dense_prefix_leaves_stable_bottom_unmoved(self, dram_stack):
        heap = dram_stack.heap
        stable = heap.allocate_rdd_array(4 * MiB, rdd_id=1)
        heap.add_root(stable)
        addr_before = stable.addr
        # Garbage above the stable object.
        heap.allocate_rdd_array(4 * MiB, rdd_id=2)
        dram_stack.collector.collect_major()
        assert stable.addr == addr_before

    def test_objects_above_large_gaps_slide_down(self, dram_stack):
        heap = dram_stack.heap
        garbage = heap.allocate_rdd_array(
            int(heap.old_spaces[0].size * DENSE_PREFIX_WASTE * 3),
            rdd_id=1,
        )
        mover = heap.allocate_rdd_array(MiB, rdd_id=2)
        heap.add_root(mover)
        addr_before = mover.addr
        dram_stack.collector.collect_major()
        assert mover.addr < addr_before
        assert dram_stack.collector.stats.compacted_bytes >= mover.size

    def test_panthera_compaction_keeps_arrays_padded(self, panthera_stack):
        heap = panthera_stack.heap
        garbage = heap.allocate_rdd_array(
            int(heap.old_space_named("old-nvm").size * DENSE_PREFIX_WASTE * 3)
            + 13,
            rdd_id=1,
        )
        mover = heap.allocate_rdd_array(MiB + 13, rdd_id=2)
        heap.add_root(mover)
        panthera_stack.collector.collect_major()
        assert mover.padded


class TestDynamicMigration:
    def _materialized_array(self, stack, tag, rdd_id, size=MiB):
        heap = stack.heap
        heap.tag_wait.arm(tag)
        array = heap.allocate_rdd_array(size, rdd_id=rdd_id)
        heap.add_root(array)
        # Migration only re-assesses arrays that survived a major cycle,
        # and coldness needs a long-enough monitoring window.
        array.age = 1
        stack.collector.minors_since_major = 10
        return array

    def test_cold_dram_array_migrates_to_nvm(self, panthera_stack):
        array = self._materialized_array(panthera_stack, MemoryTag.DRAM, rdd_id=7)
        assert array.space.name == "old-dram"
        # Zero monitored calls this cycle -> cold.
        panthera_stack.collector.collect_major()
        assert array.space.name == "old-nvm"
        assert 7 in panthera_stack.collector.stats.migrated_rdd_ids

    def test_hot_nvm_array_migrates_to_dram(self, panthera_stack):
        array = self._materialized_array(panthera_stack, MemoryTag.NVM, rdd_id=8)
        for _ in range(5):
            panthera_stack.monitor.record_call(8)
        panthera_stack.collector.collect_major()
        assert array.space.name == "old-dram"

    def test_warm_arrays_stay_put(self, panthera_stack):
        array = self._materialized_array(panthera_stack, MemoryTag.NVM, rdd_id=9)
        panthera_stack.monitor.record_call(9)  # 1 call < hot threshold
        panthera_stack.collector.collect_major()
        assert array.space.name == "old-nvm"

    def test_migration_disabled_by_config(self):
        stack = make_stack(PolicyName.PANTHERA, dynamic_migration=False)
        heap = stack.heap
        heap.tag_wait.arm(MemoryTag.DRAM)
        array = heap.allocate_rdd_array(MiB, rdd_id=3)
        heap.add_root(array)
        stack.collector.collect_major()
        assert array.space.name == "old-dram"

    def test_reachable_data_objects_move_with_array(self, panthera_stack):
        heap = panthera_stack.heap
        array = self._materialized_array(panthera_stack, MemoryTag.DRAM, rdd_id=11)
        slab = heap.new_object(ObjKind.DATA, 64 * 1024)
        heap.write_ref(array, slab)
        panthera_stack.collector.collect_minor()  # slab tag-propagated + promoted
        assert slab.space.name == "old-dram"
        panthera_stack.collector.collect_major()  # cold -> both move to NVM
        assert array.space.name == "old-nvm"
        assert slab.space.name == "old-nvm"

    def test_monitor_reset_after_major(self, panthera_stack):
        panthera_stack.monitor.record_call(42)
        panthera_stack.collector.collect_major()
        assert panthera_stack.monitor.call_count(42) == 0
        assert panthera_stack.monitor.total_calls == 1  # lifetime kept (Table 5)

    def test_kingsguard_writes_migrates_write_hot(self):
        stack = make_stack(PolicyName.KINGSGUARD_WRITES)
        heap = stack.heap
        array = heap.allocate_rdd_array(MiB, rdd_id=1)
        heap.add_root(array)
        assert array.space.name == "old"
        array.write_count = 10
        stack.collector.collect_major()
        assert array.space.name == "old-dram"

    def test_write_counts_reset_after_major(self):
        stack = make_stack(PolicyName.KINGSGUARD_WRITES)
        heap = stack.heap
        array = heap.allocate_rdd_array(MiB, rdd_id=1)
        heap.add_root(array)
        array.write_count = 1  # below threshold: stays, but counter resets
        stack.collector.collect_major()
        assert array.write_count == 0


class TestPromotionGuarantee:
    def test_minor_triggers_major_when_old_tight(self, panthera_stack):
        heap = panthera_stack.heap
        # Fill most of each old space with garbage arrays.
        for i, space in enumerate(heap.old_spaces):
            heap.tag_wait.arm(
                MemoryTag.DRAM if space.name == "old-dram" else MemoryTag.NVM
            )
            heap.allocate_rdd_array(int(space.free * 0.99) - 1024, rdd_id=i + 1)
        # Large survivable young object.
        obj = rooted(panthera_stack, size=heap.eden.size // 2)
        panthera_stack.collector.collect_minor()
        assert panthera_stack.collector.stats.major_count >= 1
        assert obj.space is not None
