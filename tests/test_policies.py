"""Placement-policy tests: Table 1's allocation rules per configuration."""

import pytest

from repro.config import DeviceKind, MiB, PolicyName
from repro.core.tags import MemoryTag
from repro.errors import ConfigError
from repro.gc.policies import HOT_CALL_THRESHOLD, make_policy
from repro.heap.object_model import HeapObject, ObjKind
from tests.conftest import make_stack, small_config


class TestFactory:
    @pytest.mark.parametrize("policy", list(PolicyName))
    def test_make_policy_covers_all(self, policy):
        built = make_policy(small_config(policy))
        assert built.name is policy

    def test_only_panthera_pads(self):
        for policy in PolicyName:
            built = make_policy(small_config(policy))
            assert built.card_padding == (policy is PolicyName.PANTHERA)


class TestDramOnly:
    def test_old_space_is_dram(self, dram_stack):
        space = dram_stack.heap.old_space_named("old")
        assert space.device is DeviceKind.DRAM
        assert space.size == dram_stack.config.old_gen_bytes


class TestUnmanaged:
    def test_chunk_probability_conserves_dram(self, unmanaged_stack):
        config = unmanaged_stack.config
        space = unmanaged_stack.heap.old_space_named("old")
        expected = config.old_dram_bytes / config.old_gen_bytes
        assert abs(space.chunk_map.dram_fraction() - expected) < 0.25

    def test_same_seed_same_layout(self):
        a = make_stack(PolicyName.UNMANAGED)
        b = make_stack(PolicyName.UNMANAGED)
        ca = a.heap.old_space_named("old").chunk_map
        cb = b.heap.old_space_named("old").chunk_map
        base = ca.base
        for offset in range(0, ca.size, ca.chunk_bytes):
            assert ca.device_of(base + offset) == cb.device_of(base + offset)


class TestPantheraPlacement:
    """Table 1's Initial Space column."""

    def test_nvm_tagged_array_to_nvm(self, panthera_stack):
        space = panthera_stack.policy.array_allocation_space(
            panthera_stack.heap, MemoryTag.NVM, MiB
        )
        assert space.name == "old-nvm"

    def test_dram_tagged_array_to_dram_component(self, panthera_stack):
        space = panthera_stack.policy.array_allocation_space(
            panthera_stack.heap, MemoryTag.DRAM, MiB
        )
        assert space.name == "old-dram"

    def test_dram_tag_with_full_dram_goes_nvm(self, panthera_stack):
        heap = panthera_stack.heap
        old_dram = heap.old_space_named("old-dram")
        old_dram.top = old_dram.end  # exhaust it
        space = panthera_stack.policy.array_allocation_space(
            heap, MemoryTag.DRAM, MiB
        )
        assert space.name == "old-nvm"

    def test_untagged_array_to_nvm(self, panthera_stack):
        space = panthera_stack.policy.array_allocation_space(
            panthera_stack.heap, None, MiB
        )
        assert space.name == "old-nvm"

    def test_untagged_promotion_to_nvm(self, panthera_stack):
        obj = HeapObject(ObjKind.DATA, 64)
        space = panthera_stack.policy.promotion_space(panthera_stack.heap, obj)
        assert space.name == "old-nvm"

    def test_dram_bits_promotion_to_dram(self, panthera_stack):
        obj = HeapObject(ObjKind.DATA, 64)
        obj.set_tag(MemoryTag.DRAM)
        space = panthera_stack.policy.promotion_space(panthera_stack.heap, obj)
        assert space.name == "old-dram"

    def test_eager_space_none_for_untagged(self, panthera_stack):
        obj = HeapObject(ObjKind.DATA, 64)
        assert (
            panthera_stack.policy.eager_promotion_space(panthera_stack.heap, obj)
            is None
        )


class TestKingsguard:
    def test_kn_everything_to_nvm(self):
        stack = make_stack(PolicyName.KINGSGUARD_NURSERY)
        space = stack.policy.array_allocation_space(stack.heap, None, MiB)
        assert space.device is DeviceKind.NVM

    def test_kw_has_write_barrier_cost(self):
        stack = make_stack(PolicyName.KINGSGUARD_WRITES)
        assert stack.policy.mutator_write_barrier_ns() > 0

    def test_others_have_no_barrier_cost(self, panthera_stack, dram_stack):
        assert panthera_stack.policy.mutator_write_barrier_ns() == 0
        assert dram_stack.policy.mutator_write_barrier_ns() == 0

    def test_kw_migration_respects_dram_budget(self):
        stack = make_stack(PolicyName.KINGSGUARD_WRITES)
        heap = stack.heap
        old_dram = heap.old_space_named("old-dram")
        arrays = []
        for i in range(4):
            array = heap.allocate_rdd_array(old_dram.size, rdd_id=i)
            array.write_count = 100
            heap.add_root(array)
            arrays.append(array)
        moves = stack.policy.plan_migrations(heap, None)
        moved_bytes = sum(obj.size for obj, _ in moves)
        assert moved_bytes <= old_dram.free


class TestMigrationPlanning:
    def test_hot_threshold_exported(self):
        assert HOT_CALL_THRESHOLD >= 2

    def test_plan_empty_without_monitor(self, panthera_stack):
        assert panthera_stack.policy.plan_migrations(panthera_stack.heap, None) == []

    def test_hot_nvm_migration_respects_dram_space(self, panthera_stack):
        heap = panthera_stack.heap
        old_dram = heap.old_space_named("old-dram")
        heap.tag_wait.arm(MemoryTag.NVM)
        big = heap.allocate_rdd_array(old_dram.size * 2, rdd_id=5)
        heap.add_root(big)
        for _ in range(HOT_CALL_THRESHOLD + 1):
            panthera_stack.monitor.record_call(5)
        moves = panthera_stack.policy.plan_migrations(
            heap, panthera_stack.monitor
        )
        # Too big for the DRAM component: must not be planned.
        assert all(obj is not big for obj, _ in moves)

    def test_unknown_policy_rejected(self):
        config = small_config()
        object.__setattr__(config, "policy", "bogus")
        with pytest.raises((ConfigError, KeyError, TypeError)):
            make_policy(config)


class _BrokenSpace:
    """An old space whose lookup fails with a bug, not a HeapError."""

    @property
    def name(self):
        raise RuntimeError("broken space")


class TestOldDramLookup:
    """A layout without ``old-dram`` is a typed miss; any other failure
    of the lookup propagates instead of reading as "no DRAM"."""

    def _stack(self, policy, other_space, broken):
        stack = make_stack(policy)
        heap = stack.heap
        heap.old_spaces = [heap.old_space_named(other_space)]
        if broken:
            heap.old_spaces.append(_BrokenSpace())
        return stack

    def test_panthera_without_old_dram_falls_back_to_nvm(self):
        stack = self._stack(PolicyName.PANTHERA, "old-nvm", broken=False)
        space = stack.policy.array_allocation_space(stack.heap, MemoryTag.DRAM, 64)
        assert space.name == "old-nvm"

    def test_panthera_lookup_bug_propagates(self):
        stack = self._stack(PolicyName.PANTHERA, "old-nvm", broken=True)
        with pytest.raises(RuntimeError, match="broken space"):
            stack.policy.array_allocation_space(stack.heap, MemoryTag.DRAM, 64)

    def test_kingsguard_writes_without_old_dram_plans_nothing(self):
        stack = self._stack(PolicyName.KINGSGUARD_WRITES, "old", broken=False)
        assert stack.policy.plan_migrations(stack.heap, stack.monitor) == []

    def test_kingsguard_writes_lookup_bug_propagates(self):
        stack = self._stack(PolicyName.KINGSGUARD_WRITES, "old", broken=True)
        with pytest.raises(RuntimeError, match="broken space"):
            stack.policy.plan_migrations(stack.heap, stack.monitor)
