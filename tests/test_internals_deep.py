"""Deep-dive tests on scheduler and collector internals."""

import pytest

from repro.config import DeviceKind, MiB, PolicyName
from repro.core.tags import MemoryTag
from repro.heap.object_model import ObjKind
from repro.spark.rdd import ShuffledRDD
from repro.spark.storage import StorageLevel
from tests.conftest import make_stack, small_context


@pytest.fixture
def ctx():
    return small_context()


def parallelize(ctx, n=12, partitions=3, name="src"):
    return ctx.parallelize([(i % 4, i) for i in range(n)], partitions, 2 * MiB, name=name)


class TestSchedulerInternals:
    def test_lazy_shuffle_map_runs_on_demand(self, ctx):
        reduced = parallelize(ctx).reduce_by_key(lambda a, b: a + b)
        dep = reduced.shuffle_dep
        assert not ctx.shuffles.has(dep.shuffle_id)
        ctx.scheduler._push_scope()
        try:
            records = ctx.scheduler.fetch_shuffle(dep, 0)
        finally:
            ctx.scheduler._pop_scope()
        assert ctx.shuffles.has(dep.shuffle_id)
        assert isinstance(records, list)

    def test_ensure_upstream_skips_cached_subgraphs(self, ctx):
        base = parallelize(ctx)
        cached = base.group_by_key().map_values(len)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        upstream_id = cached.deps[0].parent.shuffle_dep.shuffle_id \
            if isinstance(cached.deps[0].parent, ShuffledRDD) else None
        # Build a NEW downstream over the cached RDD with a fresh shuffle.
        downstream = cached.group_by_key()
        downstream.count()
        # The upstream shuffle was not re-run (it was written exactly once).
        assert upstream_id is None or ctx.shuffles.has(upstream_id)

    def test_scope_nesting_balances(self, ctx):
        scheduler = ctx.scheduler
        depth_before = len(scheduler._scopes)
        nested = (
            parallelize(ctx)
            .reduce_by_key(lambda a, b: a + b)
            .map_values(lambda v: v)
            .group_by_key()
        )
        nested.count()
        assert len(scheduler._scopes) == depth_before
        assert not scheduler._transients

    def test_runtime_tags_populated_only_under_panthera(self):
        for policy, expect in (
            (PolicyName.PANTHERA, True),
            (PolicyName.UNMANAGED, False),
        ):
            ctx = small_context(policy)
            cached = parallelize(ctx).map(lambda r: r)
            cached.persist(StorageLevel.MEMORY_ONLY)
            cached.memory_tag = MemoryTag.DRAM
            cached.count()
            assert bool(ctx.scheduler.runtime_tags) == expect, policy

    def test_active_transient_bytes_tracked(self, ctx):
        scheduler = ctx.scheduler
        reduced = parallelize(ctx).reduce_by_key(lambda a, b: a + b)
        seen = []

        original = scheduler._materialize_shuffled

        def spy(rdd):
            block = original(rdd)
            seen.append(scheduler._active_transient_bytes())
            return block

        scheduler._materialize_shuffled = spy
        reduced.map_values(lambda v: v).count()
        assert seen and seen[0] > 0


class TestMinorGCInternals:
    def test_survivor_flip_is_clean(self, panthera_stack):
        heap = panthera_stack.heap
        obj = heap.new_object(ObjKind.DATA, 1024)
        heap.add_root(obj)
        panthera_stack.collector.collect_minor()
        assert heap.survivor_from.holds(obj)  # post-flip naming
        assert heap.survivor_to.used == 0

    def test_young_device_is_always_dram(self, panthera_stack):
        for space in panthera_stack.heap.young_spaces:
            assert space.device is DeviceKind.DRAM

    def test_minor_gc_charges_the_machine(self, panthera_stack):
        heap = panthera_stack.heap
        obj = heap.new_object(ObjKind.DATA, 2 * MiB)
        heap.add_root(obj)
        before = panthera_stack.machine.clock.now_ns
        panthera_stack.collector.collect_minor()
        assert panthera_stack.machine.clock.now_ns > before

    def test_eager_promotion_skips_survivor_copies(self):
        stock = make_stack(PolicyName.PANTHERA, eager_promotion=False)
        eager = make_stack(PolicyName.PANTHERA, eager_promotion=True)
        for stack in (stock, eager):
            obj = stack.heap.new_object(ObjKind.DATA, MiB)
            obj.set_tag(MemoryTag.NVM)
            stack.heap.add_root(obj)
            for _ in range(4):
                stack.collector.collect_minor()
        assert eager.collector.stats.copied_bytes < stock.collector.stats.copied_bytes

    def test_promoted_object_keeps_identity_and_refs(self, panthera_stack):
        heap = panthera_stack.heap
        holder = heap.new_object(ObjKind.DATA, 1024)
        target = heap.new_object(ObjKind.DATA, 512)
        heap.write_ref(holder, target)
        holder.set_tag(MemoryTag.NVM)
        target.set_tag(MemoryTag.NVM)
        heap.add_root(holder)
        panthera_stack.collector.collect_minor()
        assert heap.in_old(holder)
        assert holder.refs == [target]
        assert heap.in_old(target)


class TestMajorGCInternals:
    def test_sweep_keeps_indirectly_reachable(self, panthera_stack):
        heap = panthera_stack.heap
        top = heap.new_object(ObjKind.RDD_TOP, 64)
        heap.add_root(top)
        heap.tag_wait.arm(MemoryTag.NVM)
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        heap.write_ref(top, array)  # array reachable only through top
        panthera_stack.collector.collect_major()
        assert array in array.space.owner.objects

    def test_compaction_reclaims_bump_space(self, panthera_stack):
        heap = panthera_stack.heap
        space = heap.old_space_named("old-nvm")
        garbage = [heap.allocate_rdd_array(MiB, rdd_id=i) for i in range(4)]
        keeper = heap.allocate_rdd_array(MiB, rdd_id=9)
        heap.add_root(keeper)
        used_before = space.used
        panthera_stack.collector.collect_major()
        assert space.used < used_before

    def test_gc_log_ordering_matches_pause_records(self, panthera_stack):
        collector = panthera_stack.collector
        collector.collect_minor()
        collector.collect_major()
        collector.collect_minor()
        kinds = [k for k, _, _ in collector.stats.pauses]
        assert kinds == ["minor", "major", "minor"]
        starts = [s for _, s, _ in collector.stats.pauses]
        assert starts == sorted(starts)
