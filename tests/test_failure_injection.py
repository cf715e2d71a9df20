"""Failure-injection tests: the system fails loudly and precisely.

A memory-management simulator's error paths matter as much as its happy
paths: out-of-memory conditions, impossible configurations, and misuse
of the runtime APIs must raise typed, actionable errors — never corrupt
state or loop forever.
"""

import pytest

from repro.config import GiB, MiB, SystemConfig
from repro.core.tags import MemoryTag
from repro.errors import (
    ConfigError,
    GCError,
    HeapError,
    OutOfMemoryError,
    ReproError,
    SparkError,
)
from repro.heap.object_model import ObjKind
from repro.heap.verify import verify_heap
from repro.spark.storage import StorageLevel
from tests.conftest import small_config, small_context


class TestOutOfMemory:
    def test_unevictable_pressure_raises_oom(self):
        """MEMORY_ONLY blocks bigger than the whole old generation: the
        block manager evicts what it can, then the allocator reports OOM
        rather than thrashing."""
        ctx = small_context(heap_bytes=24 * MiB)
        huge = ctx.parallelize(
            [(i, i) for i in range(8)], 2, 64 * MiB, name="whale"
        ).map(lambda r: r)
        huge.persist(StorageLevel.MEMORY_ONLY)
        with pytest.raises((OutOfMemoryError, GCError)):
            huge.count()

    def test_array_larger_than_old_gen(self, panthera_stack):
        total_old = panthera_stack.heap.old_capacity_bytes()
        with pytest.raises(OutOfMemoryError):
            panthera_stack.heap.allocate_rdd_array(total_old * 2, rdd_id=1)

    def test_heap_still_consistent_after_oom(self, panthera_stack):
        total_old = panthera_stack.heap.old_capacity_bytes()
        with pytest.raises(OutOfMemoryError):
            panthera_stack.heap.allocate_rdd_array(total_old * 2, rdd_id=1)
        assert verify_heap(panthera_stack.heap) == []
        # And the heap keeps working afterwards.
        obj = panthera_stack.heap.new_object(ObjKind.DATA, 1024)
        assert obj.space is not None

    def test_rooted_young_exceeding_old_capacity(self, panthera_stack):
        """Rooted young data that cannot ever be tenured ends in a clean
        OOM from the allocation path, not a GC crash."""
        heap = panthera_stack.heap
        # Fill the old generation almost completely with live arrays.
        for i, space in enumerate(heap.old_spaces):
            heap.tag_wait.arm(
                MemoryTag.DRAM if space.name == "old-dram" else MemoryTag.NVM
            )
            array = heap.allocate_rdd_array(int(space.free) - 4096, rdd_id=i)
            heap.add_root(array)
        # Root more young data than the remaining old space can take.
        for _ in range(3):
            obj = heap.new_object(ObjKind.DATA, heap.eden.size // 4)
            heap.add_root(obj)
        with pytest.raises((OutOfMemoryError, GCError)):
            for _ in range(64):
                heap.allocate_ephemeral(heap.eden.size // 2)


class TestConfigFailures:
    def test_all_config_validations_raise_config_error(self):
        bad_configs = [
            dict(heap_bytes=0, dram_bytes=GiB, nvm_bytes=0),
            dict(heap_bytes=2 * GiB, dram_bytes=GiB, nvm_bytes=0),
            dict(heap_bytes=GiB, dram_bytes=-1, nvm_bytes=GiB),
            dict(heap_bytes=GiB, dram_bytes=GiB, nvm_bytes=0, nursery_fraction=0.0),
        ]
        for kwargs in bad_configs:
            with pytest.raises(ConfigError):
                SystemConfig(**kwargs)

    def test_nursery_bigger_than_dram(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                heap_bytes=GiB,
                dram_bytes=100 * MiB,
                nvm_bytes=GiB - 100 * MiB,
                nursery_fraction=0.9,
            )


class TestApiMisuse:
    def test_collector_required_before_allocation(self):
        from repro.gc.policies import make_policy
        from repro.heap.layout import HEAP_BASE, young_span_bytes
        from repro.heap.managed_heap import ManagedHeap
        from repro.memory.machine import Machine

        config = small_config()
        machine = Machine(config)
        policy = make_policy(config)
        heap = ManagedHeap(
            config,
            machine,
            policy.build_old_spaces(HEAP_BASE + young_span_bytes(config)),
            card_padding=True,
        )
        big = heap.eden.size  # force the GC path
        heap.allocate_ephemeral(big)
        with pytest.raises(HeapError):
            heap.allocate_ephemeral(big)

    def test_negative_sizes_rejected(self, panthera_stack):
        with pytest.raises(HeapError):
            panthera_stack.heap.allocate_ephemeral(-1)
        with pytest.raises(ValueError):
            from repro.heap.object_model import HeapObject

            HeapObject(ObjKind.DATA, -5)

    def test_empty_parallelize_rejected(self):
        ctx = small_context()
        with pytest.raises(SparkError):
            ctx.parallelize([], 2, MiB)

    def test_unknown_rdd_lookup_rejected(self):
        ctx = small_context()
        with pytest.raises(SparkError):
            ctx.rdd_by_id(99999)

    def test_exception_hierarchy_single_root(self):
        for exc in (ConfigError, HeapError, GCError, OutOfMemoryError, SparkError):
            assert issubclass(exc, ReproError)


class TestRecoveryPaths:
    def test_eviction_storm_preserves_results(self):
        """Sustained pressure forces repeated spill/drop/recompute; every
        answer must still be exact."""
        ctx = small_context(heap_bytes=24 * MiB)
        rdds = []
        for i in range(8):
            level = (
                StorageLevel.MEMORY_AND_DISK if i % 2 else StorageLevel.MEMORY_ONLY
            )
            rdd = ctx.parallelize(
                [(j, j * i) for j in range(6)], 2, 4 * MiB, name=f"wave{i}"
            ).map(lambda r: r)
            rdd.persist(level)
            rdd.count()
            rdds.append((i, rdd))
        assert ctx.block_manager.spilled_count + ctx.block_manager.dropped_count > 0
        for i, rdd in rdds:
            assert sorted(rdd.collect()) == [(j, j * i) for j in range(6)]
        assert verify_heap(ctx.heap) == []

    def test_unpersist_everything_still_computes(self):
        ctx = small_context()
        cached = ctx.parallelize([(1, 2)], 1, MiB, name="gone").map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        cached.count()
        cached.unpersist()
        ctx.collector.collect_major()
        assert cached.collect() == [(1, 2)]
