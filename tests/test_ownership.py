"""Owners hold their members, and nothing points back to its owner
except through a weak reference on a rare path (DESIGN.md,
"Ownership").  So an owner frees by reference counting as soon as its
last outside reference drops, and a member read through its weak
reference after that raises :class:`~repro.errors.OwnerFreedError`.

Every test runs with CPython's cyclic collector paused: an owner is
gone only if reference counting freed it.
"""

import gc
import weakref

import pytest

from repro.config import DeviceKind, PolicyName
from repro.errors import OwnerFreedError
from repro.faults import FaultInjector, FaultPlan
from repro.gc.stats import GCStats
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.heap.object_model import HeapObject, ObjKind
from repro.heap.spaces import Space
from repro.memory.machine import Machine
from tests.conftest import make_stack, small_config, small_context

#: one DRAM read: a batch that moves bytes, so a settle has work to do
DRAM_READ = [(((DeviceKind.DRAM, 4096.0, 0.0, 0, 0),), 10.0)]


@pytest.fixture(autouse=True)
def cyclic_gc_paused():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def freed(ref: weakref.ref) -> bool:
    return ref() is None


#: every reader of a machine's charged state: state -> read
READERS = {
    "clock": lambda state: state["clock"].now_ns,
    "clock advance": lambda state: state["clock"].advance(1.0),
    "device counters": lambda state: state["dram"].counters,
    "bandwidth": lambda state: state["bandwidth"].pending,
    "gc stats": lambda state: state["stats"].minor_count,
}


class TestMachine:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_state_read_with_charges_queued_after_the_machine_is_freed(
        self, reader
    ):
        machine = Machine(small_config())
        stats = GCStats()
        machine.defer_reads(stats)
        machine.run_batch(DRAM_READ)
        state = {
            "clock": machine.clock,
            "dram": machine.devices[DeviceKind.DRAM],
            "bandwidth": machine.bandwidth,
            "stats": stats,
        }
        ref = weakref.ref(machine)
        del machine
        assert freed(ref)
        with pytest.raises(OwnerFreedError):
            READERS[reader](state)

    def test_settled_state_outlives_its_machine(self):
        machine = Machine(small_config())
        machine.run_batch(DRAM_READ)
        now = machine.clock.now_ns
        clock = machine.clock
        dram = machine.devices[DeviceKind.DRAM]
        ref = weakref.ref(machine)
        del machine
        assert freed(ref)
        assert clock.now_ns == now > 0
        assert dram.counters.read_bytes == 4096


class TestHeap:
    def test_allocation_needing_a_freed_collector(self):
        stack = make_stack(PolicyName.PANTHERA)
        heap = stack.heap
        ref = weakref.ref(stack.collector)
        del stack
        assert freed(ref)
        assert heap.collector is None
        with pytest.raises(OwnerFreedError):
            for _ in range(heap.eden.size // 4096 + 1):
                heap.new_object(ObjKind.DATA, 4096)

    def test_moving_an_object_out_of_a_freed_space(self):
        old = Space("old", 0, 4096, "old", device=DeviceKind.DRAM)
        new = Space("new", 4096, 4096, "old", device=DeviceKind.DRAM)
        obj = HeapObject(ObjKind.DATA, 64)
        assert old.place(obj)
        ref = weakref.ref(old)
        del old
        assert freed(ref)
        assert obj.space.name == "old"  # the extent outlives its space
        with pytest.raises(OwnerFreedError):
            new.place(obj)

    def test_a_heap_frees_with_its_objects(self):
        stack = make_stack(PolicyName.PANTHERA)
        obj = stack.heap.new_object(ObjKind.DATA, 4096)
        stack.heap.add_root(obj)
        stack.collector.collect_minor()
        refs = [weakref.ref(stack.heap), weakref.ref(stack.collector)]
        del stack
        assert obj.space.name in ("survivor-from", "survivor-to")
        assert all(freed(ref) for ref in refs)


class TestSparkContext:
    def test_rdd_used_after_its_context_is_freed(self):
        ctx = small_context()
        rdd = ctx.parallelize([(1, 2), (3, 4)], 2, 64.0)
        ref = weakref.ref(ctx)
        del ctx
        assert freed(ref)
        with pytest.raises(OwnerFreedError):
            rdd.count()
        with pytest.raises(OwnerFreedError):
            rdd.map(lambda r: r)

    def test_fault_report_after_its_context_is_freed(self):
        ctx = small_context()
        injector = FaultInjector.attach(FaultPlan(), ctx)
        ref = weakref.ref(ctx)
        del ctx
        assert freed(ref)
        with pytest.raises(OwnerFreedError):
            injector.report()

    def test_a_kept_context_frees_when_its_result_is_dropped(self):
        result = run_experiment(
            "PR",
            paper_config(64.0, 1 / 3, PolicyName.DECA, 0.01),
            scale=0.01,
            workload_kwargs={"iterations": 1},
            keep_context=True,
        )
        ctx = result.context
        assert ctx._rdds
        refs = [weakref.ref(o) for o in (ctx, ctx.machine, ctx.heap, ctx.collector)]
        del ctx, result
        assert all(freed(ref) for ref in refs)
