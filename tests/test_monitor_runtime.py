"""Tests for the access monitor (§4.2.2, §5.5) and runtime API (§4.3)."""

from dataclasses import astuple

from repro.config import MiB
from repro.core.monitor import AccessMonitor
from repro.core.tags import MEMORY_BITS_NVM, MemoryTag
from repro.heap.object_model import ObjKind
from repro.memory.machine import Machine
from tests.conftest import small_config


def _monitor():
    return AccessMonitor(Machine(small_config()))


class TestAccessMonitor:
    def test_counts_per_rdd(self):
        monitor = _monitor()
        monitor.record_call(1)
        monitor.record_call(1)
        monitor.record_call(2)
        assert monitor.call_count(1) == 2
        assert monitor.call_count(2) == 1
        assert monitor.call_count(3) == 0

    def test_reset_clears_cycle_but_keeps_lifetime(self):
        monitor = _monitor()
        for _ in range(5):
            monitor.record_call(7)
        monitor.reset()
        assert monitor.call_count(7) == 0
        assert monitor.total_calls == 5

    def test_overhead_charged_to_machine(self, panthera_stack):
        machine = panthera_stack.machine
        machine.bandwidth.settle()
        before = machine.clock.now_ns
        counters = [astuple(dev.counters) for dev in machine.devices.values()]
        panthera_stack.monitor.record_call(1)
        assert machine.clock.now_ns == before + AccessMonitor.JNI_CALL_NS
        # A pure-CPU charge: no device traffic, no bandwidth deposit.
        assert [astuple(dev.counters) for dev in machine.devices.values()] == counters
        assert machine.bandwidth.pending == 0

    def test_overhead_is_lightweight(self):
        # §5.5: monitoring overhead below 1 % — a 300-call PageRank run
        # costs microseconds against a multi-minute execution.
        monitor = _monitor()
        for _ in range(300):
            monitor.record_call(1)
        assert monitor.overhead_ns < 1e6

    def test_snapshot_is_a_copy(self):
        monitor = _monitor()
        monitor.record_call(1)
        snap = monitor.snapshot()
        snap[1] = 99
        assert monitor.call_count(1) == 1


class TestRuntimeApi:
    def test_rdd_alloc_stamps_bits_and_arms(self, panthera_stack):
        heap = panthera_stack.heap
        top = heap.new_object(ObjKind.RDD_TOP, 64)
        panthera_stack.runtime.rdd_alloc(top, MemoryTag.NVM)
        assert top.memory_bits == MEMORY_BITS_NVM
        assert heap.tag_wait.armed
        assert heap.tag_wait.pending_tag is MemoryTag.NVM

    def test_rdd_alloc_with_none_tag(self, panthera_stack):
        heap = panthera_stack.heap
        top = heap.new_object(ObjKind.RDD_TOP, 64)
        panthera_stack.runtime.rdd_alloc(top, None)
        assert top.memory_bits == 0
        assert heap.tag_wait.armed

    def test_place_array_api(self, panthera_stack):
        """§4.3 API 1: pre-tenure a data structure by tag (the Hadoop
        HashJoin in-memory table example)."""
        array = panthera_stack.runtime.place_array(
            2 * MiB, MemoryTag.DRAM, owner_id=99
        )
        assert array.space.name == "old-dram"
        assert array.rdd_id == 99

    def test_track_api(self, panthera_stack):
        """§4.3 API 2: dynamic monitoring of a data structure."""
        runtime = panthera_stack.runtime
        runtime.track(55)
        assert runtime.is_tracked(55)
        runtime.record_call(55)
        assert panthera_stack.monitor.call_count(55) == 1

    def test_tracked_structure_migrated_by_major_gc(self, panthera_stack):
        """End-to-end §4.3 flow: track, accumulate calls, migrate."""
        runtime = panthera_stack.runtime
        array = runtime.place_array(MiB, MemoryTag.NVM, owner_id=77)
        panthera_stack.heap.add_root(array)
        array.age = 1  # survived a prior major cycle
        runtime.track(77)
        for _ in range(4):
            runtime.record_call(77)
        panthera_stack.collector.collect_major()
        assert array.space.name == "old-dram"
