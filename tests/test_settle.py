"""Deferred charging: ``Machine.run_batch`` queues a series and the
machine settles the queue before any reader of charged state.

The property below interleaves random series with random reads and
checks every read against an eager reference, a machine that settles
after each call.  A step may queue several calls back to back, each one
recorded collection or one mutator series.  It runs with and without
numpy (the bandwidth tracker's settle) and with an NVM throttle
installed."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DeviceKind, PolicyName
from repro.gc.stats import GCStats
from repro.heap.object_model import ObjKind
from repro.heap.verify import verify_heap
from repro.memory import bandwidth as bandwidth_module
from repro.memory import machine as machine_module
from repro.memory.clock import SettlesFirst
from repro.memory.machine import Machine
from repro.trace import TraceSession
from tests.conftest import make_stack, small_config


class _Scale:
    """An NVM throttle: stretches each NVM row by ``factor`` and records
    the start it saw."""

    def __init__(self, factor):
        self.factor = factor
        self.starts = []

    def apply(self, start_ns, device_ns):
        self.starts.append(start_ns)
        return device_ns * self.factor


_CPU = st.sampled_from([0.0, 5e-324, 1.0, 750.5, 1234.5678, 2.5e9, math.nan])
_BYTES = st.sampled_from([0.0, 0, 64, 4096.0, 12345.678, 3e6, 24e9])
_COUNT = st.sampled_from([0, 1, 40, 1000])
_ROW = st.tuples(st.sampled_from(list(DeviceKind)), _BYTES, _BYTES, _COUNT, _COUNT)
_BATCH = st.tuples(
    st.one_of(
        st.just(()),  # pure CPU
        st.lists(_ROW, min_size=1, max_size=1).map(tuple),  # one-row
        st.lists(_ROW, min_size=2, max_size=3),  # multi-row
        st.just(((DeviceKind.DRAM, 0.0, 0, 0, 0),)),  # zero traffic
    ),
    _CPU,
)
_CALL = st.tuples(
    st.lists(_BATCH, max_size=5),
    st.sampled_from([None, "minor", "major"]),
)
_READS = (
    "clock",
    "counters",
    "energy",
    "bandwidth",
    "pauses",
)
_STEP = st.one_of(
    st.lists(_CALL, min_size=1, max_size=3).map(lambda calls: ("charge", calls)),
    st.sampled_from(_READS).map(lambda name: ("read", name)),
)


def _machine(throttle_factor):
    machine = Machine(small_config(PolicyName.PANTHERA))
    stats = GCStats()
    machine.defer_reads(stats)
    if throttle_factor is not None:
        machine.nvm_throttle = _Scale(throttle_factor)
    return machine, stats


def _charge(machine, call):
    batches, pause = call
    machine.run_batch(batches, record=pause)


def _read(machine, stats, name, finite):
    """One settled figure; bandwidth bins only while every charge was
    finite (a NaN start has no window), the raw deposits always."""
    if name == "clock":
        return repr(machine.clock.now_ns), repr(machine.elapsed_s)
    if name == "counters":
        return [repr(vars(dev.counters)) for dev in machine.devices.values()]
    if name == "energy":
        return repr(machine.energy_j()), repr(machine.energy_breakdown())
    if name == "bandwidth":
        tracker = machine.bandwidth
        figures = [column.tobytes() for column in tracker.deposit_columns()]
        if finite:
            figures += [
                (
                    repr(tracker.series(device, is_write)),
                    repr(tracker.peak_gbps(device, is_write)),
                    repr(tracker.total_bytes(device, is_write)),
                )
                for device in DeviceKind
                for is_write in (False, True)
            ]
        return figures
    return repr(stats.pauses), repr(
        (stats.minor_count, stats.major_count, stats.minor_ns, stats.major_ns)
    )


#: How the property runs (with numpy only where numpy is).
MODES = ["numpy"] * (bandwidth_module._np is not None) + ["no-numpy", "throttle"]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(steps=st.lists(_STEP, max_size=25))
def test_deferred_reads_equal_an_eager_reference(mode, steps):
    with pytest.MonkeyPatch.context() as patch:
        if mode == "no-numpy":
            patch.setattr(bandwidth_module, "_np", None)
        factor = 2.0 if mode == "throttle" else None
        deferred, deferred_stats = _machine(factor)
        eager, eager_stats = _machine(factor)
        finite = True
        for kind, step in steps:
            if kind == "charge":
                for call in step:
                    _charge(deferred, call)
                    _charge(eager, call)
                    eager.settle()
                    finite = finite and not any(
                        math.isnan(cpu) for _, cpu in call[0]
                    )
            else:
                assert _read(deferred, deferred_stats, step, finite) == _read(
                    eager, eager_stats, step, finite
                )
            assert eager.pending == 0
        for name in _READS:
            assert _read(deferred, deferred_stats, name, finite) == _read(
                eager, eager_stats, name, finite
            )
        assert deferred.pending == 0
        if mode == "throttle":
            assert repr(deferred.nvm_throttle.starts) == repr(eager.nvm_throttle.starts)


class TestQueue:
    def test_run_batch_only_queues(self):
        machine = Machine(small_config())
        machine.run_batch([([(DeviceKind.DRAM, 4096.0, 0.0, 0, 0)], 10.0)])
        assert machine.pending == 1
        assert machine.devices[DeviceKind.DRAM]._counters.read_bytes == 0.0
        assert machine.clock._now_ns == 0.0
        assert machine.clock.now_ns > 10.0
        assert machine.pending == 0

    def test_queue_settles_itself_when_full(self, monkeypatch):
        monkeypatch.setattr(machine_module, "QUEUE_BATCHES", 4)
        machine = Machine(small_config())
        machine.run_batch([((), 1.0)] * 3)
        assert machine.pending == 3
        machine.run_batch([((), 1.0)])
        assert machine.pending == 0
        assert machine.clock._now_ns == 4.0

    def test_records_once_per_cycle_with_its_start_and_advance(self):
        machine = Machine(small_config())
        calls = []

        class _Recorder(SettlesFirst):
            def records(self):
                return {"minor": lambda start, advance: calls.append((start, advance))}

        machine.defer_reads(_Recorder())
        machine.run_batch([((), 5.0)])
        for _ in range(2):
            machine.run_batch([((), 1.0), ((), 2.0), ((), 3.0)], record="minor")
        assert calls == []
        machine.settle()
        assert calls == [(5.0, 6.0), (11.0, 6.0)]

    def test_a_record_kind_no_state_bound_is_refused(self):
        machine = Machine(small_config())
        with pytest.raises(ValueError, match="no state records 'minor'"):
            machine.run_batch([((), 1.0)], record="minor")
        assert machine.pending == 0

    def test_installing_a_throttle_settles_under_the_old_schedule(self):
        machine = Machine(small_config())
        machine.run_batch([([(DeviceKind.NVM, 1e9, 0.0, 0, 0)], 0.0)])
        throttle = _Scale(3.0)
        machine.nvm_throttle = throttle
        assert machine.pending == 0
        assert throttle.starts == []
        reference = Machine(small_config())
        reference.run_batch([([(DeviceKind.NVM, 1e9, 0.0, 0, 0)], 0.0)])
        assert machine.clock.now_ns == reference.clock.now_ns

    def test_a_pause_publishes_before_the_next_event(self):
        stack = make_stack()
        session = TraceSession.attach(stack.heap, stack.collector.stats)
        stack.collector.collect_minor()
        assert stack.machine.pending == 3
        stack.heap.new_object(ObjKind.DATA, 1024)
        kinds = [event.kind for event in session.bus.events]
        assert kinds[-2:] == ["gc_pause", "alloc"]


class TestEmptyQueueChecks:
    def test_verify_heap_settles_and_finds_the_queue_empty(self):
        stack = make_stack()
        stack.collector.collect_minor()
        assert stack.machine.pending == 3
        assert verify_heap(stack.heap) == []
        assert stack.machine.pending == 0
        assert stack.collector.stats.minor_count == 1

    def test_verify_heap_reports_a_queue_a_settle_left(self, monkeypatch):
        stack = make_stack()
        stack.collector.collect_minor()
        monkeypatch.setattr(Machine, "settle", lambda self: None)
        assert verify_heap(stack.heap) == [
            "3 charge batches still queued after a settle"
        ]

    def test_strict_replay_settles_and_finds_the_queue_empty(self):
        stack = make_stack()
        session = TraceSession.attach(stack.heap, stack.collector.stats)
        stack.heap.add_root(stack.heap.new_object(ObjKind.DATA, 1024))
        stack.collector.collect_minor()
        assert stack.machine.pending == 3
        assert session.check() == []
        assert stack.machine.pending == 0

    def test_strict_replay_reports_a_queue_a_settle_left(self, monkeypatch):
        stack = make_stack()
        session = TraceSession.attach(stack.heap, stack.collector.stats)
        stack.collector.collect_minor()
        monkeypatch.setattr(Machine, "settle", lambda self: None)
        problems = session.check()
        assert "3 charge batches still queued after a settle" in problems
