"""Tests for the cost plane: GC charge totals and batch settling.

Covers ``ChargeAccumulator`` totals against one deposit per charge
(``PerChargeDeposits``, the first-touch-order reference), ``visit_all``
over a chunk-interleaved space, ``batch``'s ``DeviceKind`` row order and
DRAM floor arithmetic, a ``Machine.run_batch`` series' equivalence with
one call per batch, and shuffle waves of rows charged as one-row batches.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    DRAM_SPEC,
    GC_FIXED_PAUSE_NS,
    GC_NS_PER_BYTE,
    GC_THREADS,
    MLP,
    MUTATOR_THREADS,
    PolicyName,
    DeviceKind,
)
from repro.gc import minor
from repro.gc.stats import GCStats
from repro.gc.charging import (
    KIND_RANDOM_READ,
    KIND_READ,
    KIND_WRITE,
    ChargeAccumulator,
)
from repro.heap.object_model import HEADER_BYTES, HeapObject, ObjKind
from repro.heap.spaces import Space
from repro.memory.device import MemoryDevice
from repro.memory.interleave import ChunkMap
from repro.memory import machine as machine_module
from repro.memory.machine import Machine
from tests.conftest import make_stack, small_config
from tests.golden.corpus import bandwidth_series


# -- ChargeAccumulator: primitives vs one deposit per charge --------------


def _fake_obj(device, size=96):
    space = SimpleNamespace(
        device=device,
        object_traffic=lambda obj: [(device, obj.size)],
    )
    return SimpleNamespace(space=space, addr=0x1000, size=size)


def _dst_space(device, top=0x2000, end=0x3000):
    return SimpleNamespace(device_of=lambda addr: device, top=top, end=end)


class PerChargeDeposits:
    """The reference cost plane: every charge deposited on its own into
    per-device totals kept in first-touch order, and settled in that
    order.

    Swapped in for ``ChargeAccumulator`` it reproduces a whole run byte
    for byte (``TestBatchedDepositIdentity``), the end-to-end proof that
    the ``DeviceKind`` settle order is unobservable.
    """

    def __init__(self):
        self.per_device = {}

    def _add(self, device, kind, amount):
        entry = self.per_device.get(device)
        if entry is None:
            entry = self.per_device[device] = [0, 0, 0, 0]
        entry[kind] += amount

    def visit(self, obj):
        device = obj.space.device
        if device is None:
            device = obj.space.chunk_map.device_of(obj.addr)
        self._add(device, KIND_READ, HEADER_BYTES)
        self._add(device, KIND_RANDOM_READ, 1)

    def visit_all(self, objs):
        for obj in objs:
            self.visit(obj)

    def stream_read(self, obj):
        for device, nbytes in obj.space.object_traffic(obj):
            self._add(device, KIND_READ, nbytes)

    def copy(self, src_pieces, obj, dst_space):
        for device, nbytes in src_pieces:
            self._add(device, KIND_READ, nbytes)
        dst = dst_space.device_of(min(dst_space.top, dst_space.end - 1))
        self._add(dst, KIND_WRITE, obj.size)
        return obj.size

    def read(self, device, nbytes):
        self._add(device, KIND_READ, nbytes)

    def write(self, device, nbytes):
        self._add(device, KIND_WRITE, nbytes)

    def rows(self, dram_stream=0.0):
        per_device = self.per_device
        if dram_stream > 0:
            # The floor is charged before any object: DRAM comes first.
            dram = per_device.get(DeviceKind.DRAM, [0, 0, 0, 0])
            per_device = {DeviceKind.DRAM: dram, **per_device}
        rows = []
        for device, (read_bytes, write_bytes, rr, rw) in per_device.items():
            if device is DeviceKind.DRAM and dram_stream > 0:
                read_bytes = dram_stream + read_bytes
                write_bytes = dram_stream + write_bytes
            rows.append((device, read_bytes, write_bytes, rr, rw))
        return rows

    def batch(self, dram_stream=0.0):
        rows = self.rows(dram_stream)
        processed = 0.0
        for _, read_bytes, write_bytes, _, _ in rows:
            processed += read_bytes + write_bytes
        return rows, processed * GC_NS_PER_BYTE


def _drive(sink, rows_each=False):
    """One mixed charge sequence touching every primitive, NVM first."""
    dram_objs = [_fake_obj(DeviceKind.DRAM) for _ in range(20)]
    nvm_objs = [_fake_obj(DeviceKind.NVM) for _ in range(3)]
    charges = [partial(sink.stream_read, _fake_obj(DeviceKind.NVM, size=4096))]
    charges += [partial(sink.visit, obj) for obj in dram_objs[:4]]
    charges += [
        partial(sink.visit_all, dram_objs + nvm_objs),
        partial(sink.visit_all, nvm_objs),
    ]
    charges += [
        partial(
            sink.copy, [(DeviceKind.NVM, obj.size)], obj, _dst_space(DeviceKind.DRAM)
        )
        for obj in dram_objs[:5]
    ]
    charges += [
        partial(sink.read, DeviceKind.DISK, 512),
        partial(sink.write, DeviceKind.DISK, 128),
        partial(sink.write, DeviceKind.DRAM, 64),
    ]
    for charge in charges:
        charge()
        if rows_each:
            sink.rows()
    return sink


def _in_device_kind_order(rows):
    order = list(DeviceKind)
    return sorted(rows, key=lambda row: order.index(row[0]))


class TestChargeAccumulator:
    def test_vectorised_matches_scalar_totals_and_device_order(self):
        batched = _drive(ChargeAccumulator()).rows()
        reference = _drive(PerChargeDeposits()).rows()
        assert [row[0] for row in reference] == [
            DeviceKind.NVM,
            DeviceKind.DRAM,
            DeviceKind.DISK,
        ]
        assert batched == _in_device_kind_order(reference)

    def test_per_charge_flushing_matches_too(self):
        """Building the rows mid-phase leaves the totals untouched."""
        built = _drive(ChargeAccumulator(), rows_each=True).rows()
        reference = _drive(PerChargeDeposits()).rows()
        assert built == _in_device_kind_order(reference)

    def test_visit_all_long_path_matches_per_object(self):
        objs = [
            _fake_obj([DeviceKind.DRAM, DeviceKind.NVM][i % 3 == 2])
            for i in range(40)
        ]
        bulk = ChargeAccumulator()
        bulk.visit_all(objs)
        single = ChargeAccumulator()
        for obj in objs:
            single.visit(obj)
        assert bulk.totals == single.totals
        dram = bulk.rows()[0]
        assert dram == (DeviceKind.DRAM, 27 * HEADER_BYTES, 0, 27, 0)

    def test_visit_all_over_chunk_interleaved_space(self):
        """Consecutive objects of one chunk-mapped space (the unmanaged
        policy's old generation) can sit on different devices, so the
        device is resolved per object, never cached per space."""
        chunk = 4096
        chunk_map = ChunkMap(0, 16 * chunk, chunk, dram_probability=0.5, seed=3)
        space = Space("old-chunked", 0, 16 * chunk, "old", chunk_map=chunk_map)
        objs = [HeapObject(ObjKind.DATA, chunk) for _ in range(16)]
        for obj in objs:
            assert space.place(obj)
        devices = [chunk_map.device_of(obj.addr) for obj in objs]
        assert devices[0] is not devices[1]
        bulk = ChargeAccumulator()
        bulk.visit_all(objs)
        reference = PerChargeDeposits()
        reference.visit_all(objs)
        assert bulk.rows() == _in_device_kind_order(reference.rows())


# -- batch: DeviceKind row order and the DRAM floor ------------------------


#: A non-integer floor, and two DRAM reads whose sum lands on a different
#: float when they are added to the floor one at a time.
_FLOOR = 12345.678
_DRAM_READS = (3012671, 3642239)


class TestSettle:
    def test_nvm_charged_first_settles_in_device_kind_order(self):
        acc = ChargeAccumulator()
        acc.read(DeviceKind.NVM, 4096)
        acc.write(DeviceKind.NVM, 512)
        for nbytes in _DRAM_READS:
            acc.read(DeviceKind.DRAM, nbytes)
        acc.write(DeviceKind.DRAM, 64)
        rows, cpu_ns = acc.batch(dram_stream=_FLOOR)
        dram_read = _FLOOR + sum(_DRAM_READS)
        assert dram_read != (_FLOOR + _DRAM_READS[0]) + _DRAM_READS[1]
        assert rows == [
            (DeviceKind.DRAM, dram_read, _FLOOR + 64, 0, 0),
            (DeviceKind.NVM, 4096, 512, 0, 0),
        ]
        processed = 0.0 + (dram_read + (_FLOOR + 64)) + (4096 + 512)
        assert cpu_ns == processed * GC_NS_PER_BYTE

    def test_floor_alone_charges_dram(self):
        rows, _ = ChargeAccumulator().batch(dram_stream=_FLOOR)
        assert rows == [(DeviceKind.DRAM, _FLOOR, _FLOOR, 0, 0)]

    def test_untouched_phase_settles_nothing(self):
        batch = ChargeAccumulator().batch()
        assert batch == ([], 0.0)
        config = small_config(PolicyName.PANTHERA)
        machine = _gc_machine()
        machine.run_batch([batch], record="minor")
        assert machine.clock.now_ns == 0.0
        assert _machine_fingerprint(machine) == _machine_fingerprint(Machine(config))

    def test_minor_gc_adds_floor_after_the_copy_sum(self, monkeypatch):
        """A real scavenge copies two rooted young objects; its copy
        batch reads ``floor + (a + b)`` on DRAM, not ``(floor + a) + b``
        (a small live fraction keeps the floor far below the copies, so
        the two roundings differ)."""
        monkeypatch.setattr(minor, "MINOR_LIVE_FRACTION", 0.0137)
        stack = make_stack()
        heap = stack.heap
        sizes = (487587, 1398421)
        for nbytes in sizes:
            heap.add_root(heap.new_object(ObjKind.DATA, nbytes))
        heap.allocate_ephemeral(1215613)
        floor = (heap.eden.top - heap.eden.base) * 0.0137
        assert floor + sum(sizes) != (floor + sizes[0]) + sizes[1]
        calls = []
        run_batch = stack.machine.run_batch

        def recording(batches, record=None):
            batches = list(batches)
            calls.append((batches, record))
            return run_batch(batches, record=record)

        monkeypatch.setattr(stack.machine, "run_batch", recording)
        stack.collector.collect_minor()
        [(cycle, record)] = calls
        [pause, _, (copy_rows, _)] = cycle
        assert pause == ((), GC_FIXED_PAUSE_NS)
        assert record == "minor"
        assert copy_rows[0][:2] == (DeviceKind.DRAM, floor + sum(sizes))

    @pytest.mark.parametrize("dram_stream", [0.0, _FLOOR])
    def test_settle_matches_first_touch_reference(self, dram_stream):
        batched = _gc_machine()
        batched.run_batch(
            [_drive(ChargeAccumulator()).batch(dram_stream)], record="minor"
        )
        reference = _gc_machine()
        reference.run_batch(
            [_drive(PerChargeDeposits()).batch(dram_stream)], record="minor"
        )
        assert _machine_fingerprint(batched) == _machine_fingerprint(reference)


# -- Machine.run_batch: a series vs one call per batch ---------------------


def _machine_fingerprint(machine):
    return (
        repr(machine.clock.now_ns),
        {
            kind.value: (
                dev.counters.read_bytes,
                dev.counters.write_bytes,
                dev.counters.random_reads,
                dev.counters.random_writes,
            )
            for kind, dev in machine.devices.items()
        },
        bandwidth_series(machine),
    )


_BATCHES = [
    ((), 1000.0),  # a GC's fixed pause: no rows
    (
        [
            (DeviceKind.DRAM, 3e6, 1e6, 40, 0),
            (DeviceKind.NVM, 2e6, 0.0, 0, 8),
        ],
        5000.0,
    ),
    ([], 0.0),  # an untouched phase
    (
        [
            (DeviceKind.NVM, 0.0, 24e9, 0, 0),  # spans several 1 s windows
            (DeviceKind.DISK, 64 * 1024.0, 0.0, 0, 0),
            (DeviceKind.DRAM, 0.0, 0.0, 0, 0),  # no traffic: skipped
        ],
        0.0,
    ),
    ([(DeviceKind.DRAM, 12345.678, 12345.678, 0, 0)], 1234.5678),
]

class _StartRecorder:
    """An NVM throttle that doubles device time and records each start."""

    def __init__(self):
        self.starts = []

    def apply(self, start_ns, device_ns):
        self.starts.append(start_ns)
        return device_ns * 2.0


def _fresh_machine():
    return Machine(small_config(PolicyName.PANTHERA))


def _gc_machine():
    """A fresh machine whose ``"minor"`` and ``"major"`` series record
    their pauses."""
    machine = _fresh_machine()
    machine.defer_reads(GCStats())
    return machine


def _series_and_single(batches, throttle=None):
    """``batches`` charged as one series and as one call per batch, as
    mutator work and as a collection."""
    for record in (None, "minor"):
        series, single = _gc_machine(), _gc_machine()
        if throttle is not None:
            series.nvm_throttle, single.nvm_throttle = throttle(), throttle()
        series.run_batch(batches, record=record)
        for batch in batches:
            single.run_batch([batch], record=record)
        assert _machine_fingerprint(series) == _machine_fingerprint(single)
        assert repr(series.clock.now_ns) == repr(single.clock.now_ns)
    return series, single


def _patch_threads(monkeypatch, threads, mlp):
    """Run every series on ``threads`` threads of ``mlp`` outstanding
    misses each (the module constants the settle reads)."""
    monkeypatch.setattr(machine_module, "MUTATOR_THREADS", threads)
    monkeypatch.setattr(machine_module, "GC_THREADS", threads)
    if mlp is not None:
        monkeypatch.setattr(machine_module, "MLP", mlp)


def _assert_charges_nothing(batches):
    machine = _fresh_machine()
    with pytest.raises(ValueError):
        machine.run_batch(batches)
    assert _machine_fingerprint(machine) == _machine_fingerprint(_fresh_machine())
    assert machine.energy_j() == 0.0
    assert machine.bandwidth.pending == 0


class TestRunBatch:
    def _fresh_machine(self):
        return _fresh_machine()

    @pytest.mark.parametrize("threads,mlp", [(1, None), (16, None), (4, 2)])
    def test_series_matches_one_call_per_batch(self, threads, mlp, monkeypatch):
        _patch_threads(monkeypatch, threads, mlp)
        _series_and_single(_BATCHES * 3)

    def test_parallelism_follows_the_pause_kind(self):
        """A series without a pause kind is mutator work, priced on
        ``MUTATOR_THREADS``; a collection's is priced on ``GC_THREADS``."""
        probes = [(((DeviceKind.DRAM, 0.0, 0.0, 1000, 0),), 0.0)]
        device = MemoryDevice(DRAM_SPEC, capacity_bytes=1)
        for record, threads in ((None, MUTATOR_THREADS), ("minor", GC_THREADS)):
            machine = _gc_machine()
            machine.run_batch(probes, record=record)
            assert machine.clock.now_ns == device.charge_row(
                0.0, 0.0, 1000, 0, threads * MLP
            )

    def test_series_throttles_each_batch_at_its_own_start(self):
        series, single = _series_and_single(_BATCHES, throttle=_StartRecorder)
        assert series.nvm_throttle.starts == single.nvm_throttle.starts
        assert len(set(series.nvm_throttle.starts)) == 2

    def test_empty_series_is_free(self):
        machine = self._fresh_machine()
        machine.run_batch([])
        assert machine.clock.now_ns == 0.0

    def test_traffic_free_rows_are_skipped(self):
        machine = self._fresh_machine()
        rows = [(DeviceKind.DRAM, 0.0, 0.0, 0, 0), (DeviceKind.NVM, 0, 0, 0, 0)]
        machine.run_batch([(rows, 750.0)])
        assert machine.clock.now_ns == 750.0
        assert machine.bandwidth.pending == 0
        pure_cpu = self._fresh_machine()
        pure_cpu.run_batch([((), 750.0)])
        assert _machine_fingerprint(machine) == _machine_fingerprint(pure_cpu)

    def test_one_row_batch_lasts_the_longer_of_device_and_cpu_time(self):
        rows = ((DeviceKind.DISK, 64 * 1024.0, 0.0, 0, 0),)
        machine = self._fresh_machine()
        machine.run_batch([(rows, 0.0)])
        device_ns = machine.clock.now_ns
        assert device_ns > 0
        for cpu_ns in (device_ns / 2, device_ns * 2):
            machine = self._fresh_machine()
            machine.run_batch([(rows, cpu_ns)])
            assert machine.clock.now_ns == max(device_ns, cpu_ns)

    def test_every_deposit_spans_its_batch_final_duration(self):
        # The DRAM row is charged first and is the shorter: its deposits
        # still take the NVM row's longer duration.
        machine = self._fresh_machine()
        rows = [(DeviceKind.DRAM, 64.0, 64.0, 0, 0), (DeviceKind.NVM, 1e9, 0.0, 0, 0)]
        machine.run_batch([((), 10.0), (rows, 0.0)])
        duration = machine.clock.now_ns
        codes, nbytes, starts, durations = machine.bandwidth.deposit_columns()
        assert list(nbytes) == [64.0, 64.0, 1e9]
        assert list(starts) == [10.0] * 3
        assert list(durations) == [duration - 10.0] * 3

    def test_deposit_columns_stay_aligned(self):
        machine = self._fresh_machine()
        machine.run_batch(_BATCHES + _one_row_batches(_ROWS))
        lengths = {len(column) for column in machine.bandwidth.deposit_columns()}
        assert len(lengths) == 1 and lengths != {0}

    def test_negative_cpu_raises(self):
        machine = self._fresh_machine()
        with pytest.raises(ValueError):
            machine.run_batch([((), -1.0)])
        assert machine.clock.now_ns == 0.0

    def test_negative_cpu_later_in_a_series_raises(self):
        machine = self._fresh_machine()
        with pytest.raises(ValueError):
            machine.run_batch(
                [((), 1000.0), ([(DeviceKind.DRAM, 64.0, 0, 0, 0)], -1.0)]
            )
        assert machine.clock.now_ns == 0.0
        assert machine.devices[DeviceKind.DRAM].counters.read_bytes == 0

    def test_negative_cpu_after_a_charged_batch_charges_nothing(self):
        _assert_charges_nothing(
            [([(DeviceKind.DRAM, 4096.0, 0.0, 0, 0)], 0.0), ((), -1.0)]
        )


# -- A shuffle wave: rows charged as one-row batches -----------------------


_ROWS = [
    (DeviceKind.DISK, 64 * 1024.0, 0.0, 0, 0, 500.0),
    (DeviceKind.DRAM, 0.0, 48 * 1024.0, 0, 0, 0.0),
    (DeviceKind.DRAM, 0.0, 0.0, 24, 0, 300.0),
    (DeviceKind.NVM, 16 * 1024.0, 8 * 1024.0, 0, 4, 200.0),
    (DeviceKind.NVM, 0.0, 0.0, 0, 0, 750.0),  # traffic-free: pure CPU
]


def _one_row_batches(rows):
    """A row ``(device, rb, wb, rr, rw, cpu)`` is the one-row batch."""
    return [(((d, rb, wb, rr, rw),), cpu) for d, rb, wb, rr, rw, cpu in rows]


class TestRunRows:
    @pytest.mark.parametrize("threads,mlp", [(1, None), (8, None), (4, 2)])
    def test_rows_match_sequential_access_calls(self, threads, mlp, monkeypatch):
        _patch_threads(monkeypatch, threads, mlp)
        _series_and_single(_one_row_batches(_ROWS * 7))

    def test_rows_apply_the_nvm_throttle(self):
        # One NVM access per lap; the traffic-free NVM row is not throttled.
        series, single = _series_and_single(
            _one_row_batches(_ROWS * 7), throttle=_StartRecorder
        )
        assert series.nvm_throttle.starts == single.nvm_throttle.starts
        assert len(set(series.nvm_throttle.starts)) == 7

    def test_empty_rows_are_free(self):
        machine = _fresh_machine()
        idle = [(DeviceKind.DRAM, 0.0, 0.0, 0, 0, 0.0)] * 3
        machine.run_batch(_one_row_batches(idle))
        assert machine.clock.now_ns == 0.0
        assert machine.bandwidth.pending == 0

    def test_negative_cpu_raises(self):
        machine = _fresh_machine()
        with pytest.raises(ValueError):
            machine.run_batch(
                _one_row_batches([(DeviceKind.DRAM, 0.0, 0.0, 0, 0, -1.0)])
            )

    @pytest.mark.parametrize(
        "rows",
        [
            [
                (DeviceKind.DRAM, 4096.0, 0.0, 0, 0, 0.0),
                (DeviceKind.DRAM, 0.0, 0.0, 0, 0, -1.0),
            ],
            # The row's device time exceeds the CPU term, so the row's
            # duration alone would not be negative.
            [(DeviceKind.DRAM, 4096.0, 0.0, 0, 0, -1.0)],
        ],
        ids=["later-row", "under-device-time"],
    )
    def test_negative_cpu_charges_nothing(self, rows):
        _assert_charges_nothing(_one_row_batches(rows))

    def test_random_traffic_charges_cache_lines(self):
        machine = _fresh_machine()
        machine.run_batch(_one_row_batches([(DeviceKind.DRAM, 0.0, 0.0, 5, 3, 0.0)]))
        counters = machine.devices[DeviceKind.DRAM].counters
        assert counters.read_bytes == 5 * CACHE_LINE_BYTES
        assert counters.write_bytes == 3 * CACHE_LINE_BYTES
