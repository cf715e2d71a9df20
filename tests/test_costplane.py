"""Tests for the cost plane: GC charge totals and batch settling.

Covers ``ChargeAccumulator`` totals against one deposit per charge
(``PerChargeDeposits``, the first-touch-order reference), ``visit_all``
over a chunk-interleaved space, ``batch``'s ``DeviceKind`` row order and
DRAM floor arithmetic, ``Machine.run_rows`` equivalence with one
single-device ``run_batch`` per row, and a ``run_batch`` series'
equivalence with one call per batch.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.config import CACHE_LINE_BYTES, PolicyName, DeviceKind
from repro.gc.charging import (
    KIND_RANDOM_READ,
    KIND_READ,
    KIND_WRITE,
    ChargeAccumulator,
)
from repro.heap.object_model import HEADER_BYTES, HeapObject, ObjKind
from repro.heap.spaces import Space
from repro.memory.interleave import ChunkMap
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

    def batch(self, config, dram_stream=0.0):
        rows = self.rows(dram_stream)
        processed = 0.0
        for _, read_bytes, write_bytes, _, _ in rows:
            processed += read_bytes + write_bytes
        return rows, processed * config.gc_ns_per_byte


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


_GC_CONFIG = SimpleNamespace(gc_threads=16, gc_ns_per_byte=0.05)
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
        rows, cpu_ns = acc.batch(_GC_CONFIG, dram_stream=_FLOOR)
        dram_read = _FLOOR + sum(_DRAM_READS)
        assert dram_read != (_FLOOR + _DRAM_READS[0]) + _DRAM_READS[1]
        assert rows == [
            (DeviceKind.DRAM, dram_read, _FLOOR + 64, 0, 0),
            (DeviceKind.NVM, 4096, 512, 0, 0),
        ]
        processed = 0.0 + (dram_read + (_FLOOR + 64)) + (4096 + 512)
        assert cpu_ns == processed * 0.05

    def test_floor_alone_charges_dram(self):
        rows, _ = ChargeAccumulator().batch(_GC_CONFIG, dram_stream=_FLOOR)
        assert rows == [(DeviceKind.DRAM, _FLOOR, _FLOOR, 0, 0)]

    def test_untouched_phase_settles_nothing(self):
        batch = ChargeAccumulator().batch(_GC_CONFIG)
        assert batch == ([], 0.0)
        config = small_config(PolicyName.PANTHERA)
        machine = Machine(config)
        assert machine.run_batch([batch], threads=16) == 0.0
        assert _machine_fingerprint(machine) == _machine_fingerprint(Machine(config))

    def test_minor_gc_adds_floor_after_the_copy_sum(self, monkeypatch):
        """A real scavenge copies two rooted young objects; its copy
        batch reads ``floor + (a + b)`` on DRAM, not ``(floor + a) + b``
        (a small live fraction keeps the floor far below the copies, so
        the two roundings differ)."""
        stack = make_stack(minor_live_fraction=0.0137)
        heap = stack.heap
        sizes = (487587, 1398421)
        for nbytes in sizes:
            heap.add_root(heap.new_object(ObjKind.DATA, nbytes))
        heap.allocate_ephemeral(1215613)
        floor = (heap.eden.top - heap.eden.base) * 0.0137
        assert floor + sum(sizes) != (floor + sizes[0]) + sizes[1]
        calls = []
        run_batch = stack.machine.run_batch

        def recording(batches, threads=1):
            batches = list(batches)
            calls.append((batches, threads))
            return run_batch(batches, threads=threads)

        monkeypatch.setattr(stack.machine, "run_batch", recording)
        stack.collector.collect_minor()
        [(cycle, threads)] = calls
        [pause, _, (copy_rows, _)] = cycle
        assert pause == ((), stack.config.gc_fixed_pause_ns)
        assert threads == stack.config.gc_threads
        assert copy_rows[0][:2] == (DeviceKind.DRAM, floor + sum(sizes))

    @pytest.mark.parametrize("dram_stream", [0.0, _FLOOR])
    def test_settle_matches_first_touch_reference(self, dram_stream):
        config = small_config(PolicyName.PANTHERA)
        threads = config.gc_threads
        batched = Machine(config)
        batched.run_batch(
            [_drive(ChargeAccumulator()).batch(config, dram_stream)], threads=threads
        )
        reference = Machine(config)
        reference.run_batch(
            [_drive(PerChargeDeposits()).batch(config, dram_stream)], threads=threads
        )
        assert _machine_fingerprint(batched) == _machine_fingerprint(reference)


# -- Machine.run_rows vs one single-device run_batch per row ---------------


_ROWS = [
    (DeviceKind.DISK, 64 * 1024.0, 0.0, 0, 0, 500.0),
    (DeviceKind.DRAM, 0.0, 48 * 1024.0, 0, 0, 0.0),
    (DeviceKind.DRAM, 0.0, 0.0, 24, 0, 300.0),
    (DeviceKind.NVM, 16 * 1024.0, 8 * 1024.0, 0, 4, 200.0),
    (DeviceKind.NVM, 0.0, 0.0, 0, 0, 750.0),  # pure-CPU row
]


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


def _run_one_batch_per_row(machine, rows, threads):
    """The per-row reference: each row as its own one-device batch."""
    for device, rb, wb, rr, rw, cpu in rows:
        machine.run_batch([([(device, rb, wb, rr, rw)], cpu)], threads=threads)


class TestRunRows:
    def _fresh_machine(self, **kwargs):
        return Machine(small_config(PolicyName.PANTHERA, **kwargs))

    @pytest.mark.parametrize("threads,mlp", [(1, None), (8, None), (4, 2)])
    def test_rows_match_sequential_access_calls(self, threads, mlp):
        kwargs = {} if mlp is None else {"mlp": mlp}
        bulk = self._fresh_machine(**kwargs)
        returned = bulk.run_rows(_ROWS * 7, threads=threads)
        scalar = self._fresh_machine(**kwargs)
        start = scalar.clock.now_ns
        _run_one_batch_per_row(scalar, _ROWS * 7, threads)
        assert _machine_fingerprint(bulk) == _machine_fingerprint(scalar)
        assert repr(returned) == repr(scalar.clock.now_ns - start)

    def test_rows_apply_the_nvm_throttle(self):
        class Halver:
            def apply(self, start_ns, device_ns):
                return device_ns * 2.0

        bulk = self._fresh_machine()
        bulk.nvm_throttle = Halver()
        bulk.run_rows(_ROWS, threads=2)
        scalar = self._fresh_machine()
        scalar.nvm_throttle = Halver()
        _run_one_batch_per_row(scalar, _ROWS, 2)
        assert _machine_fingerprint(bulk) == _machine_fingerprint(scalar)

    def test_empty_rows_are_free(self):
        machine = self._fresh_machine()
        assert machine.run_rows([]) == 0.0
        assert machine.clock.now_ns == 0.0

    def test_negative_cpu_raises(self):
        machine = self._fresh_machine()
        with pytest.raises(ValueError):
            machine.run_rows([(DeviceKind.DRAM, 0.0, 0.0, 0, 0, -1.0)])

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
        machine = self._fresh_machine()
        with pytest.raises(ValueError):
            machine.run_rows(rows)
        assert _machine_fingerprint(machine) == _machine_fingerprint(
            self._fresh_machine()
        )
        assert machine.energy_j() == 0.0
        assert machine.bandwidth.pending == 0

    def test_random_traffic_charges_cache_lines(self):
        machine = self._fresh_machine()
        machine.run_rows([(DeviceKind.DRAM, 0.0, 0.0, 5, 3, 0.0)])
        counters = machine.devices[DeviceKind.DRAM].counters
        assert counters.read_bytes == 5 * CACHE_LINE_BYTES
        assert counters.write_bytes == 3 * CACHE_LINE_BYTES


# -- Machine.run_batch: a series vs one call per batch ---------------------


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


class TestRunBatch:
    def _fresh_machine(self, **kwargs):
        return Machine(small_config(PolicyName.PANTHERA, **kwargs))

    @pytest.mark.parametrize("threads,mlp", [(1, None), (16, None), (4, 2)])
    def test_series_matches_one_call_per_batch(self, threads, mlp):
        kwargs = {} if mlp is None else {"mlp": mlp}
        series = self._fresh_machine(**kwargs)
        returned = series.run_batch(_BATCHES * 3, threads=threads)
        single = self._fresh_machine(**kwargs)
        for batch in _BATCHES * 3:
            single.run_batch([batch], threads=threads)
        assert _machine_fingerprint(series) == _machine_fingerprint(single)
        assert repr(returned) == repr(single.clock.now_ns)

    def test_series_throttles_each_batch_at_its_own_start(self):
        series = self._fresh_machine()
        series.nvm_throttle = _StartRecorder()
        series.run_batch(_BATCHES, threads=2)
        single = self._fresh_machine()
        single.nvm_throttle = _StartRecorder()
        for batch in _BATCHES:
            single.run_batch([batch], threads=2)
        assert _machine_fingerprint(series) == _machine_fingerprint(single)
        assert series.nvm_throttle.starts == single.nvm_throttle.starts
        assert len(set(series.nvm_throttle.starts)) == 2

    def test_empty_series_is_free(self):
        machine = self._fresh_machine()
        assert machine.run_batch([]) == 0.0
        assert machine.clock.now_ns == 0.0

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
        machine = self._fresh_machine()
        with pytest.raises(ValueError):
            machine.run_batch(
                [([(DeviceKind.DRAM, 4096.0, 0.0, 0, 0)], 0.0), ((), -1.0)]
            )
        assert _machine_fingerprint(machine) == _machine_fingerprint(
            self._fresh_machine()
        )
        assert machine.energy_j() == 0.0
        assert machine.bandwidth.pending == 0
