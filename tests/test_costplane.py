"""Tests for the cost plane: column charging and wave settling.

Covers ``ChargeColumns`` reduction exactness and first-touch ordering
(numpy and ``array``-module fallback), ``ChargeAccumulator`` totals and
device order against one ``TrafficSet.add`` per charge, the two-row
coalescing of the charge primitives, ``Machine.run_rows`` equivalence
with one single-device ``run_batch`` per row, and end-to-end
byte-identity of the numpy and ``array``-loop reductions on traced +
fault-injected cells and random pipelines.
"""

from contextlib import contextmanager
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import CACHE_LINE_BYTES, PolicyName, DeviceKind
from repro.gc import charging as _charging
from repro.gc.charging import (
    KIND_RANDOM_READ,
    KIND_READ,
    KIND_WRITE,
    ChargeAccumulator,
    ChargeColumns,
)
from repro.heap.object_model import HEADER_BYTES
from repro.memory.machine import Machine, Traffic, TrafficSet
from tests.conftest import numpy_absent, small_config
from tests.golden import corpus
from tests.golden.corpus import bandwidth_series
from tests.test_properties_spark import DATASET, STEP, run_traced_pipeline


# -- ChargeColumns: reduction exactness and ordering -----------------------


def _dram_base():
    return _charging._DEV_BASE[DeviceKind.DRAM]


def _nvm_base():
    return _charging._DEV_BASE[DeviceKind.NVM]


class TestChargeColumns:
    def test_reduce_sums_by_device_and_kind(self):
        cols = ChargeColumns()
        base = _dram_base()
        for code, amount in [
            (base + KIND_READ, 100),
            (base + KIND_WRITE, 7),
            (base + KIND_READ, 23),
            (base + KIND_RANDOM_READ, 5),
        ]:
            cols.codes.append(code)
            cols.amounts.append(amount)
        assert cols.reduce() == [(DeviceKind.DRAM, [123, 7, 5, 0])]

    def test_first_touch_order_is_row_order(self):
        cols = ChargeColumns()
        for code in [_nvm_base(), _dram_base(), _nvm_base() + KIND_WRITE]:
            cols.codes.append(code)
            cols.amounts.append(1)
        devices = [device for device, _ in cols.reduce()]
        assert devices == [DeviceKind.NVM, DeviceKind.DRAM]

    def test_clear_empties_but_keeps_buffer_objects(self):
        cols = ChargeColumns()
        codes_buf, amounts_buf = cols.codes, cols.amounts
        cols.codes.append(_dram_base())
        cols.amounts.append(9)
        cols.clear()
        assert len(cols) == 0
        # The accumulator caches bound .append methods; clear() must
        # empty in place, not rebind fresh arrays.
        assert cols.codes is codes_buf and cols.amounts is amounts_buf

    @pytest.mark.skipif(_charging._np is None, reason="numpy not available")
    def test_numpy_and_fallback_reductions_agree(self, monkeypatch):
        import random

        rng = random.Random(42)
        cols = ChargeColumns()
        all_codes = [
            base + kind
            for base in (_dram_base(), _nvm_base())
            for kind in (KIND_READ, KIND_WRITE, KIND_RANDOM_READ, 3)
        ]
        for _ in range(1000):
            cols.codes.append(rng.choice(all_codes))
            cols.amounts.append(rng.randrange(1, 10**12))
        with_numpy = cols.reduce()
        monkeypatch.setattr(_charging, "_np", None)
        scalar = cols.reduce()
        assert with_numpy == scalar

    @pytest.mark.skipif(_charging._np is None, reason="numpy not available")
    def test_numpy_reduce_is_integer_exact(self):
        cols = ChargeColumns()
        # 2**53 + 1 is not representable in float64: a float accumulator
        # would round it away, the int64 accumulator must not.
        big = 2**53 + 1
        for _ in range(max(_charging._NUMPY_MIN_ROWS, 200)):
            cols.codes.append(_dram_base())
            cols.amounts.append(big)
        [(device, entry)] = cols.reduce()
        assert device is DeviceKind.DRAM
        assert entry[KIND_READ] == big * max(_charging._NUMPY_MIN_ROWS, 200)


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
    """The reference cost plane: one ``TrafficSet.add`` per charge."""

    def __init__(self, traffic):
        self.traffic = traffic

    def visit(self, obj):
        device = obj.space.device
        if device is None:
            device = obj.space.chunk_map.device_of(obj.addr)
        self.traffic.add(device, read_bytes=HEADER_BYTES, random_reads=1)

    def visit_all(self, objs):
        for obj in objs:
            self.visit(obj)

    def stream_read(self, obj):
        for device, nbytes in obj.space.object_traffic(obj):
            self.traffic.add(device, read_bytes=nbytes)

    def copy(self, src_pieces, obj, dst_space):
        for device, nbytes in src_pieces:
            self.traffic.add(device, read_bytes=nbytes)
        dst = dst_space.device_of(min(dst_space.top, dst_space.end - 1))
        self.traffic.add(dst, write_bytes=obj.size)
        return obj.size

    def read(self, device, nbytes):
        self.traffic.add(device, read_bytes=nbytes)

    def write(self, device, nbytes):
        self.traffic.add(device, write_bytes=nbytes)

    def flush(self):
        pass


def _drive(sink, flush_each=False):
    """One mixed charge sequence touching every primitive."""
    dram_objs = [_fake_obj(DeviceKind.DRAM) for _ in range(20)]
    nvm_objs = [_fake_obj(DeviceKind.NVM) for _ in range(3)]
    charges = [partial(sink.visit, obj) for obj in dram_objs[:4]]
    charges += [
        partial(sink.visit_all, dram_objs + nvm_objs),  # long: run-grouping path
        partial(sink.visit_all, nvm_objs),  # short: per-object path
        partial(sink.stream_read, _fake_obj(DeviceKind.NVM, size=4096)),
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
        if flush_each:
            sink.flush()
    sink.flush()
    return sink.traffic


def _traffic_fingerprint(traffic):
    return [
        (device.value, t.read_bytes, t.write_bytes, t.random_reads, t.random_writes)
        for device, t in traffic.per_device.items()
    ]


class TestChargeAccumulator:
    def test_vectorised_matches_scalar_totals_and_device_order(self):
        batched = _drive(ChargeAccumulator(TrafficSet()))
        reference = _drive(PerChargeDeposits(TrafficSet()))
        assert _traffic_fingerprint(batched) == _traffic_fingerprint(reference)

    def test_per_charge_flushing_matches_too(self):
        flushed = _drive(ChargeAccumulator(TrafficSet()), flush_each=True)
        reference = _drive(PerChargeDeposits(TrafficSet()))
        assert _traffic_fingerprint(flushed) == _traffic_fingerprint(reference)

    def test_visit_pair_merge_collapses_rows(self):
        acc = ChargeAccumulator(TrafficSet())
        for obj in [_fake_obj(DeviceKind.DRAM) for _ in range(50)]:
            acc.visit(obj)
        # 50 visits on one device coalesce into one [header, random] pair.
        assert len(acc._cols) == 2
        acc.flush()
        t = acc.traffic.per_device[DeviceKind.DRAM]
        assert t.read_bytes == 50 * HEADER_BYTES
        assert t.random_reads == 50

    def test_copy_pair_merge_collapses_rows(self):
        acc = ChargeAccumulator(TrafficSet())
        dst = _dst_space(DeviceKind.DRAM)
        for _ in range(30):
            obj = _fake_obj(DeviceKind.NVM, size=128)
            acc.copy([(DeviceKind.NVM, 128)], obj, dst)
        assert len(acc._cols) == 2
        acc.flush()
        assert acc.traffic.per_device[DeviceKind.NVM].read_bytes == 30 * 128
        assert acc.traffic.per_device[DeviceKind.DRAM].write_bytes == 30 * 128

    def test_flush_clears_and_is_idempotent(self):
        acc = ChargeAccumulator(TrafficSet())
        acc.read(DeviceKind.DRAM, 10)
        acc.flush()
        acc.flush()
        t = acc.traffic.per_device[DeviceKind.DRAM]
        assert t.read_bytes == 10

    def test_visit_all_long_path_matches_per_object(self):
        objs = [
            _fake_obj([DeviceKind.DRAM, DeviceKind.NVM][i % 3 == 2])
            for i in range(40)
        ]
        bulk = ChargeAccumulator(TrafficSet())
        bulk.visit_all(objs)
        bulk.flush()
        single = ChargeAccumulator(TrafficSet())
        for obj in objs:
            single.visit(obj)
        single.flush()
        assert _traffic_fingerprint(bulk.traffic) == _traffic_fingerprint(
            single.traffic
        )


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
        machine.run_batch(
            {device: Traffic(rb, wb, rr, rw)}, threads=threads, cpu_ns=cpu
        )


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

    def test_random_traffic_charges_cache_lines(self):
        machine = self._fresh_machine()
        machine.run_rows([(DeviceKind.DRAM, 0.0, 0.0, 5, 3, 0.0)])
        counters = machine.devices[DeviceKind.DRAM].counters
        assert counters.read_bytes == 5 * CACHE_LINE_BYTES
        assert counters.write_bytes == 3 * CACHE_LINE_BYTES


# -- end-to-end byte-identity of the two reductions ------------------------


@contextmanager
def numpy_reduction():
    """Reduce every flush with numpy, however few rows it holds (the
    coalesced columns of a small cell stay under ``_NUMPY_MIN_ROWS``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_charging, "_NUMPY_MIN_ROWS", 1)
        yield


class TestCostPlaneIdentity:
    @pytest.mark.parametrize("workload", ["PR", "CC"])
    def test_traced_faulted_cell_identical_either_plane(self, workload):
        """The corpus's traced, shuffle-killed s0.01 cell digests the
        same whether charge columns reduce with numpy or the array loop."""
        cell = corpus.Cell(workload, PolicyName.PANTHERA, corpus.PRESSURES[0])
        with numpy_reduction():
            vectorised = cell.run()
        with numpy_absent(_charging):
            scalar = cell.run()
        assert vectorised == scalar


class TestCostPlanePropertyAB:
    """Random traced (and sometimes faulted) pipelines are byte-identical
    under the numpy and ``array``-loop reductions."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        records=DATASET,
        steps=st.lists(STEP, min_size=1, max_size=5),
        kill=st.booleans(),
    )
    def test_random_pipelines_identical_across_planes(self, records, steps, kill):
        with numpy_reduction():
            vectorised = run_traced_pipeline(records, steps, kill)
        with numpy_absent(_charging):
            scalar = run_traced_pipeline(records, steps, kill)
        assert vectorised == scalar
