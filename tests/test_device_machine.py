"""Tests for the device cost model and the machine's batch semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.config import (
    CACHE_LINE_BYTES,
    DRAM_SPEC,
    NVM_SPEC,
    DeviceKind,
    GiB,
)
from repro.gc.stats import GCStats
from repro.memory.device import MemoryDevice
from repro.memory import machine as machine_module
from repro.memory.machine import Machine
from tests.conftest import small_config


def _advance(machine, batches, record=None):
    """The clock advance of charging ``batches`` on ``machine`` (as a
    collection's series when ``record`` names its pause kind)."""
    if record is not None:
        machine.defer_reads(GCStats())
    before = machine.clock.now_ns
    machine.run_batch(batches, record=record)
    return machine.clock.now_ns - before


class TestDeviceCostModel:
    def make(self, spec=DRAM_SPEC):
        return MemoryDevice(spec, capacity_bytes=GiB)

    def test_pure_streaming_is_bandwidth_bound(self):
        device = self.make()
        ns = device.charge_row(30 * GiB, 0.0, 0, 0, 1)
        # 30 GiB at 30 GB/s is just over one second (GiB vs GB).
        assert ns == pytest.approx(30 * GiB / 30.0, rel=1e-9)

    def test_pure_random_is_latency_bound(self):
        device = self.make()
        ns = device.charge_row(0.0, 0.0, 1000, 0, 1)
        assert ns == pytest.approx(1000 * 120.0)

    def test_threads_and_mlp_divide_latency(self, monkeypatch):
        # A mutator series runs on 8 threads, a collection on 16.
        probes = [([(DeviceKind.DRAM, 0.0, 0.0, 1000, 0)], 0.0)]
        monkeypatch.setattr(machine_module, "MLP", 1)
        mutator = _advance(Machine(small_config()), probes)
        monkeypatch.setattr(machine_module, "MLP", 2)
        collection = _advance(Machine(small_config()), probes, record="minor")
        assert collection == pytest.approx(mutator / 4)

    def test_threads_do_not_help_bandwidth(self):
        device = self.make()
        one = device.charge_row(GiB, 0.0, 0, 0, 1)
        many = device.charge_row(GiB, 0.0, 0, 0, 16)
        assert one == many

    def test_nvm_streaming_three_times_slower_than_dram(self):
        dram = self.make(DRAM_SPEC)
        nvm = self.make(NVM_SPEC)
        ratio = nvm.charge_row(GiB, 0.0, 0, 0, 1) / dram.charge_row(GiB, 0.0, 0, 0, 1)
        assert ratio == pytest.approx(3.0)

    def test_mixed_batch_takes_max_of_components(self):
        device = self.make()
        lat = device.charge_row(0.0, 0.0, 10**6, 0, 1)
        combo = device.charge_row(1024, 0.0, 10**6, 0, 1)
        assert combo == lat

    def test_record_accumulates_bytes(self):
        device = self.make()
        device.charge_row(100, 50, 0, 0, 1)
        device.charge_row(0.0, 0.0, 2, 0, 1)
        assert device.counters.read_bytes == 100 + 2 * CACHE_LINE_BYTES
        assert device.counters.write_bytes == 50
        assert device.counters.random_reads == 2

    def test_static_power_scales_with_capacity(self):
        small = MemoryDevice(DRAM_SPEC, GiB)
        large = MemoryDevice(DRAM_SPEC, 4 * GiB)
        assert large.static_power_w() == pytest.approx(4 * small.static_power_w())

    def test_dynamic_energy_from_lines(self):
        device = self.make()
        device.charge_row(CACHE_LINE_BYTES * 10, 0.0, 0, 0, 1)
        assert device.dynamic_energy_pj() == pytest.approx(
            10 * DRAM_SPEC.read_energy_pj
        )

    @given(
        read=st.floats(min_value=0, max_value=1e12),
        write=st.floats(min_value=0, max_value=1e12),
        rr=st.integers(min_value=0, max_value=10**7),
    )
    def test_batch_time_nonnegative_and_monotone(self, read, write, rr):
        device = self.make()
        base = device.charge_row(read, write, rr, 0, 1)
        more = device.charge_row(read * 2, write, rr, 0, 1)
        assert base >= 0
        assert more >= base


class TestMachine:
    def make(self):
        return Machine(small_config())

    def test_access_advances_clock(self):
        machine = self.make()
        machine.run_batch([([(DeviceKind.DRAM, 30 * GiB, 0.0, 0, 0)], 0.0)])
        assert machine.clock.now_ns > 0

    def test_devices_run_concurrently(self):
        machine = self.make()
        duration = _advance(
            machine,
            [
                (
                    [
                        (DeviceKind.DRAM, 3 * GiB, 0.0, 0, 0),
                        (DeviceKind.NVM, GiB, 0.0, 0, 0),
                    ],
                    0.0,
                )
            ]
        )
        # DRAM: 3 GiB / 30 GB/s; NVM: 1 GiB / 10 GB/s — equal; the batch
        # takes the max, not the sum.
        assert duration == pytest.approx(GiB / 10.0, rel=1e-9)

    def test_cpu_component_can_dominate(self):
        machine = self.make()
        duration = _advance(machine, [([], 12345.0)])
        assert duration == pytest.approx(12345.0)

    def test_transfer_is_pipelined(self):
        machine = self.make()
        duration = _advance(
            machine,
            [
                (
                    [
                        (DeviceKind.DRAM, GiB, 0.0, 0, 0),
                        (DeviceKind.NVM, 0.0, GiB, 0, 0),
                    ],
                    0.0,
                )
            ]
        )
        # Bound by the slower side (NVM write at 10 GB/s).
        assert duration == pytest.approx(GiB / 10.0, rel=1e-9)

    def test_energy_counts_traffic(self):
        machine = self.make()
        machine.run_batch([([(DeviceKind.NVM, 0.0, GiB, 0, 0)], 0.0)])
        breakdown = machine.energy_breakdown()
        assert breakdown[DeviceKind.NVM].dynamic_j > 0

    def test_bandwidth_traces_recorded(self):
        machine = self.make()
        machine.run_batch([([(DeviceKind.DRAM, GiB, 0.0, 0, 0)], 0.0)])
        assert machine.bandwidth.total_bytes(DeviceKind.DRAM, False) == pytest.approx(
            GiB
        )

    def test_empty_traffic_is_skipped(self):
        machine = self.make()
        machine.run_batch([([(DeviceKind.DRAM, 0.0, 0.0, 0, 0)], 0.0)])
        assert machine.clock.now_ns == 0
        assert machine.bandwidth.series(DeviceKind.DRAM, False) == []
