"""Energy model tests (§5.1)."""

import pytest

from repro.config import (
    CACHE_LINE_BYTES,
    DRAM_SPEC,
    GiB,
    NVM_READ_PJ_PER_CACHE_LINE,
    NVM_SPEC,
    NVM_WRITE_PJ_PER_CACHE_LINE,
    DeviceKind,
)
from repro.memory.device import MemoryDevice
from repro.memory.energy import EnergyMeter


def make_meter(static_factor=1.0):
    devices = {
        DeviceKind.DRAM: MemoryDevice(DRAM_SPEC, GiB),
        DeviceKind.NVM: MemoryDevice(NVM_SPEC, 3 * GiB),
    }
    return devices, EnergyMeter(devices, static_factor=static_factor)


class TestEnergyModel:
    def test_paper_nvm_write_constant(self):
        # §5.1's bottom line before the calibration multiplier.
        assert NVM_WRITE_PJ_PER_CACHE_LINE == 31_200.0

    def test_nvm_read_cheaper_than_write(self):
        assert NVM_READ_PJ_PER_CACHE_LINE < NVM_WRITE_PJ_PER_CACHE_LINE

    def test_static_energy_proportional_to_time(self):
        _, meter = make_meter()
        one = meter.breakdown(1.0)[DeviceKind.DRAM].static_j
        ten = meter.breakdown(10.0)[DeviceKind.DRAM].static_j
        assert ten == pytest.approx(10 * one)

    def test_static_factor_scales_static_only(self):
        devices, meter = make_meter(static_factor=5.0)
        devices[DeviceKind.DRAM].charge_row(CACHE_LINE_BYTES * 100, 0.0, 0, 0, 1)
        _, plain_meter = make_meter(static_factor=1.0)
        scaled = meter.breakdown(1.0)[DeviceKind.DRAM]
        plain = plain_meter.breakdown(1.0)[DeviceKind.DRAM]
        assert scaled.static_j == pytest.approx(5 * plain.static_j)

    def test_dynamic_energy_from_counters(self):
        devices, meter = make_meter()
        devices[DeviceKind.NVM].charge_row(0.0, CACHE_LINE_BYTES * 1000, 0, 0, 1)
        dynamic = meter.breakdown(0.0)[DeviceKind.NVM].dynamic_j
        assert dynamic == pytest.approx(1000 * NVM_SPEC.write_energy_pj / 1e12)

    def test_nvm_static_negligible(self):
        _, meter = make_meter()
        breakdown = meter.breakdown(100.0)
        # 3x the capacity but far below DRAM's static draw.
        assert breakdown[DeviceKind.NVM].static_j < breakdown[DeviceKind.DRAM].static_j

    def test_total_sums_devices(self):
        devices, meter = make_meter()
        devices[DeviceKind.DRAM].charge_row(GiB, 0.0, 0, 0, 1)
        total = meter.total_j(10.0)
        parts = sum(b.total_j for b in meter.breakdown(10.0).values())
        assert total == pytest.approx(parts)

    def test_negative_elapsed_rejected(self):
        _, meter = make_meter()
        with pytest.raises(ValueError):
            meter.breakdown(-1.0)

    def test_breakdown_total_property(self):
        devices, meter = make_meter()
        devices[DeviceKind.DRAM].charge_row(0.0, GiB, 0, 0, 1)
        b = meter.breakdown(1.0)[DeviceKind.DRAM]
        assert b.total_j == pytest.approx(b.static_j + b.dynamic_j)
