"""Configuration tests: Table 2 device parameters and sizing invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.config import (
    DISK_SPEC,
    DRAM_SPEC,
    GiB,
    MiB,
    NVM_SPEC,
    DeviceKind,
    PolicyName,
    SystemConfig,
    dram_only_config,
    hybrid_config,
)
from repro.errors import ConfigError


class TestTable2DeviceSpecs:
    """The emulated device parameters of Table 2."""

    def test_dram_read_latency_is_120ns(self):
        assert DRAM_SPEC.read_latency_ns == 120.0

    def test_nvm_read_latency_is_300ns_one_hop(self):
        assert NVM_SPEC.read_latency_ns == 300.0

    def test_nvm_latency_ratio_in_paper_range(self):
        # "the latency of an NVM read is 2-4x larger than a DRAM read"
        ratio = NVM_SPEC.read_latency_ns / DRAM_SPEC.read_latency_ns
        assert 2.0 <= ratio <= 4.0

    def test_dram_bandwidth_is_30gbps(self):
        assert DRAM_SPEC.read_bandwidth_gbps == 30.0

    def test_nvm_bandwidth_is_10gbps_each_direction(self):
        assert NVM_SPEC.read_bandwidth_gbps == 10.0
        assert NVM_SPEC.write_bandwidth_gbps == 10.0

    def test_nvm_bandwidth_fraction_of_dram(self):
        # "NVM's bandwidth is about 1/8 - 1/3 of that of DRAM"
        ratio = NVM_SPEC.read_bandwidth_gbps / DRAM_SPEC.read_bandwidth_gbps
        assert 1 / 8 <= ratio <= 1 / 3

    def test_nvm_write_energy_exceeds_dram_write_energy(self):
        assert NVM_SPEC.write_energy_pj > DRAM_SPEC.write_energy_pj

    def test_nvm_read_energy_below_dram_read_energy(self):
        # "Reads on NVM consume less energy than on DRAM" (§5.1)
        assert NVM_SPEC.read_energy_pj < DRAM_SPEC.read_energy_pj

    def test_nvm_static_power_negligible_vs_dram(self):
        assert NVM_SPEC.static_mw_per_gb < DRAM_SPEC.static_mw_per_gb / 10

    def test_disk_slower_than_both_memories(self):
        assert DISK_SPEC.read_bandwidth_gbps < NVM_SPEC.read_bandwidth_gbps

    def test_device_kinds(self):
        assert DRAM_SPEC.kind is DeviceKind.DRAM
        assert NVM_SPEC.kind is DeviceKind.NVM


class TestSystemConfig:
    def test_basic_construction(self):
        cfg = SystemConfig(heap_bytes=GiB, dram_bytes=GiB, nvm_bytes=0)
        assert cfg.total_memory_bytes == GiB
        assert cfg.dram_ratio == 1.0

    def test_nursery_is_one_sixth_by_default(self):
        cfg = SystemConfig(heap_bytes=60 * MiB, dram_bytes=60 * MiB, nvm_bytes=0)
        assert cfg.nursery_bytes == 10 * MiB

    def test_old_gen_is_heap_minus_nursery(self):
        cfg = SystemConfig(heap_bytes=60 * MiB, dram_bytes=60 * MiB, nvm_bytes=0)
        assert cfg.old_gen_bytes == 50 * MiB

    def test_heap_larger_than_memory_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(heap_bytes=2 * GiB, dram_bytes=GiB, nvm_bytes=0)

    def test_zero_heap_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(heap_bytes=0, dram_bytes=GiB, nvm_bytes=0)

    def test_nursery_must_fit_in_dram(self):
        # Young generation is always DRAM-resident (§4.1).
        with pytest.raises(ConfigError):
            SystemConfig(
                heap_bytes=60 * MiB,
                dram_bytes=5 * MiB,
                nvm_bytes=55 * MiB,
            )

    def test_bad_nursery_fraction_rejected(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                heap_bytes=GiB, dram_bytes=GiB, nvm_bytes=0, nursery_fraction=1.5
            )

    def test_old_dram_plus_old_nvm_covers_old_gen(self):
        cfg = hybrid_config(64, 1 / 3)
        assert cfg.old_dram_bytes + cfg.old_nvm_bytes == cfg.old_gen_bytes

    def test_dram_only_old_gen_entirely_dram(self):
        cfg = dram_only_config(64)
        assert cfg.old_dram_bytes == cfg.old_gen_bytes
        assert cfg.old_nvm_bytes == 0

    def test_kingsguard_nursery_old_gen_entirely_nvm(self):
        cfg = hybrid_config(64, 1 / 3, policy=PolicyName.KINGSGUARD_NURSERY)
        assert cfg.old_dram_bytes == 0

    def test_replace_returns_modified_copy(self):
        cfg = dram_only_config(64)
        other = cfg.replace(seed=8)
        assert other.seed == 8
        assert cfg.seed != 8 or cfg is not other


class TestConfigBuilders:
    def test_hybrid_splits_by_ratio(self):
        cfg = hybrid_config(64, 1 / 4)
        assert cfg.dram_bytes == cfg.heap_bytes // 4
        assert cfg.dram_bytes + cfg.nvm_bytes == cfg.heap_bytes

    def test_dram_only_has_no_nvm(self):
        cfg = dram_only_config(32)
        assert cfg.nvm_bytes == 0
        assert cfg.policy is PolicyName.DRAM_ONLY

    @given(ratio=st.floats(min_value=0.2, max_value=0.9))
    def test_hybrid_ratio_roundtrip(self, ratio):
        cfg = hybrid_config(64, ratio)
        assert abs(cfg.dram_ratio - ratio) < 1e-6

    @given(heap_gb=st.floats(min_value=0.25, max_value=256))
    def test_old_spaces_partition_heap(self, heap_gb):
        cfg = hybrid_config(heap_gb, 1 / 3)
        assert cfg.nursery_bytes + cfg.old_gen_bytes == cfg.heap_bytes
