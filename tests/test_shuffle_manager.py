"""Direct tests for the shuffle-file registry and NVM spec overrides."""

import pytest

from repro.config import DeviceKind, GiB, NVM_SPEC
from repro.errors import SparkError
from repro.memory.machine import Machine
from repro.spark.shuffle import ShuffleManager
from tests.conftest import small_config


class TestShuffleManager:
    def test_write_then_read(self):
        manager = ShuffleManager()
        manager.write(0, [[(1, "a")], [(2, "b")]], [100.0, 200.0])
        assert manager.has(0)
        assert manager.read(0, 0) == [(1, "a")]
        assert manager.read(0, 1) == [(2, "b")]

    def test_read_shares_stored_records(self):
        # Reads serve the stored list itself: no internal consumer
        # mutates record lists.
        manager = ShuffleManager()
        manager.write(0, [[(1, "a")]], [10.0])
        assert manager.read(0, 0) is manager._outputs[0][0]

    def test_double_write_rejected(self):
        manager = ShuffleManager()
        manager.write(1, [[]], [0.0])
        with pytest.raises(SparkError):
            manager.write(1, [[]], [0.0])

    def test_missing_shuffle_rejected(self):
        with pytest.raises(SparkError):
            ShuffleManager().read(7, 0)

    def test_size_mismatch_rejected(self):
        with pytest.raises(SparkError):
            ShuffleManager().write(2, [[], []], [1.0])

    def test_serialized_bytes(self):
        manager = ShuffleManager()
        manager.write(3, [[], []], [128.0, 256.0])
        assert manager.serialized_bytes(3, 1) == 256.0

    def test_ordinals_keep_counting_after_a_release(self):
        # The shuffle service stripes partition owners by ordinal: a
        # release restarting them at 0 would move every owner.
        manager = ShuffleManager()
        manager.write(10, [[]], [0.0])
        manager.write(11, [[]], [0.0])
        manager.release()
        manager.write(12, [[]], [0.0])
        manager.write(10, [[]], [0.0])
        assert manager.ordinal(12) == 2
        assert manager.ordinal(10) == 3

    def test_released_shuffle_reads_as_never_written(self):
        manager = ShuffleManager()
        manager.write(4, [[(1, "a")], [(2, "b")]], [10.0, 20.0])
        manager.invalidate(4, 1)
        manager.release()
        assert not manager.has(4)
        assert not manager.is_lost(4, 1)
        for pidx in (0, 1):
            with pytest.raises(SparkError, match="has not been written"):
                manager.read(4, pidx)
        with pytest.raises(KeyError):
            manager.ordinal(4)


class TestNvmSpecOverride:
    def test_default_uses_table2(self):
        machine = Machine(small_config())
        spec = machine.devices[DeviceKind.NVM].spec
        assert spec.read_latency_ns == NVM_SPEC.read_latency_ns
        assert spec.read_bandwidth_gbps == NVM_SPEC.read_bandwidth_gbps

    def test_latency_factor_applied(self):
        config = small_config(nvm_latency_factor=1.6)
        machine = Machine(config)
        spec = machine.devices[DeviceKind.NVM].spec
        assert spec.read_latency_ns == pytest.approx(
            NVM_SPEC.read_latency_ns * 1.6
        )

    def test_bandwidth_factor_applied(self):
        config = small_config(nvm_bandwidth_factor=0.5)
        machine = Machine(config)
        spec = machine.devices[DeviceKind.NVM].spec
        assert spec.read_bandwidth_gbps == pytest.approx(5.0)

    def test_slower_nvm_costs_more(self):
        fast = Machine(small_config())
        slow = Machine(small_config(nvm_bandwidth_factor=0.25))
        fast_ns = fast.devices[DeviceKind.NVM].charge_row(GiB, 0.0, 0, 0, 1)
        slow_ns = slow.devices[DeviceKind.NVM].charge_row(GiB, 0.0, 0, 0, 1)
        assert slow_ns == pytest.approx(4 * fast_ns)

    def test_dram_unaffected_by_nvm_factors(self):
        machine = Machine(small_config(nvm_latency_factor=2.0))
        assert machine.devices[DeviceKind.DRAM].spec.read_latency_ns == 120.0
