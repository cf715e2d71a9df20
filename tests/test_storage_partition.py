"""Tests for storage levels (+Panthera sub-levels) and partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tags import MemoryTag
from repro.spark.partition import HashPartitioner, split_evenly, _stable_hash
from repro.spark.storage import StorageLevel, expand_level
from tests.conftest import bucket


class TestStorageLevels:
    def test_ten_levels_exist(self):
        assert len(StorageLevel) == 10  # §3: "ten existing storage levels"

    def test_memory_only_flags(self):
        level = StorageLevel.MEMORY_ONLY
        assert level.use_memory and not level.use_disk and not level.serialized

    def test_memory_and_disk_ser_flags(self):
        level = StorageLevel.MEMORY_AND_DISK_SER
        assert level.use_memory and level.use_disk and level.serialized

    def test_disk_only_flags(self):
        level = StorageLevel.DISK_ONLY
        assert not level.use_memory and level.use_disk

    def test_off_heap(self):
        assert StorageLevel.OFF_HEAP.off_heap

    def test_taggable_excludes_off_heap_and_disk_only(self):
        # §3: every level except OFF_HEAP and DISK_ONLY expands into
        # _DRAM/_NVM sub-levels.
        untaggable = {
            level for level in StorageLevel if not level.taggable
        }
        assert untaggable == {
            StorageLevel.OFF_HEAP,
            StorageLevel.DISK_ONLY,
            StorageLevel.DISK_ONLY_2,
        }


class TestExpansion:
    def test_memory_only_expands_with_tag(self):
        tagged = expand_level(StorageLevel.MEMORY_ONLY, MemoryTag.DRAM)
        assert tagged.name == "MEMORY_ONLY_DRAM"
        assert tagged.tag is MemoryTag.DRAM

    def test_off_heap_forced_to_nvm(self):
        tagged = expand_level(StorageLevel.OFF_HEAP, MemoryTag.DRAM)
        assert tagged.tag is MemoryTag.NVM
        assert tagged.name == "OFF_HEAP_NVM"

    def test_disk_only_carries_no_tag(self):
        tagged = expand_level(StorageLevel.DISK_ONLY, MemoryTag.DRAM)
        assert tagged.tag is None
        assert tagged.name == "DISK_ONLY"

    def test_no_inferred_tag(self):
        tagged = expand_level(StorageLevel.MEMORY_AND_DISK_SER, None)
        assert tagged.tag is None
        assert tagged.name == "MEMORY_AND_DISK_SER"


class TestHashPartitioner:
    def test_in_range(self):
        partitioner = HashPartitioner(4)
        for key in ["a", "bb", 17, (1, "x"), None, 3.5, b"zz"]:
            assert 0 <= partitioner.partition_of(key) < 4

    def test_deterministic(self):
        a, b = HashPartitioner(8), HashPartitioner(8)
        for key in range(100):
            assert a.partition_of(key) == b.partition_of(key)

    def test_equality_by_partition_count(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert hash(HashPartitioner(4)) == hash(HashPartitioner(4))

    def test_split_preserves_records(self):
        partitioner = HashPartitioner(3)
        records = [(k, k * 2) for k in range(50)]
        buckets = bucket(partitioner, records)
        assert sorted(r for b in buckets for r in b) == sorted(records)

    def test_split_respects_partition_of(self):
        partitioner = HashPartitioner(3)
        buckets = bucket(partitioner, [(k, None) for k in range(30)])
        for idx, records in enumerate(buckets):
            for key, _ in records:
                assert partitioner.partition_of(key) == idx

    def test_bad_partition_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)

    @given(st.integers())
    def test_stable_hash_nonnegative(self, key):
        assert _stable_hash(key) >= 0

    @given(st.text(max_size=30))
    def test_stable_hash_strings_deterministic(self, s):
        assert _stable_hash(s) == _stable_hash(s)


class TestSplitEvenly:
    def test_round_robin(self):
        buckets = split_evenly([(i, i) for i in range(10)], 3)
        assert [len(b) for b in buckets] == [4, 3, 3]

    def test_preserves_all_records(self):
        records = [(i, str(i)) for i in range(25)]
        buckets = split_evenly(records, 4)
        assert sorted(r for b in buckets for r in b) == sorted(records)
