"""Tests for heap spaces: bump allocation, padding, device resolution."""

import pytest
from hypothesis import given, strategies as st

from repro.config import DeviceKind, MiB
from repro.errors import HeapError
from repro.heap.object_model import HeapObject, ObjKind
from repro.heap.spaces import Space
from repro.memory.interleave import ChunkMap


def make_space(size=16 * MiB, device=DeviceKind.DRAM):
    return Space("test", base=0x1000, size=size, generation="old", device=device)


class TestAllocation:
    def test_bump_allocation_is_sequential(self):
        space = make_space()
        a = space.allocate(100)
        b = space.allocate(200)
        assert b == a + 100

    def test_allocation_failure_returns_none(self):
        space = make_space(size=100)
        assert space.allocate(101) is None

    def test_exact_fit_succeeds(self):
        space = make_space(size=100)
        assert space.allocate(100) is not None
        assert space.free == 0

    def test_align_end_to_card(self):
        space = make_space()
        space.allocate(100)  # misalign the cursor
        addr = space.allocate(1000, align_end_to=512)
        assert (space.top) % 512 == 0
        assert addr is not None

    def test_align_no_padding_when_already_aligned(self):
        space = make_space()
        addr = space.allocate(512, align_end_to=512)
        # base 0x1000 is card-aligned; 512 bytes end on a boundary already.
        assert space.top == addr + 512

    def test_negative_allocation_rejected(self):
        with pytest.raises(HeapError):
            make_space().allocate(-1)

    def test_used_free_accounting(self):
        space = make_space(size=1000)
        space.allocate(300)
        assert space.used == 300
        assert space.free == 700

    def test_reset_empties(self):
        space = make_space()
        obj = HeapObject(ObjKind.DATA, 100)
        space.place(obj)
        space.reset()
        assert space.used == 0
        assert not space.objects


class TestPlace:
    def test_place_sets_location(self):
        space = make_space()
        obj = HeapObject(ObjKind.DATA, 64)
        assert space.place(obj)
        assert space.holds(obj)
        assert space.contains(obj.addr)
        assert obj in space.objects

    def test_place_moves_between_spaces(self):
        a, b = make_space(), Space("b", 0x100_0000, MiB, "old", device=DeviceKind.NVM)
        obj = HeapObject(ObjKind.DATA, 64)
        a.place(obj)
        b.place(obj)
        assert b.holds(obj)
        assert obj not in a.objects
        assert obj in b.objects

    def test_place_failure_leaves_object_untouched(self):
        space = make_space(size=10)
        obj = HeapObject(ObjKind.DATA, 100)
        assert not space.place(obj)
        assert obj.addr is None


class TestDeviceResolution:
    def test_homogeneous_device(self):
        space = make_space(device=DeviceKind.NVM)
        assert space.device_of(0x1000) is DeviceKind.NVM

    def test_traffic_split_homogeneous(self):
        space = make_space()
        assert space.traffic_split(0x1000, 100) == [(DeviceKind.DRAM, 100)]

    def test_chunked_space(self):
        chunk_map = ChunkMap(0x1000, 16 * MiB, MiB, dram_probability=0.5, seed=3)
        space = Space("chunked", 0x1000, 16 * MiB, "old", chunk_map=chunk_map)
        obj = HeapObject(ObjKind.RDD_ARRAY, 3 * MiB)
        space.place(obj)
        pieces = space.object_traffic(obj)
        assert sum(n for _, n in pieces) == 3 * MiB

    def test_space_requires_exactly_one_backing(self):
        with pytest.raises(HeapError):
            Space("bad", 0, MiB, "old")
        chunk_map = ChunkMap(0, MiB, MiB, 0.5)
        with pytest.raises(HeapError):
            Space("bad", 0, MiB, "old", device=DeviceKind.DRAM, chunk_map=chunk_map)

    def test_unplaced_object_traffic_rejected(self):
        space = make_space()
        with pytest.raises(HeapError):
            space.object_traffic(HeapObject(ObjKind.DATA, 10))


class TestAccounting:
    def test_live_bytes(self):
        space = make_space()
        for size in (100, 200, 300):
            space.place(HeapObject(ObjKind.DATA, size))
        assert space.live_bytes() == 600

    def test_device_histogram_homogeneous(self):
        space = make_space()
        space.place(HeapObject(ObjKind.DATA, 128))
        assert space.device_histogram() == {DeviceKind.DRAM: 128}

    def test_iter_objects_by_addr_sorted(self):
        space = make_space()
        objs = [HeapObject(ObjKind.DATA, 50) for _ in range(5)]
        for obj in objs:
            space.place(obj)
        ordered = list(space.iter_objects_by_addr())
        addrs = [o.addr for o in ordered]
        assert addrs == sorted(addrs)

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4096), max_size=50))
    def test_allocations_never_overlap(self, sizes):
        space = make_space()
        spans = []
        for size in sizes:
            addr = space.allocate(size, align_end_to=512 if size % 2 else None)
            if addr is None:
                continue
            for start, end in spans:
                assert addr >= end or addr + size <= start
            spans.append((addr, addr + size))
        assert space.top <= space.end
