"""Card table tests: dirtying, shared-card sticking, padding immunity."""

import pytest

from repro.config import DeviceKind, MiB
from repro.errors import HeapError
from repro.heap.card_table import CardTable
from repro.heap.object_model import HeapObject, ObjKind
from repro.heap.spaces import Space


def placed_array(space, size, padded=False):
    obj = HeapObject(ObjKind.RDD_ARRAY, size)
    assert space.place(obj, align_end_to=512 if padded else None)
    obj.padded = padded
    return obj


@pytest.fixture
def space():
    return Space("old", base=0, size=64 * MiB, generation="old", device=DeviceKind.DRAM)


@pytest.fixture
def table():
    return CardTable()


class TestRegistration:
    def test_register_and_query(self, table, space):
        obj = placed_array(space, 4096)
        table.register(obj)
        assert table.is_registered(obj)

    def test_unregister(self, table, space):
        obj = placed_array(space, 4096)
        table.register(obj)
        table.unregister(obj)
        assert not table.is_registered(obj)
        assert obj not in table.dirty_objects

    def test_unregister_unknown_is_noop(self, table, space):
        table.unregister(placed_array(space, 64))

    def test_register_unplaced_rejected(self, table):
        with pytest.raises(HeapError):
            table.register(HeapObject(ObjKind.RDD_ARRAY, 100))

    def test_reregister_updates_span(self, table, space):
        obj = placed_array(space, 4096)
        table.register(obj)
        # Move it (compaction) and re-register.
        obj.addr += 8192
        table.register(obj)
        assert table.is_registered(obj)


class TestDirtying:
    def test_mark_dirty_appears_in_plan(self, table, space):
        obj = placed_array(space, 4096, padded=True)
        table.register(obj)
        table.mark_dirty(obj)
        fresh, stuck = table.scan_plan()
        assert obj in fresh

    def test_dirty_unregistered_rejected(self, table, space):
        with pytest.raises(HeapError):
            table.mark_dirty(placed_array(space, 64))

    def test_after_minor_scan_cleans_fresh(self, table, space):
        obj = placed_array(space, 4096, padded=True)
        table.register(obj)
        table.mark_dirty(obj)
        table.after_minor_scan()
        fresh, stuck = table.scan_plan()
        assert obj not in fresh
        assert obj not in stuck


class TestSharedCardSticking:
    """§4.2.3: unpadded large arrays end mid-card; the shared card can
    never be cleaned and both arrays are rescanned every minor GC."""

    def test_misaligned_dirty_array_becomes_stuck(self, table, space):
        obj = placed_array(space, 1000)  # 1000 % 512 != 0
        table.register(obj)
        table.mark_dirty(obj)
        _, stuck = table.scan_plan()
        assert obj in stuck

    def test_stuck_survives_minor_scans(self, table, space):
        obj = placed_array(space, 1000)
        table.register(obj)
        table.mark_dirty(obj)
        table.after_minor_scan()
        _, stuck = table.scan_plan()
        assert obj in stuck

    def test_padded_array_never_stuck(self, table, space):
        obj = placed_array(space, 1000, padded=True)
        table.register(obj)
        table.mark_dirty(obj)
        _, stuck = table.scan_plan()
        assert obj not in stuck

    def test_neighbor_sharing_boundary_card_dragged_in(self, table, space):
        a = placed_array(space, 1000)
        b = placed_array(space, 1000)  # starts in a's last card
        table.register(a)
        table.register(b)
        assert b in table.neighbors_sharing_card(a)
        table.mark_dirty(a)
        _, stuck = table.scan_plan()
        assert a in stuck and b in stuck

    def test_padded_arrays_are_not_neighbors(self, table, space):
        a = placed_array(space, 1000, padded=True)
        b = placed_array(space, 1000, padded=True)
        table.register(a)
        table.register(b)
        assert table.neighbors_sharing_card(a) == set()

    def test_major_gc_clears_everything(self, table, space):
        obj = placed_array(space, 1000)
        table.register(obj)
        table.mark_dirty(obj)
        table.clear_all()
        fresh, stuck = table.scan_plan()
        assert not fresh and not stuck

    def test_unregister_removes_from_stuck(self, table, space):
        obj = placed_array(space, 1000)
        table.register(obj)
        table.mark_dirty(obj)
        table.unregister(obj)
        _, stuck = table.scan_plan()
        assert obj not in stuck

    def test_aligned_unpadded_array_not_stuck_alone(self, table, space):
        obj = placed_array(space, 1024)  # multiple of 512, base-aligned
        table.register(obj)
        table.mark_dirty(obj)
        _, stuck = table.scan_plan()
        assert obj not in stuck
