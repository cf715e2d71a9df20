"""Minor-collection tests: aging, promotion, eager promotion, tag
propagation, card hygiene (§4.2.2) and steady-scavenge replay."""

import pytest

from repro.config import TENURING_THRESHOLD, DeviceKind, MiB, PolicyName
from repro.core.tags import MEMORY_BITS_NVM, MemoryTag
from repro.gc.minor import SteadyScavenge
from repro.heap.object_model import ObjKind
from repro.heap.regions import LifetimeClass
from repro.trace import TraceSession
from repro.trace.events import GC_PAUSE
from tests.conftest import make_stack


def alloc_rooted(stack, size=1024, kind=ObjKind.DATA):
    obj = stack.heap.new_object(kind, size)
    stack.heap.add_root(obj)
    return obj


class TestSurvivorAging:
    def test_live_young_object_survives(self, dram_stack):
        obj = alloc_rooted(dram_stack)
        dram_stack.collector.collect_minor()
        assert obj.space is not None
        assert dram_stack.heap.in_young(obj)
        assert obj.age == 1

    def test_unreferenced_object_dies(self, dram_stack):
        heap = dram_stack.heap
        obj = heap.new_object(ObjKind.DATA, 1024)  # never rooted
        dram_stack.collector.collect_minor()
        assert obj not in heap.survivor_from.objects
        assert obj not in heap.survivor_to.objects

    def test_eden_reset_after_scavenge(self, dram_stack):
        dram_stack.heap.allocate_ephemeral(MiB)
        dram_stack.collector.collect_minor()
        assert dram_stack.heap.eden.used == 0

    def test_survivor_spaces_flip(self, dram_stack):
        heap = dram_stack.heap
        before_from = heap.survivor_from
        dram_stack.collector.collect_minor()
        assert heap.survivor_from is not before_from

    def test_promotion_after_tenuring_threshold(self, dram_stack):
        obj = alloc_rooted(dram_stack)
        for _ in range(TENURING_THRESHOLD):
            dram_stack.collector.collect_minor()
        assert dram_stack.heap.in_old(obj)

    def test_minor_count_recorded(self, dram_stack):
        dram_stack.collector.collect_minor()
        stats = dram_stack.collector.stats
        assert stats.minor_count == 1
        assert stats.minor_ns > 0
        assert stats.pauses[0][0] == "minor"


class TestEagerPromotion:
    def test_tagged_object_promoted_immediately(self, panthera_stack):
        obj = alloc_rooted(panthera_stack)
        obj.set_tag(MemoryTag.NVM)
        panthera_stack.collector.collect_minor()
        assert obj.space.name == "old-nvm"
        assert panthera_stack.collector.stats.eager_promoted_objects == 1

    def test_dram_tagged_object_goes_to_old_dram(self, panthera_stack):
        obj = alloc_rooted(panthera_stack)
        obj.set_tag(MemoryTag.DRAM)
        panthera_stack.collector.collect_minor()
        assert obj.space.name == "old-dram"

    def test_eager_promotion_disabled_by_config(self):
        stack = make_stack(PolicyName.PANTHERA, eager_promotion=False)
        obj = alloc_rooted(stack)
        obj.set_tag(MemoryTag.NVM)
        stack.collector.collect_minor()
        assert stack.heap.in_young(obj)

    def test_untagged_object_not_eager(self, panthera_stack):
        obj = alloc_rooted(panthera_stack)
        panthera_stack.collector.collect_minor()
        assert panthera_stack.heap.in_young(obj)


class TestTagPropagation:
    def test_array_tag_propagates_to_young_slabs(self, panthera_stack):
        heap = panthera_stack.heap
        panthera_stack.runtime.rdd_alloc(
            heap.new_object(ObjKind.RDD_TOP, 64), MemoryTag.NVM
        )
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        slab = heap.new_object(ObjKind.DATA, 64 * 1024)
        heap.write_ref(array, slab)
        panthera_stack.collector.collect_minor()
        assert slab.memory_bits == MEMORY_BITS_NVM
        assert slab.space.name == "old-nvm"

    def test_dram_wins_conflicts_during_tracing(self, panthera_stack):
        heap = panthera_stack.heap
        heap.tag_wait.arm(MemoryTag.NVM)
        nvm_array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        heap.tag_wait.arm(MemoryTag.DRAM)
        dram_array = heap.allocate_rdd_array(2 * MiB, rdd_id=2)
        shared = heap.new_object(ObjKind.DATA, 64 * 1024)
        heap.write_ref(nvm_array, shared)
        heap.write_ref(dram_array, shared)
        panthera_stack.collector.collect_minor()
        assert shared.tag is MemoryTag.DRAM
        assert shared.space.name == "old-dram"

    def test_root_with_memory_bits_moved_by_root_task(self, panthera_stack):
        # §4.2.2: tops whose bits were set by rdd_alloc are recognised in
        # the root task and moved to the old generation.
        top = alloc_rooted(panthera_stack, kind=ObjKind.RDD_TOP)
        panthera_stack.runtime.rdd_alloc(top, MemoryTag.NVM)
        panthera_stack.collector.collect_minor()
        assert top.space.name == "old-nvm"


class TestCardHygiene:
    def test_scanned_array_cleaned_once_children_promoted(self, panthera_stack):
        heap = panthera_stack.heap
        heap.tag_wait.arm(MemoryTag.NVM)
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        slab = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, slab)
        panthera_stack.collector.collect_minor()
        fresh, stuck = heap.card_table.scan_plan()
        assert array not in fresh and array not in stuck

    def test_stock_array_stays_stuck(self, dram_stack):
        heap = dram_stack.heap
        array = heap.allocate_rdd_array(2 * MiB + 7, rdd_id=1)
        slab = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, slab)
        heap.add_root(array)
        dram_stack.collector.collect_minor()
        _, stuck = heap.card_table.scan_plan()
        assert array in stuck
        assert dram_stack.collector.stats.stuck_rescans >= 1

    def test_array_with_remaining_young_refs_stays_dirty(self, dram_stack):
        heap = dram_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        heap.add_root(array)
        slab = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, slab)
        dram_stack.collector.collect_minor()
        # The slab survived into a survivor space (age 1 < threshold), so
        # the array still holds an old-to-young reference.
        assert heap.in_young(slab)
        fresh, stuck = heap.card_table.scan_plan()
        assert array in fresh or array in stuck

    def test_card_scan_bytes_accounted(self, dram_stack):
        heap = dram_stack.heap
        array = heap.allocate_rdd_array(2 * MiB, rdd_id=1)
        slab = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, slab)
        dram_stack.collector.collect_minor()
        assert dram_stack.collector.stats.card_scanned_bytes >= array.size


# -- steady scavenges: a replayed plan equals the full scavenge ------------


#: Enough streaming bytes to overflow the 6 MiB eden about ten times.
STREAM = 64 * MiB


def _rooted_array(heap, size, tag=None, rdd_id=0):
    if tag is not None:
        heap.tag_wait.arm(tag)
    array = heap.allocate_rdd_array(size, rdd_id=rdd_id)
    heap.add_root(array)
    return array


def _panthera(**kwargs):
    """Old roots on both devices, young generation empty."""
    stack = make_stack(PolicyName.PANTHERA, **kwargs)
    heap = stack.heap
    _rooted_array(heap, 96 * 1024, MemoryTag.NVM, rdd_id=1)
    _rooted_array(heap, 96 * 1024, MemoryTag.DRAM, rdd_id=2)
    _rooted_array(heap, 3 * MiB, MemoryTag.NVM, rdd_id=3)
    return stack


def _deca():
    """Deca's arenas (the policy attaches them): one array classified
    into the job arena, one unclassified array in the traced old
    space."""
    stack = make_stack(PolicyName.DECA)
    heap = stack.heap
    heap.regions.note_rdd(1, LifetimeClass.JOB)
    in_arena = _rooted_array(heap, 96 * 1024, rdd_id=1)
    traced = _rooted_array(heap, 3 * MiB, rdd_id=2)
    assert heap.regions.job.holds(in_arena)
    assert heap.old_space_named("old").holds(traced)
    return stack


def _unmanaged_stuck():
    """Three unpadded arrays on the chunk-mapped old space, dirtied, so
    they are stuck and rescanned by every scavenge."""
    stack = make_stack(PolicyName.UNMANAGED)
    heap = stack.heap
    for i in range(3):
        array = _rooted_array(heap, 3 * MiB // 2 + 100 * (i + 1), rdd_id=i)
        heap.card_table.mark_dirty(array)
    (old,) = heap.old_spaces
    assert old.device is None  # chunk-mapped
    return stack


class _StartScaled:
    """An NVM throttle whose factor depends on the batch's start."""

    def apply(self, start_ns, device_ns):
        return device_ns * (1.0 + (start_ns % 997.0) / 997.0)


def _throttled():
    stack = _panthera()
    stack.machine.nvm_throttle = _StartScaled()
    return stack


def _stream(stack):
    stack.heap.allocate_streaming(STREAM)


def _empty_eden(stack):
    """Four scavenges of an empty eden (a zero floor): the first returns
    the plan the others replay (on the full path, each runs in full)."""
    plan = stack.collector.collect_minor()
    if plan is None:
        for _ in range(3):
            stack.collector.collect_minor()
    else:
        plan.replay(stack.collector, [0, 0, 0])


def _fingerprint(stack):
    machine = stack.machine
    stats = stack.collector.stats
    return (
        repr(machine.clock.now_ns),
        {
            kind: (
                dev.counters.read_bytes,
                dev.counters.write_bytes,
                dev.counters.random_reads,
                dev.counters.random_writes,
            )
            for kind, dev in machine.devices.items()
        },
        [(key, list(bins.items())) for key, bins in machine.bandwidth._bins.items()],
        stats,
        [(kind, repr(start), repr(duration)) for kind, start, duration in stats.pauses],
    )


def _full_path_only(monkeypatch):
    monkeypatch.setattr(SteadyScavenge, "of", classmethod(lambda cls, heap: None))


def _count_builds(monkeypatch):
    """Count the steady plans built from here on."""
    builds = []
    init = SteadyScavenge.__init__

    def counting(self, heap):
        builds.append(self)
        init(self, heap)

    monkeypatch.setattr(SteadyScavenge, "__init__", counting)
    return builds


class TestSteadyScavenge:
    @pytest.mark.parametrize(
        "build,drive",
        [
            (_panthera, _stream),
            (_unmanaged_stuck, _stream),
            (_throttled, _stream),
            (_panthera, _empty_eden),
            (_unmanaged_stuck, _empty_eden),
            (_deca, _empty_eden),
        ],
        ids=[
            "panthera",
            "unmanaged-stuck",
            "nvm-throttle",
            "empty-eden",
            "stuck-empty-eden",
            "deca-regions",
        ],
    )
    def test_replay_matches_full_scavenges(self, monkeypatch, build, drive):
        with monkeypatch.context() as patch:
            _full_path_only(patch)
            full = build()
            drive(full)
        builds = _count_builds(monkeypatch)
        steady = build()
        drive(steady)
        minors = steady.collector.stats.minor_count
        assert minors >= 4
        assert 1 <= len(builds) < minors  # later scavenges replayed a plan
        assert _fingerprint(steady) == _fingerprint(full)

    def test_stuck_rescans_are_counted_per_replay(self):
        stack = _unmanaged_stuck()
        _stream(stack)
        stats = stack.collector.stats
        assert stats.stuck_rescans == 3 * stats.minor_count
        sizes = sum(root.size for root in stack.heap.iter_roots())
        # The first scavenge also scans the fresh dirt: the same arrays.
        assert stats.card_scanned_bytes == sizes * stats.minor_count

    def test_traced_replay_emits_only_pauses(self, monkeypatch):
        def traced_run():
            stack = _panthera()
            session = TraceSession.attach(stack.heap, stack.collector.stats)
            before = len(session.events)
            _stream(stack)
            return stack, session.events[before:]

        with monkeypatch.context() as patch:
            _full_path_only(patch)
            full, full_events = traced_run()
        steady, steady_events = traced_run()
        assert {event.kind for event in steady_events} == {GC_PAUSE}
        assert len(steady_events) == steady.collector.stats.minor_count
        assert [e.to_dict() for e in steady_events] == [
            e.to_dict() for e in full_events
        ]
        assert _fingerprint(steady) == _fingerprint(full)

    def test_object_in_eden_takes_the_full_path(self):
        stack = _panthera()
        stack.heap.new_object(ObjKind.DATA, 1024)  # unrooted, still resident
        assert SteadyScavenge.of(stack.heap) is None
        assert stack.collector.collect_minor() is None

    def test_survivor_only_in_from_space_takes_the_full_path(self):
        stack = _panthera()
        heap = stack.heap
        survivor = alloc_rooted(stack)
        stack.collector.collect_minor()
        heap.remove_root(survivor)
        assert not heap.eden.objects
        assert survivor in heap.survivor_from.objects
        assert SteadyScavenge.of(heap) is None
        assert stack.collector.collect_minor() is None
        assert survivor.space is None  # the full scavenge found it dead

    def test_fresh_dirty_card_takes_the_full_path(self):
        stack = _panthera()
        heap = stack.heap
        array = next(iter(heap.iter_roots()))
        heap.card_table.mark_dirty(array)
        assert heap.card_table.has_fresh_dirt()
        assert SteadyScavenge.of(heap) is None
        assert stack.collector.collect_minor() is None
        assert not heap.card_table.has_fresh_dirt()
        assert stack.collector.collect_minor() is not None

    def test_plan_does_not_outlive_its_stream(self):
        stack = _panthera()
        heap = stack.heap
        _stream(stack)
        _rooted_array(heap, 128 * 1024, MemoryTag.NVM, rdd_id=9)
        nvm = stack.machine.devices[DeviceKind.NVM].counters
        visits_before = nvm.random_reads
        minors_before = stack.collector.stats.minor_count
        _stream(stack)
        minors = stack.collector.stats.minor_count - minors_before
        nvm_roots = sum(
            root.space.device is DeviceKind.NVM for root in heap.iter_roots()
        )
        assert nvm_roots == 3
        assert nvm.random_reads - visits_before == minors * nvm_roots
