"""Property-based stress tests: heap/GC invariants under random
operation sequences.

A random interleaving of allocations, reference writes, root changes and
collections must never violate the structural invariants the collector
relies on: objects live in exactly one space, addresses stay in bounds
and non-overlapping per space, roots survive, cards track only old
objects, and the clock/energy accounting stays monotonic.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MiB, PolicyName
from repro.core.tags import MemoryTag
from repro.heap.object_model import ObjKind
from tests.conftest import make_stack

POLICIES = [
    PolicyName.DRAM_ONLY,
    PolicyName.UNMANAGED,
    PolicyName.PANTHERA,
    PolicyName.KINGSGUARD_NURSERY,
    PolicyName.KINGSGUARD_WRITES,
]

# One operation = (kind, size-ish, flag)
OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["ephemeral", "object", "array", "root", "unroot", "ref",
             "minor", "major", "tag"]
        ),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(stack, ops):
    """Drive the heap with a random operation sequence."""
    heap = stack.heap
    tracked = []
    rooted = []
    for kind, magnitude, flag in ops:
        if kind == "ephemeral":
            heap.allocate_ephemeral(magnitude * 16 * 1024)
        elif kind == "object":
            obj = heap.new_object(ObjKind.DATA, magnitude * 1024)
            tracked.append(obj)
        elif kind == "array":
            if flag:
                heap.tag_wait.arm(MemoryTag.DRAM if magnitude % 2 else MemoryTag.NVM)
            array = heap.allocate_rdd_array(
                magnitude * 32 * 1024, rdd_id=magnitude
            )
            tracked.append(array)
        elif kind == "root" and tracked:
            obj = tracked[magnitude % len(tracked)]
            heap.add_root(obj)
            if obj not in rooted:
                rooted.append(obj)
        elif kind == "unroot" and rooted:
            obj = rooted.pop(magnitude % len(rooted))
            heap.remove_root(obj)
        elif kind == "ref" and len(tracked) >= 2:
            holder = tracked[magnitude % len(tracked)]
            target = tracked[(magnitude + 1) % len(tracked)]
            if holder.space is not None and target.space is not None:
                heap.write_ref(holder, target)
        elif kind == "minor":
            stack.collector.collect_minor()
        elif kind == "major":
            stack.collector.collect_major()
        elif kind == "tag" and tracked:
            obj = tracked[magnitude % len(tracked)]
            obj.set_tag(MemoryTag.DRAM if flag else MemoryTag.NVM)
        # Drop references to objects that died (space cleared) so the
        # operation stream keeps using live objects mostly.
        tracked = [o for o in tracked if o.space is not None or o in rooted]
    return rooted


def check_invariants(stack, rooted):
    heap = stack.heap
    all_spaces = heap.young_spaces + heap.old_spaces
    for space in all_spaces:
        # Bump pointer in bounds.
        assert space.base <= space.top <= space.end
        spans = []
        for obj in space.objects:
            # Residency is consistent.
            assert space.holds(obj)
            assert obj.addr is not None
            assert space.contains(obj.addr)
            assert obj.addr + obj.size <= space.top
            spans.append((obj.addr, obj.addr + obj.size))
        # No two objects overlap.
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
    # Every object lives in at most one space.
    seen = {}
    for space in all_spaces:
        for obj in space.objects:
            assert obj.oid not in seen, "object resident in two spaces"
            seen[obj.oid] = space
    # Roots survive collections.
    for obj in rooted:
        assert obj.space is not None, "a rooted object was collected"
    # Card table only tracks placed objects.
    for obj in heap.card_table.tracked():
        assert obj.addr is not None


@pytest.mark.parametrize("policy", POLICIES)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=OPERATIONS)
def test_heap_invariants_under_random_ops(policy, ops):
    stack = make_stack(policy)
    rooted = apply_ops(stack, ops)
    check_invariants(stack, rooted)
    # And after a final full GC everything still holds.
    stack.collector.collect_major()
    check_invariants(stack, rooted)


@settings(max_examples=30, deadline=None)
@given(ops=OPERATIONS)
def test_clock_and_energy_monotone(ops):
    stack = make_stack(PolicyName.PANTHERA)
    last_time = 0.0
    last_energy = 0.0
    for i in range(0, len(ops), 5):
        apply_ops(stack, ops[i : i + 5])
        now = stack.machine.elapsed_s
        energy = stack.machine.energy_j()
        assert now >= last_time
        assert energy >= last_energy - 1e-9
        last_time, last_energy = now, energy


@settings(max_examples=25, deadline=None)
@given(ops=OPERATIONS)
def test_rooted_objects_never_lost_and_bits_preserved(ops):
    stack = make_stack(PolicyName.PANTHERA)
    heap = stack.heap
    anchor = heap.new_object(ObjKind.RDD_TOP, 4096)
    anchor.set_tag(MemoryTag.DRAM)
    heap.add_root(anchor)
    apply_ops(stack, ops)
    assert anchor.space is not None
    assert anchor.tag is MemoryTag.DRAM  # DRAM can never be downgraded


@settings(max_examples=25, deadline=None)
@given(ops=OPERATIONS)
def test_panthera_padded_arrays_never_stuck(ops):
    stack = make_stack(PolicyName.PANTHERA)
    apply_ops(stack, ops)
    assert stack.collector.stats.stuck_rescans == 0


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2 * MiB), min_size=1, max_size=30)
)
def test_compaction_preserves_live_bytes(sizes):
    stack = make_stack(PolicyName.PANTHERA)
    heap = stack.heap
    live = []
    for i, size in enumerate(sizes):
        array = heap.allocate_rdd_array(size, rdd_id=i)
        if i % 2 == 0:
            heap.add_root(array)
            live.append(array)
    before = sorted((o.oid, o.size) for o in live)
    stack.collector.collect_major()
    after = sorted(
        (o.oid, o.size)
        for space in heap.old_spaces
        for o in space.objects
        if o.is_array
    )
    # Every live array survived with its size intact.
    for item in before:
        assert item in after
