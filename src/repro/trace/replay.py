"""The trace-replay oracle: reconstruct heap state from events alone.

A trace is complete when replaying it — applying every alloc / move /
free event to an empty model — reproduces exactly the live-bytes-per-
space the real heap reports and the pause list
:class:`~repro.gc.stats.GCStats` reports.  That closes the loop: the
tracer is not just a reporter, it is a cross-checking correctness tool
for the heap/GC core.  Any drift (a missed free, a promotion recorded
against the wrong source space, a migration that teleports bytes) shows
up as a concrete mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.errors import ReproError
from repro.trace.events import (
    ALLOC,
    FREE,
    GC_PAUSE,
    INFORMATIONAL_KINDS,
    MOVE_KINDS,
    TraceEvent,
)


class ReplayError(ReproError):
    """An event stream is internally inconsistent (strict replay only)."""


@dataclass
class ReplayResult:
    """The heap state reconstructed from an event stream.

    Attributes:
        live_bytes: space name -> payload bytes of live objects.
        pauses: (kind, start_ns, duration_ns) per GC, in order.
        object_space: oid -> space name of every live object.
        object_size: oid -> payload size of every live object.
        event_count: events consumed (informational kinds included).
    """

    live_bytes: Dict[str, int] = field(default_factory=dict)
    pauses: List[Tuple[str, float, float]] = field(default_factory=list)
    object_space: Dict[int, str] = field(default_factory=dict)
    object_size: Dict[int, int] = field(default_factory=dict)
    event_count: int = 0

    def total_live_bytes(self) -> int:
        """Live bytes summed over every space."""
        return sum(self.live_bytes.values())


def replay_events(
    events: Iterable[TraceEvent], strict: bool = True
) -> ReplayResult:
    """Replay an event stream into a :class:`ReplayResult`.

    Args:
        events: the stream, in emission order.
        strict: raise :class:`ReplayError` on internal inconsistencies
            (unknown oids, wrong source spaces, double allocation);
            when False such events are skipped — useful for traces that
            started mid-run.
    """
    state = ReplayResult()
    for event in events:
        state.event_count += 1
        kind = event.kind
        if kind == ALLOC:
            _apply_alloc(state, event, strict)
        elif kind in MOVE_KINDS:
            _apply_move(state, event, strict)
        elif kind == FREE:
            _apply_free(state, event, strict)
        elif kind == GC_PAUSE:
            state.pauses.append((event.pause_kind, event.t_ns, event.duration_ns))
        elif kind not in INFORMATIONAL_KINDS and strict:
            raise ReplayError(f"unknown event kind {kind!r}")
    return state


def _apply_alloc(state: ReplayResult, event: TraceEvent, strict: bool) -> None:
    """Apply one ALLOC event."""
    if event.oid in state.object_space:
        if strict:
            raise ReplayError(f"object {event.oid} allocated twice")
        return
    size = int(event.size)
    state.object_space[event.oid] = event.space
    state.object_size[event.oid] = size
    state.live_bytes[event.space] = state.live_bytes.get(event.space, 0) + size


def _apply_move(state: ReplayResult, event: TraceEvent, strict: bool) -> None:
    """Apply one move (copy / promote / migrate) event."""
    current = state.object_space.get(event.oid)
    if current is None:
        if strict:
            raise ReplayError(f"move of unknown object {event.oid}")
        return
    if current != event.src_space:
        if strict:
            raise ReplayError(
                f"object {event.oid} moved from {event.src_space!r} but "
                f"replay places it in {current!r}"
            )
        return
    size = state.object_size[event.oid]
    state.live_bytes[current] -= size
    state.object_space[event.oid] = event.space
    state.live_bytes[event.space] = state.live_bytes.get(event.space, 0) + size


def _apply_free(state: ReplayResult, event: TraceEvent, strict: bool) -> None:
    """Apply one FREE event."""
    current = state.object_space.pop(event.oid, None)
    if current is None:
        if strict:
            raise ReplayError(f"free of unknown object {event.oid}")
        return
    if current != event.space and strict:
        raise ReplayError(
            f"object {event.oid} freed in {event.space!r} but replay "
            f"places it in {current!r}"
        )
    state.live_bytes[current] -= state.object_size.pop(event.oid)


def heap_live_bytes(heap) -> Dict[str, int]:
    """The live-bytes-per-space the heap itself reports, for every space
    (young, old and native) that holds at least one object."""
    snapshot: Dict[str, int] = {}
    for space in heap.young_spaces + heap.old_spaces + [heap.native]:
        nbytes = space.live_bytes()
        if nbytes or space.objects:
            snapshot[space.name] = nbytes
    return snapshot


def oracle_check(heap, stats, events: Iterable[TraceEvent]) -> List[str]:
    """Run the replay oracle against a live heap and its GC stats.

    Args:
        heap: the :class:`~repro.heap.managed_heap.ManagedHeap` whose
            lifetime the trace covers (from its very first allocation).
        stats: the :class:`~repro.gc.stats.GCStats` of the same run.
        events: the recorded trace.

    Returns:
        A list of human-readable mismatch descriptions; empty when the
        replayed state matches the heap and stats exactly.
    """
    problems: List[str] = []
    # Pauses still queued would reach the stream and ``stats`` only
    # after the replay below has read the stream.
    machine = heap.machine
    machine.settle()
    if machine.pending:
        problems.append(f"{machine.pending} charge batches still queued after a settle")
    try:
        replayed = replay_events(events, strict=True)
    except ReplayError as exc:
        return problems + [f"replay failed: {exc}"]
    actual = heap_live_bytes(heap)
    reconstructed = {
        name: nbytes for name, nbytes in replayed.live_bytes.items() if nbytes
    }
    actual_nonzero = {name: nbytes for name, nbytes in actual.items() if nbytes}
    if reconstructed != actual_nonzero:
        for name in sorted(set(reconstructed) | set(actual_nonzero)):
            want = actual_nonzero.get(name, 0)
            got = reconstructed.get(name, 0)
            if want != got:
                problems.append(
                    f"space {name!r}: heap reports {want} live bytes, "
                    f"replay reconstructs {got}"
                )
    if replayed.pauses != list(stats.pauses):
        problems.append(
            f"pause list mismatch: stats has {len(stats.pauses)} pauses, "
            f"replay has {len(replayed.pauses)}"
            if len(replayed.pauses) != len(stats.pauses)
            else "pause list mismatch: same length, different entries"
        )
    return problems
