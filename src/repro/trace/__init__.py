"""``repro.trace``: heap event tracing with per-RDD residency profiles.

The subsystem has four layers:

1. :mod:`~repro.trace.events` / :mod:`~repro.trace.bus` — the event
   vocabulary and the low-overhead recording bus the allocator, the
   minor/major GCs and the block manager publish to (disabled runs pay
   one ``is None`` check per potential event).
2. :mod:`~repro.trace.aggregate` — the streaming aggregator producing
   per-space occupancy timelines and per-RDD residency profiles
   (bytes·s in DRAM vs NVM, migration counts).
3. :mod:`~repro.trace.replay` — the trace-replay oracle: replaying a
   stream must reconstruct exactly the live-bytes-per-space the heap
   reports and the pause list :class:`~repro.gc.stats.GCStats` reports.
4. :mod:`~repro.trace.render` / :mod:`~repro.trace.export` — textual
   timelines/tables and the JSONL interchange format.

:class:`TraceSession` is the front door: it wires a bus into a heap,
its collector stats and its tag-wait state, and hands back the recorded
events.
"""

from __future__ import annotations

from typing import List

from repro.trace.aggregate import (
    ResidencyProfile,
    TraceAggregator,
    aggregate_events,
)
from repro.trace.bus import TraceBus
from repro.trace.events import TraceEvent
from repro.trace.export import (
    events_from_jsonl,
    events_to_jsonl,
    write_events_jsonl,
)
from repro.trace.render import (
    render_residency_table,
    render_timeline,
    render_trace_report,
)
from repro.trace.replay import (
    ReplayError,
    ReplayResult,
    heap_live_bytes,
    oracle_check,
    replay_events,
)


class TraceSession:
    """One tracing hookup over a heap + collector stats pair.

    Attach to a *fresh* stack (before its first allocation) so the
    replay oracle sees the heap's whole lifetime:

        session = TraceSession.attach(heap, collector.stats)
        ... run the workload ...
        problems = session.check()          # the replay oracle
        events = session.events             # the raw stream
    """

    def __init__(self, heap, stats) -> None:
        self.heap = heap
        self.stats = stats
        self.bus = TraceBus(heap.machine.clock)

    @classmethod
    def attach(cls, heap, stats) -> "TraceSession":
        """Create a session and install its bus on the heap, the GC
        stats and the §4.2.1 tag-wait state."""
        session = cls(heap, stats)
        heap.trace = session.bus
        heap.tag_wait.trace = session.bus
        stats.trace = session.bus
        return session

    @classmethod
    def attach_to_context(cls, ctx) -> "TraceSession":
        """Attach to a full :class:`~repro.spark.context.SparkContext`."""
        return cls.attach(ctx.heap, ctx.collector.stats)

    def detach(self) -> None:
        """Uninstall the bus; already-recorded events are kept."""
        self.heap.trace = None
        self.heap.tag_wait.trace = None
        self.stats.trace = None

    @property
    def events(self) -> List[TraceEvent]:
        """The recorded event stream, in emission order, with the pause
        of every collection charged so far (the machine settles first)."""
        self.heap.machine.settle()
        return self.bus.events

    def aggregate(self) -> TraceAggregator:
        """A finished aggregator over the recorded stream, settled at
        the machine clock's current time."""
        return aggregate_events(self.events, self.heap.machine.clock.now_ns)

    def check(self) -> List[str]:
        """Run the replay oracle; returns mismatch descriptions (empty
        means the trace reconstructs the heap and pause list exactly)."""
        return oracle_check(self.heap, self.stats, self.events)


__all__ = [
    "ResidencyProfile",
    "ReplayError",
    "ReplayResult",
    "TraceAggregator",
    "TraceBus",
    "TraceEvent",
    "TraceSession",
    "aggregate_events",
    "events_from_jsonl",
    "events_to_jsonl",
    "heap_live_bytes",
    "oracle_check",
    "render_residency_table",
    "render_timeline",
    "render_trace_report",
    "replay_events",
    "write_events_jsonl",
]
