"""Streaming aggregation of heap trace events.

The :class:`TraceAggregator` consumes events one at a time, fed from a
recorded stream (``TraceSession.events`` or ``TraceBus.events``), and
maintains:

* a per-space occupancy timeline — ``(t_ns, live_bytes)`` samples taken
  whenever a space's occupancy changes (the data behind Fig. 4-7's
  placement story), and
* per-RDD residency profiles — bytes·seconds of residency in DRAM vs
  NVM, migration counts and peak footprint per RDD id (the data behind
  Table 5).

Residency attribution integrates ``live bytes x simulated time`` per
device class, settling each RDD's running integral at every event that
changes its footprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.trace.events import (
    ALLOC,
    FREE,
    GC_PAUSE,
    MIGRATE_DRAM_TO_NVM,
    MIGRATE_NVM_TO_DRAM,
    MOVE_KINDS,
    TraceEvent,
)


@dataclass
class ResidencyProfile:
    """Hybrid-memory residency of one RDD over a run.

    Attributes:
        rdd_id: the RDD the profile describes.
        dram_byte_s: integral of DRAM-resident bytes over simulated time.
        nvm_byte_s: integral of NVM-resident bytes over simulated time.
        migrations_to_dram: objects dynamically migrated NVM -> DRAM.
        migrations_to_nvm: objects dynamically migrated DRAM -> NVM.
        alloc_bytes: total bytes ever allocated for this RDD.
        freed_bytes: total bytes of this RDD found dead.
        peak_bytes: largest simultaneous live footprint.
        live_bytes: current live footprint (by device class).
    """

    rdd_id: int
    dram_byte_s: float = 0.0
    nvm_byte_s: float = 0.0
    migrations_to_dram: int = 0
    migrations_to_nvm: int = 0
    alloc_bytes: int = 0
    freed_bytes: int = 0
    peak_bytes: int = 0
    live_bytes: Dict[str, int] = field(default_factory=dict)
    _last_t_ns: float = 0.0

    def total_byte_s(self) -> float:
        """DRAM plus NVM residency (the ranking key for top-N tables)."""
        return self.dram_byte_s + self.nvm_byte_s

    def settle(self, t_ns: float) -> None:
        """Integrate residency up to ``t_ns``."""
        dt_s = (t_ns - self._last_t_ns) / 1e9
        if dt_s > 0:
            self.dram_byte_s += self.live_bytes.get("dram", 0) * dt_s
            self.nvm_byte_s += self.live_bytes.get("nvm", 0) * dt_s
        self._last_t_ns = t_ns

    def adjust(self, device: Optional[str], delta: int) -> None:
        """Change the live footprint on one device class."""
        if device is None:
            return
        self.live_bytes[device] = self.live_bytes.get(device, 0) + delta
        total = sum(self.live_bytes.values())
        if total > self.peak_bytes:
            self.peak_bytes = total


class TraceAggregator:
    """Streaming consumer building occupancy timelines and residency
    profiles from a trace event stream."""

    def __init__(self) -> None:
        #: space name -> [(t_ns, live_bytes), ...] occupancy samples.
        self.timelines: Dict[str, List[Tuple[float, int]]] = {}
        #: rdd id -> residency profile.
        self.profiles: Dict[int, ResidencyProfile] = {}
        #: (pause kind -> count) and total pause nanoseconds.
        self.pause_counts: Dict[str, int] = {}
        self.pause_ns: float = 0.0
        self.event_count = 0
        self.end_ns: float = 0.0
        self._space_bytes: Dict[str, int] = {}
        #: oid -> (size, space, device, rdd_id) of live objects.
        self._objects: Dict[int, Tuple[int, str, Optional[str], Optional[int]]] = {}

    # -- event consumption -----------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        """Consume one event of a recorded stream."""
        self.event_count += 1
        if event.t_ns > self.end_ns:
            self.end_ns = event.t_ns
        kind = event.kind
        if kind == ALLOC:
            self._on_alloc(event)
        elif kind in MOVE_KINDS:
            self._on_move(event)
        elif kind == FREE:
            self._on_free(event)
        elif kind == GC_PAUSE:
            self.pause_counts[event.pause_kind] = (
                self.pause_counts.get(event.pause_kind, 0) + 1
            )
            self.pause_ns += event.duration_ns
            pause_end = event.t_ns + event.duration_ns
            if pause_end > self.end_ns:
                self.end_ns = pause_end

    def finish(self, end_ns: float) -> "TraceAggregator":
        """Settle every profile's residency integral at the run's end
        time ``end_ns``; returns self, for chaining."""
        for profile in self.profiles.values():
            profile.settle(end_ns)
        return self

    # -- internals ---------------------------------------------------------

    def _profile(self, rdd_id: int, t_ns: float) -> ResidencyProfile:
        profile = self.profiles.get(rdd_id)
        if profile is None:
            profile = ResidencyProfile(rdd_id)
            profile._last_t_ns = t_ns
            self.profiles[rdd_id] = profile
        return profile

    def _sample(self, space: str, t_ns: float, delta: int) -> None:
        """Record an occupancy change of one space."""
        value = self._space_bytes.get(space, 0) + delta
        self._space_bytes[space] = value
        timeline = self.timelines.setdefault(space, [])
        if timeline and timeline[-1][0] == t_ns:
            timeline[-1] = (t_ns, value)
        else:
            timeline.append((t_ns, value))

    def _on_alloc(self, event: TraceEvent) -> None:
        size = int(event.size)
        self._objects[event.oid] = (size, event.space, event.device, event.rdd_id)
        self._sample(event.space, event.t_ns, size)
        if event.rdd_id is not None:
            profile = self._profile(event.rdd_id, event.t_ns)
            profile.settle(event.t_ns)
            profile.alloc_bytes += size
            profile.adjust(event.device, size)

    def _on_move(self, event: TraceEvent) -> None:
        entry = self._objects.get(event.oid)
        if entry is None:
            return
        size, _, src_device, rdd_id = entry
        self._objects[event.oid] = (size, event.space, event.device, rdd_id)
        self._sample(event.src_space, event.t_ns, -size)
        self._sample(event.space, event.t_ns, size)
        if rdd_id is not None:
            profile = self._profile(rdd_id, event.t_ns)
            profile.settle(event.t_ns)
            profile.adjust(src_device, -size)
            profile.adjust(event.device, size)
            if event.kind == MIGRATE_NVM_TO_DRAM:
                profile.migrations_to_dram += 1
            elif event.kind == MIGRATE_DRAM_TO_NVM:
                profile.migrations_to_nvm += 1

    def _on_free(self, event: TraceEvent) -> None:
        entry = self._objects.pop(event.oid, None)
        if entry is None:
            return
        size, space, device, rdd_id = entry
        self._sample(space, event.t_ns, -size)
        if rdd_id is not None:
            profile = self._profile(rdd_id, event.t_ns)
            profile.settle(event.t_ns)
            profile.freed_bytes += size
            profile.adjust(device, -size)

    # -- results ----------------------------------------------------------

    def top_profiles(self, n: int = 10) -> List[ResidencyProfile]:
        """The ``n`` RDDs with the largest total residency (ties broken
        by RDD id for determinism)."""
        ranked = sorted(
            self.profiles.values(),
            key=lambda p: (-p.total_byte_s(), p.rdd_id),
        )
        return ranked[:n]


def aggregate_events(events, end_ns: float) -> TraceAggregator:
    """Build a finished aggregator from a recorded event stream of a
    run that ended at ``end_ns``."""
    agg = TraceAggregator()
    for event in events:
        agg.observe(event)
    return agg.finish(end_ns)
