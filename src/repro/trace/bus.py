"""The trace event bus: where the allocator, the GCs and the block
manager publish placement events.

The bus is the *only* tracing hook the hot paths see: every emission
site is guarded by ``if trace is not None`` so a run with tracing
disabled pays one pointer comparison per potential event and nothing
else (<2% overhead on the fig4 smoke benchmark).

Object ids are renumbered densely in first-seen order before they are
recorded: :class:`~repro.heap.object_model.HeapObject` draws its
``oid`` from a process-global counter, so raw ids depend on how many
experiments the process ran before this one.  Normalised ids make a
trace a pure function of (workload, config, scale) — the property the
``--jobs 1`` vs ``--jobs 4`` byte-identical guarantee rests on.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.trace.events import (
    ALLOC,
    DESERIALIZE,
    FALLBACK,
    FREE,
    GC_PAUSE,
    RECOMPUTE,
    REGION_ALLOC,
    REGION_RESET,
    SERIALIZE,
    TAG_RECOGNIZED,
    THROTTLE,
    TraceEvent,
)

class TraceBus:
    """Clock-stamping recorder of :class:`TraceEvent` streams.

    Args:
        clock: the simulated clock events are stamped from (anything
            with a ``now_ns`` attribute, i.e.
            :class:`~repro.memory.clock.Clock`).

    Attributes:
        events: every published event, in publish order.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.events: List[TraceEvent] = []
        self._oid_map: Dict[int, int] = {}
        self._next_oid = 1

    def _normalize_oid(self, raw_oid: Optional[int]) -> Optional[int]:
        """Map a process-global object id to a dense trace-local id."""
        if raw_oid is None:
            return None
        local = self._oid_map.get(raw_oid)
        if local is None:
            local = self._next_oid
            self._oid_map[raw_oid] = local
            self._next_oid += 1
        return local

    def publish(self, event: TraceEvent) -> None:
        """Record one already-built event, after the clock's pending
        charges settle (so the pauses they record are published first,
        even before an event stamped with a given time rather than the
        clock's)."""
        if self.clock._pending:
            self.clock._settle()
        self.events.append(event)

    # -- emission helpers (one per event family) -------------------------

    def _object_fields(self, obj) -> dict:
        """The shared object-describing fields of an event."""
        space = obj.space
        device = None
        if space is not None and obj.addr is not None:
            device = space.device_of(obj.addr).value
        tag = obj.tag
        return {
            "oid": self._normalize_oid(obj.oid),
            "size": obj.size,
            "space": space.name if space is not None else None,
            "device": device,
            "tag": tag.value if tag is not None else None,
            "rdd_id": obj.rdd_id,
        }

    def alloc(self, obj) -> None:
        """Publish an ALLOC event for a freshly placed object."""
        self.publish(
            TraceEvent(ALLOC, self.clock.now_ns, **self._object_fields(obj))
        )

    def move(self, kind: str, obj, src_space: str, src_device: str) -> None:
        """Publish a move event (copy / promote / migrate) for an object
        that has already been placed at its destination.

        Args:
            kind: one of :data:`~repro.trace.events.MOVE_KINDS`.
            obj: the moved object (``obj.space`` is the destination).
            src_space: name of the space the object came from.
            src_device: backing device at the object's old address.
        """
        fields = self._object_fields(obj)
        fields["src_space"] = src_space
        fields["src_device"] = src_device
        self.publish(TraceEvent(kind, self.clock.now_ns, **fields))

    def free(self, obj, space_name: str) -> None:
        """Publish a FREE event for an object found dead in a space."""
        tag = obj.tag
        self.publish(
            TraceEvent(
                FREE,
                self.clock.now_ns,
                oid=self._normalize_oid(obj.oid),
                size=obj.size,
                space=space_name,
                tag=tag.value if tag is not None else None,
                rdd_id=obj.rdd_id,
            )
        )

    def gc_pause(self, pause_kind: str, start_ns: float, duration_ns: float) -> None:
        """Publish a GC_PAUSE event (stamped with the pause *start*)."""
        self.publish(
            TraceEvent(
                GC_PAUSE,
                start_ns,
                pause_kind=pause_kind,
                duration_ns=duration_ns,
            )
        )

    def block_event(self, kind: str, rdd_id: int, nbytes: float) -> None:
        """Publish an informational block-manager event (spill / drop /
        unpersist)."""
        self.publish(
            TraceEvent(kind, self.clock.now_ns, size=nbytes, rdd_id=rdd_id)
        )

    def fallback(self, obj, intended_space: str) -> None:
        """Publish a FALLBACK event: ``obj`` just landed somewhere other
        than the space the policy intended (``obj.space`` is where it
        actually went)."""
        fields = self._object_fields(obj)
        fields["detail"] = f"intended={intended_space}"
        self.publish(TraceEvent(FALLBACK, self.clock.now_ns, **fields))

    def throttle(self, start_ns: float, duration_ns: float, factor: float) -> None:
        """Publish one scheduled NVM bandwidth-throttle window (stamped
        with the window *start*, like GC pauses)."""
        self.publish(
            TraceEvent(
                THROTTLE,
                start_ns,
                duration_ns=duration_ns,
                detail=f"factor={factor:g}",
            )
        )

    def recompute(self, rdd_id: Optional[int], nbytes: float, detail: str) -> None:
        """Publish a RECOMPUTE event: lost state was rebuilt through
        lineage (``detail`` says what was lost)."""
        self.publish(
            TraceEvent(
                RECOMPUTE,
                self.clock.now_ns,
                size=nbytes,
                rdd_id=rdd_id,
                detail=detail,
            )
        )

    def serialize(self, rdd_id: Optional[int], packed_bytes: float) -> None:
        """Publish a SERIALIZE event: a block was packed into the
        serialized off-heap tier (the native ALLOCs carry placement)."""
        self.publish(
            TraceEvent(
                SERIALIZE, self.clock.now_ns, size=packed_bytes, rdd_id=rdd_id
            )
        )

    def deserialize(self, rdd_id: Optional[int], raw_bytes: float) -> None:
        """Publish a DESERIALIZE event: one serialized-tier partition
        was unpacked on access."""
        self.publish(
            TraceEvent(
                DESERIALIZE, self.clock.now_ns, size=raw_bytes, rdd_id=rdd_id
            )
        )

    def region_alloc(self, obj, lifetime: str) -> None:
        """Publish a REGION_ALLOC event: ``obj`` was bump-allocated into
        a lifetime region arena (informational — region bytes are outside
        the replay oracle's per-space ledger, so no ALLOC is emitted)."""
        fields = self._object_fields(obj)
        fields["detail"] = f"lifetime={lifetime}"
        self.publish(TraceEvent(REGION_ALLOC, self.clock.now_ns, **fields))

    def region_reset(
        self, space_name: str, freed_bytes: float, reason: str
    ) -> None:
        """Publish a REGION_RESET event: a whole arena was freed
        wholesale at a stage/job boundary."""
        self.publish(
            TraceEvent(
                REGION_RESET,
                self.clock.now_ns,
                size=freed_bytes,
                space=space_name,
                detail=reason,
            )
        )

    def tag_recognized(self, tag, size: int) -> None:
        """Publish the §4.2.1 "RDD backbone array recognised" event."""
        self.publish(
            TraceEvent(
                TAG_RECOGNIZED,
                self.clock.now_ns,
                size=size,
                tag=tag.value if tag is not None else None,
            )
        )

