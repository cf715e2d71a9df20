"""Heap trace events: the vocabulary of the `repro.trace` event bus.

One :class:`TraceEvent` describes one observable change in the simulated
heap's placement state — an allocation, a survivor-space copy, a
promotion, a DRAM/NVM migration, a death, or a GC pause — stamped with
the *simulated* clock, the object's size, its space, its backing device,
its memory tag and the RDD it belongs to.  The event stream is the data
behind Figures 4-7 and Table 5: replaying it reconstructs per-space
occupancy exactly (see :mod:`repro.trace.replay`), and aggregating it
yields per-RDD residency profiles (see :mod:`repro.trace.aggregate`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

#: Object first placed in a space (eden fast path, direct old-gen RDD
#: array allocation, or off-heap native placement).
ALLOC = "alloc"
#: Live young object evacuated into the to-space during a minor GC.
SURVIVOR_COPY = "survivor_copy"
#: Young object tenured into an old space (aging, eager or full-GC).
PROMOTE = "promote"
#: Dynamic migration moving an object from the DRAM to the NVM component.
MIGRATE_DRAM_TO_NVM = "migrate_dram_to_nvm"
#: Dynamic migration moving an object from the NVM to the DRAM component.
MIGRATE_NVM_TO_DRAM = "migrate_nvm_to_dram"
#: Object found dead (young-gen reset or old-gen sweep).
FREE = "free"
#: One stop-the-world collection (minor or major).
GC_PAUSE = "gc_pause"
#: Block manager serialised a persisted block out to disk.
SPILL = "spill"
#: Block manager dropped a MEMORY_ONLY block under pressure.
DROP = "drop"
#: A persisted block was explicitly released.
UNPERSIST = "unpersist"
#: The §4.2.1 tag-wait state recognised an RDD backbone array.
TAG_RECOGNIZED = "tag_recognized"
#: An old-gen placement landed off its policy-intended space (the
#: NVM→DRAM degradation ladder); ``detail`` names the intended space.
FALLBACK = "fallback"
#: One scheduled NVM bandwidth-throttle window (``t_ns`` is the window
#: start, ``duration_ns`` its length, ``detail`` the slowdown factor).
THROTTLE = "throttle"
#: A killed partition/block was recomputed through lineage; ``detail``
#: says what was lost (``shuffle:<id>:<pidx>`` or ``block``).
RECOMPUTE = "recompute"
#: A persisted block was packed into the serialized off-heap tier
#: (``size`` is the packed byte count; the native ALLOC events carry
#: the placement itself).
SERIALIZE = "serialize"
#: One partition of a serialized-tier block was unpacked on access
#: (``size`` is the deserialised byte count — the CPU paid is charged
#: through the cost plane, this event only annotates it).
DESERIALIZE = "deserialize"
#: An object was bump-allocated into a lifetime region arena (Deca
#: policy).  Region arenas are invisible to the generational collector
#: and to the replay oracle's live-bytes ledger, so this is
#: informational: ``space`` names the arena, ``detail`` the lifetime
#: class.
REGION_ALLOC = "region_alloc"
#: A whole region arena was freed wholesale at a stage/job boundary
#: (``size`` is the byte count released, ``detail`` the reset reason).
REGION_RESET = "region_reset"

#: Event kinds that move a live object between two spaces.
MOVE_KINDS = frozenset(
    {SURVIVOR_COPY, PROMOTE, MIGRATE_DRAM_TO_NVM, MIGRATE_NVM_TO_DRAM}
)
#: Event kinds the replay oracle interprets (placement-state changes).
REPLAYED_KINDS = frozenset({ALLOC, FREE, GC_PAUSE} | MOVE_KINDS)
#: Informational kinds the replay oracle skips.  FALLBACK annotates a
#: placement whose ALLOC/PROMOTE event carries the real byte movement;
#: THROTTLE and RECOMPUTE describe time, not placement.  REGION_ALLOC
#: and REGION_RESET describe arenas the oracle's per-space ledger does
#: not model (region bytes never appear in ALLOC/FREE events).
INFORMATIONAL_KINDS = frozenset(
    {
        SPILL,
        DROP,
        UNPERSIST,
        TAG_RECOGNIZED,
        FALLBACK,
        THROTTLE,
        RECOMPUTE,
        SERIALIZE,
        DESERIALIZE,
        REGION_ALLOC,
        REGION_RESET,
    }
)
#: The dynamic-migration kinds (always cross the DRAM/NVM boundary).
MIGRATE_KINDS = frozenset({MIGRATE_DRAM_TO_NVM, MIGRATE_NVM_TO_DRAM})


@dataclass
class TraceEvent:
    """One heap placement event.

    Attributes:
        kind: event kind (one of the module constants above).
        t_ns: simulated clock time the event happened at (for GC pauses,
            the pause *start*).
        oid: trace-local object id (densely renumbered by the bus so
            traces are independent of process history), or None for
            object-less events (pauses, block events).
        size: payload bytes of the object (or block) the event concerns.
        space: destination / residence space name.
        src_space: source space name for move events.
        device: backing device of ``space`` at the object's address.
        src_device: backing device of ``src_space`` before a move.
        tag: the object's memory tag ("dram"/"nvm") if set.
        rdd_id: owning RDD id, if the object belongs to one.
        pause_kind: "minor" or "major" for GC_PAUSE events.
        duration_ns: pause duration for GC_PAUSE events (also the
            window length for THROTTLE events).
        detail: free-form annotation for fault events (intended space
            for FALLBACK, slowdown factor for THROTTLE, what was lost
            for RECOMPUTE).
    """

    kind: str
    t_ns: float
    oid: Optional[int] = None
    size: float = 0.0
    space: Optional[str] = None
    src_space: Optional[str] = None
    device: Optional[str] = None
    src_device: Optional[str] = None
    tag: Optional[str] = None
    rdd_id: Optional[int] = None
    pause_kind: Optional[str] = None
    duration_ns: float = 0.0
    detail: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with None/zero-default fields omitted."""
        row = asdict(self)
        return {
            key: value
            for key, value in row.items()
            if value is not None and not (key == "duration_ns" and value == 0.0)
        }
