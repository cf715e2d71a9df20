"""The collection driver: triggers, headroom guarantees and entry points.

The driver enforces the invariant the scavenge relies on: before a minor
GC runs, the old generation has enough free room for the worst case
promotion (every survivable young object tenured at once).  When it does
not, a full collection runs first — the same policy HotSpot applies with
its "promotion guarantee".
"""

from __future__ import annotations

from typing import Optional

from repro.config import CARD_SIZE
from repro.core.monitor import AccessMonitor
from repro.gc.major import run_major_gc
from repro.gc.minor import SteadyScavenge, run_minor_gc
from repro.gc.policies import PlacementPolicy
from repro.gc.stats import GCStats
from repro.heap.managed_heap import ManagedHeap
from repro.memory.machine import Machine


class Collector:
    """Owns the GC phases and their statistics for one heap."""

    def __init__(
        self,
        heap: ManagedHeap,
        machine: Machine,
        policy: PlacementPolicy,
        stats: Optional[GCStats] = None,
        monitor: Optional[AccessMonitor] = None,
    ) -> None:
        self.heap = heap
        self.machine = machine
        self.policy = policy
        self.config = heap.config
        self.stats = stats or GCStats()
        machine.defer_reads(self.stats)
        self.monitor = monitor
        #: minor GCs since the last full GC — a proxy for how much
        #: mutator time the current monitoring cycle covers.
        self.minors_since_major = 0
        heap.collector = self

    def _promotion_upper_bound(self) -> int:
        """Worst-case bytes a scavenge could promote right now.

        Every survivable young object could tenure at once, and under
        card padding (§4.2.3) each promoted *array* is additionally
        padded so its allocation ends on a card boundary — up to
        ``CARD_SIZE - 1`` extra bytes per array.  Ignoring that padding
        undercounts the guarantee on a near-full old generation and lets
        a scavenge overflow mid-promotion.

        O(1): the spaces maintain live-byte and array counters
        incrementally.
        """
        eden = self.heap.eden
        survivor = self.heap.survivor_from
        survivable = eden._live_bytes + survivor._live_bytes
        if self.heap.card_padding:
            survivable += (eden._array_count + survivor._array_count) * (CARD_SIZE - 1)
        return survivable

    def old_free_bytes(self) -> int:
        """Free bytes across all old spaces."""
        # Checked before every scavenge; a plain loop over the two or
        # three old spaces beats the genexpr + property indirection.
        total = 0
        for s in self.heap.old_spaces:
            total += s.end - s.top
        return total

    def collect_minor(self) -> Optional[SteadyScavenge]:
        """Run one minor collection, with the promotion guarantee.

        Returns:
            This scavenge's steady plan (its allocation stream's later
            overflows replay it), or None after a full scavenge.
        """
        if self.old_free_bytes() < self._promotion_upper_bound():
            self.collect_major()
        plan = run_minor_gc(self)
        self.minors_since_major += 1
        return plan

    def collect_major(self) -> None:
        """Run one full-heap collection."""
        run_major_gc(self)
        self.minors_since_major = 0
