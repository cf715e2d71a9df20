"""GC statistics: pause accounting and the counters behind Figure 5 and
Table 5."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.floats import left_sum
from repro.memory.clock import SettledAttribute, SettlesFirst


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest of ``values`` with at least
    ``fraction`` (in [0, 1]; 0.99 = p99) of them at or below it, so a
    percentile is always an observed value, never an interpolation
    (the SLO-reporting convention).  No values read 0.0."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("percentile fraction must be in [0, 1]")
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


@dataclass
class GCStats(SettlesFirst):
    """Cumulative collector statistics for one run.

    A collection's pause is recorded when its machine settles the
    collection's charges (:meth:`record_minor` / :meth:`record_major`
    are the callbacks of the series' ``"minor"`` / ``"major"`` record
    kinds, :meth:`records`), so the counts, pause times and ``pauses``
    settle the machine's queue before every read.

    Attributes:
        minor_count / major_count: number of collections.
        minor_ns / major_ns: total pause time per kind.
        copied_bytes: bytes evacuated within the young generation.
        promoted_bytes: bytes moved young -> old.
        eager_promoted_objects: objects promoted via Panthera's eager path.
        card_scanned_bytes: bytes read while scanning dirty cards.
        stuck_rescans: objects rescanned because of shared dirty cards.
        compacted_bytes: bytes slid during major-GC compaction.
        migrated_rdd_ids: RDDs moved by dynamic migration (Table 5).
        migrated_object_count: objects moved by dynamic migration.
        pauses: (kind, start_ns, duration_ns) per collection.
        trace: optional :class:`~repro.trace.bus.TraceBus` each recorded
            pause is also published to as a ``gc_pause`` event.
    """

    minor_count: int = 0
    major_count: int = 0
    minor_ns: float = 0.0
    major_ns: float = 0.0
    copied_bytes: int = 0
    promoted_bytes: int = 0
    eager_promoted_objects: int = 0
    card_scanned_bytes: int = 0
    stuck_rescans: int = 0
    compacted_bytes: int = 0
    migrated_rdd_ids: Set[int] = field(default_factory=set)
    migrated_object_count: int = 0
    pauses: List[Tuple[str, float, float]] = field(default_factory=list)
    trace: Optional[object] = field(default=None, repr=False, compare=False)

    def records(self) -> dict:
        """The pause kinds a collection's series records."""
        return {"minor": self.record_minor, "major": self.record_major}

    def record_minor(self, start_ns: float, duration_ns: float) -> None:
        """Account one minor collection."""
        self.minor_count += 1
        self.minor_ns += duration_ns
        self.pauses.append(("minor", start_ns, duration_ns))
        if self.trace is not None:
            self.trace.gc_pause("minor", start_ns, duration_ns)

    def record_major(self, start_ns: float, duration_ns: float) -> None:
        """Account one major collection."""
        self.major_count += 1
        self.major_ns += duration_ns
        self.pauses.append(("major", start_ns, duration_ns))
        if self.trace is not None:
            self.trace.gc_pause("major", start_ns, duration_ns)

    @property
    def total_gc_ns(self) -> float:
        """Total GC pause time in nanoseconds."""
        return self.minor_ns + self.major_ns

    @property
    def total_gc_s(self) -> float:
        """Total GC pause time in seconds (Figure 5's GC bars)."""
        return self.total_gc_ns / 1e9

    @property
    def migrated_rdd_count(self) -> int:
        """Number of distinct RDDs dynamically migrated (Table 5)."""
        return len(self.migrated_rdd_ids)

    def pause_percentile(self, fraction: float, kind: str = None) -> float:
        """A pause-duration percentile in milliseconds.

        Args:
            fraction: percentile in [0, 1] (0.99 = p99).
            kind: restrict to "minor" or "major" pauses (default: all).
        """
        durations = [
            duration
            for pause_kind, _, duration in self.pauses
            if kind is None or pause_kind == kind
        ]
        return percentile(durations, fraction) / 1e6

    def max_pause_ms(self) -> float:
        """The worst pause of the run, in milliseconds."""
        return self.pause_percentile(1.0)

    def mean_pause_ms(self) -> float:
        """Mean pause duration in milliseconds."""
        if not self.pauses:
            return 0.0
        return left_sum(d for _, _, d in self.pauses) / len(self.pauses) / 1e6


for _name in ("minor_count", "major_count", "minor_ns", "major_ns", "pauses"):
    setattr(GCStats, _name, SettledAttribute(_name))
