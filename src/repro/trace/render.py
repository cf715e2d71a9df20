"""Textual rendering of heap traces: occupancy timelines and top-N
per-RDD residency tables.

Pure-ASCII, deterministic output: the same event stream always renders
to the same bytes, which is what lets the test suite pin ``--jobs 1``
vs ``--jobs 4`` trace output to byte equality.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.trace.aggregate import TraceAggregator, aggregate_events
from repro.trace.events import TraceEvent

#: Ten occupancy levels, lowest to highest.
LEVELS = " .:-=+*#%@"
#: Time buckets per timeline row.
TIMELINE_WIDTH = 64


def _format_bytes(nbytes: float) -> str:
    """Human-readable byte count (KiB/MiB/GiB)."""
    value = float(nbytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def _bucketize(
    samples: Sequence[Tuple[float, int]], end_ns: float, width: int
) -> List[int]:
    """Resample a step function of ``(t_ns, value)`` points into
    ``width`` equal time buckets, carrying the last value forward and
    keeping each bucket's maximum."""
    buckets = [0] * width
    if not samples:
        return buckets
    span = max(end_ns, samples[-1][0], 1.0)
    value = 0
    cursor = 0
    for index in range(width):
        hi = span * (index + 1) / width
        peak = value
        while cursor < len(samples) and samples[cursor][0] <= hi:
            value = samples[cursor][1]
            if value > peak:
                peak = value
            cursor += 1
        buckets[index] = peak
    return buckets


def render_timeline(aggregator: TraceAggregator) -> str:
    """Render per-space occupancy over time as level-coded rows.

    Each traced space, in first-traced order, is one row mapping its
    occupancy into :data:`TIMELINE_WIDTH` time buckets, coded with the
    ten :data:`LEVELS` characters normalised to that space's peak
    occupancy (printed at the end of the row).

    Args:
        aggregator: a finished :class:`TraceAggregator`.
    """
    width = TIMELINE_WIDTH
    timelines = aggregator.timelines
    end_s = aggregator.end_ns / 1e9
    lines = [f"occupancy timeline (0s .. {end_s:.3f}s, {width} buckets)"]
    label_width = max([len(name) for name in timelines] or [0])
    for name, samples in timelines.items():
        buckets = _bucketize(samples, aggregator.end_ns, width)
        peak = max(buckets) if buckets else 0
        if peak <= 0:
            row = LEVELS[0] * width
        else:
            row = "".join(
                LEVELS[min(len(LEVELS) - 1, (value * len(LEVELS)) // (peak + 1))]
                for value in buckets
            )
        lines.append(
            f"{name:<{label_width}} |{row}| peak {_format_bytes(peak)}"
        )
    return "\n".join(lines)


def render_residency_table(aggregator: TraceAggregator, top_n: int = 10) -> str:
    """Render the top-N per-RDD residency profiles as a markdown table.

    Columns: RDD id, DRAM and NVM residency in MiB·s, migration counts
    in each direction, and the RDD's peak live footprint — the measured
    counterpart of the paper's Table 5.
    """
    # Imported lazily: the GC core imports repro.trace, and the harness
    # imports the GC core — a module-level import here would be a cycle.
    from repro.harness.report import format_markdown_table

    mib = 1024.0 * 1024.0
    rows: List[List[object]] = []
    for profile in aggregator.top_profiles(top_n):
        rows.append(
            [
                profile.rdd_id,
                profile.dram_byte_s / mib,
                profile.nvm_byte_s / mib,
                profile.migrations_to_dram,
                profile.migrations_to_nvm,
                _format_bytes(profile.peak_bytes),
            ]
        )
    return format_markdown_table(
        [
            "RDD",
            "DRAM MiB*s",
            "NVM MiB*s",
            "mig->dram",
            "mig->nvm",
            "peak",
        ],
        rows,
    )


def render_trace_report(
    events: Iterable[TraceEvent], end_ns: float, top_n: int = 10
) -> str:
    """Render the full textual trace report from a recorded stream.

    The occupancy timeline, the top-N residency table and a one-line
    summary (event and pause counts) — what ``repro trace`` and the
    ``--trace`` flags print.
    """
    aggregator = aggregate_events(events, end_ns)
    minor = aggregator.pause_counts.get("minor", 0)
    major = aggregator.pause_counts.get("major", 0)
    summary = (
        f"trace: {aggregator.event_count} events, {minor} minor / "
        f"{major} major pauses ({aggregator.pause_ns / 1e9:.2f}s paused)"
    )
    return "\n".join(
        [
            render_timeline(aggregator),
            "",
            render_residency_table(aggregator, top_n=top_n),
            "",
            summary,
        ]
    )
