"""Windowed per-device bandwidth traces.

Figure 8 of the paper plots DRAM and NVM read/write bandwidth over the run
of GraphX-CC.  Each bulk access in the simulation deposits its bytes into
fixed-width time windows here; :meth:`BandwidthTracker.series` then yields
(time, GB/s) points per device and direction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.config import DeviceKind


@dataclass(frozen=True)
class BandwidthSample:
    """One point of a bandwidth time series.

    Attributes:
        time_s: window start, in simulated seconds.
        gbps: average bandwidth over the window, in GB/s.
    """

    time_s: float
    gbps: float


class BandwidthTracker:
    """Accumulates bytes moved per (device, direction) into time windows."""

    def __init__(self, window_ns: float = 1e9) -> None:
        """Create a tracker.

        Args:
            window_ns: window width in nanoseconds (default one second).
        """
        if window_ns <= 0:
            raise ValueError("window_ns must be positive")
        self.window_ns = window_ns
        # (device, is_write) -> {window index -> bytes}
        self._bins: Dict[Tuple[DeviceKind, bool], Dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )

    def record_rows(
        self,
        rows: List[Tuple[DeviceKind, bool, float, float, float]],
    ) -> None:
        """Spread each access's bytes over the windows it overlaps.

        Each row is ``(device, is_write, nbytes, start_ns, duration_ns)``:
        ``nbytes`` moved during ``[start, start + duration)``.  Long
        accesses are apportioned to every window they overlap, so the
        series shows sustained plateaus rather than spikes.  Rows are
        deposited in order, which fixes both the float accumulation
        order of each bin and the insertion order of the bin keys.
        """
        bins_map = self._bins
        window_ns = self.window_ns
        for device, is_write, nbytes, start_ns, duration_ns in rows:
            if nbytes <= 0:
                continue
            bins = bins_map[(device, is_write)]
            if duration_ns < 1.0:  # sub-nanosecond: effectively instantaneous
                bins[int(start_ns // window_ns)] += nbytes
                continue
            end_ns = start_ns + duration_ns
            first = int(start_ns // window_ns)
            last = int(end_ns // window_ns)
            if first == last:  # the common case: the access fits one window
                # Same arithmetic as the general loop below ((end - start)
                # is not exactly duration_ns in floats).
                bins[first] += nbytes * ((end_ns - start_ns) / duration_ns)
                continue
            for idx in range(first, last + 1):
                w_start = idx * window_ns
                w_end = w_start + window_ns
                overlap = min(end_ns, w_end) - max(start_ns, w_start)
                if overlap > 0:
                    bins[idx] += nbytes * (overlap / duration_ns)

    def series(self, device: DeviceKind, is_write: bool) -> List[BandwidthSample]:
        """Return the bandwidth series for one device and direction.

        Windows with no traffic between active windows are reported as
        zero so plots show gaps honestly — but sparsely: an idle stretch
        contributes only its first and last window, which plots as the
        same flat zero plateau.  The old dense enumeration materialised
        every window of the gap, so a workload idling for simulated hours
        (checkpoint restore, fault back-off) produced millions of
        identical zero samples and an effectively unplottable series.
        """
        bins = self._bins.get((device, is_write))
        if not bins:
            return []
        window_s = self.window_ns / 1e9
        samples: List[BandwidthSample] = []
        prev = None
        for idx in sorted(bins):
            if prev is not None and idx - prev > 1:
                # Bracket the idle stretch with zeros at its edges.
                samples.append(BandwidthSample((prev + 1) * window_s, 0.0))
                if idx - prev > 2:
                    samples.append(BandwidthSample((idx - 1) * window_s, 0.0))
            samples.append(
                BandwidthSample(
                    time_s=idx * window_s,
                    gbps=bins[idx] / self.window_ns,  # bytes/ns == GB/s
                )
            )
            prev = idx
        return samples

    def peak_gbps(self, device: DeviceKind, is_write: bool) -> float:
        """Peak windowed bandwidth for one device and direction.

        Computed straight off the active bins: gap windows are zero and
        can never be the peak, so the series need not be materialised.
        """
        bins = self._bins.get((device, is_write))
        if not bins:
            return 0.0
        return max(bins.values()) / self.window_ns

    def total_bytes(self, device: DeviceKind, is_write: bool) -> float:
        """Total bytes moved on one device in one direction."""
        bins = self._bins.get((device, is_write))
        return sum(bins.values()) if bins else 0.0
