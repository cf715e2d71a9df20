"""Windowed per-device bandwidth traces.

Figure 8 of the paper plots DRAM and NVM read/write bandwidth over the run
of GraphX-CC.  Each bulk access in the simulation deposits its bytes into
fixed-width time windows (:data:`WINDOW_NS`) here;
:meth:`BandwidthTracker.series` then yields (time, GB/s) points per
device and direction.

The traces only report what the cost plane charged; nothing in the
simulation reads them back.  So a deposit is an O(1) append of ``(key
code, nbytes, start_ns, duration_ns)`` to four pending ``array`` columns
(:meth:`BandwidthTracker.deposit_columns`; the
:class:`~repro.memory.machine.Machine` appends to them straight from its
settle), and the tracker spreads the pending rows over their windows
later, in bulk: before any read, and after any machine settle that
leaves :data:`SETTLE_ROWS` or more rows queued.  Every reader first
settles the machine's own queue of charges, so it sees their deposits.
The settle is one numpy pass (window indices by ``floor_divide``, each
row's shares elementwise, each bin folded in deposit order by
``add.at``), or, without numpy, the per-row loop.  Both add the same floats in the same
order and insert windows and keys in order of first deposit, so the
bins are bit-for-bit what depositing each row on its own would give.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Tuple

from repro.config import DeviceKind
from repro.floats import left_sum
from repro.memory.clock import SettlesFirst

try:  # numpy is optional, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

#: Every (device, is_write) bin key, indexed by its key code.
KEYS: Tuple[Tuple[DeviceKind, bool], ...] = tuple(
    (device, is_write) for device in DeviceKind for is_write in (False, True)
)
#: (device, is_write) -> key code, the index into :data:`KEYS`.
KEY_CODES: Dict[Tuple[DeviceKind, bool], int] = {
    key: code for code, key in enumerate(KEYS)
}

#: Pending rows that trigger a settle at the end of a machine settle, so
#: at most this many plus one machine settle's deposits are ever
#: pending.  Past 2048 rows the per-row settle cost falls by a fifth at
#: most while the pending memory keeps growing; docs/PERF.md ("Deferred bandwidth
#: deposits, measured") has the measurement.
SETTLE_ROWS = 2048

#: Window width in nanoseconds: one second, Figure 8's resolution.
WINDOW_NS = 1e9


@dataclass(frozen=True)
class BandwidthSample:
    """One point of a bandwidth time series.

    Attributes:
        time_s: window start, in simulated seconds.
        gbps: average bandwidth over the window, in GB/s.
    """

    time_s: float
    gbps: float


class BandwidthTracker(SettlesFirst):
    """Accumulates bytes moved per (device, direction) into time windows."""

    def __init__(self) -> None:
        # (device, is_write) -> {window index -> bytes}, settled rows only.
        self._settled: Dict[Tuple[DeviceKind, bool], Dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        # Deposits not yet spread over their windows, in deposit order:
        # key code, nbytes, start_ns, duration_ns.  ``array`` columns
        # hold raw values, so a cyclic collection never visits a row.
        self._codes = array("b")
        self._nbytes = array("d")
        self._starts = array("d")
        self._durations = array("d")

    def deposit_columns(self) -> Tuple[array, array, array, array]:
        """The four pending columns, for appending deposits in place.

        A deposit of ``nbytes`` moved on one device in one direction
        during ``[start_ns, start_ns + duration_ns)`` appends its key
        code (:data:`KEY_CODES`), ``nbytes``, ``start_ns`` and
        ``duration_ns`` to the columns in that order.  A caller that
        appends must call :meth:`settle_if_full` when done; the columns
        stay the same objects for the tracker's lifetime.
        """
        if self._pending:
            self._settle()
        return self._codes, self._nbytes, self._starts, self._durations

    @property
    def pending(self) -> int:
        """How many deposited rows wait to be settled."""
        if self._pending:
            self._settle()
        return len(self._codes)

    def settle_if_full(self) -> None:
        """Settle once :data:`SETTLE_ROWS` rows are pending."""
        if len(self._codes) >= SETTLE_ROWS:
            self.settle()

    def settle(self) -> None:
        """Spread every pending row over the windows it overlaps."""
        if self._pending:
            self._settle()
        if not self._codes:
            return
        if _np is None:
            self._settle_rows()
        else:
            self._settle_arrays()
        del self._codes[:], self._nbytes[:], self._starts[:], self._durations[:]

    def _settle_rows(self) -> None:
        """The per-row settle: each row's shares, added one at a time."""
        bins_map = self._settled
        window_ns = WINDOW_NS
        for code, nbytes, start_ns, duration_ns in zip(
            self._codes, self._nbytes, self._starts, self._durations
        ):
            if nbytes <= 0:
                continue
            bins = bins_map[KEYS[code]]
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

    def _settle_arrays(self) -> None:
        """The numpy settle: :meth:`_settle_rows`'s shares elementwise,
        each bin folded in deposit order by ``add.at``."""
        np = _np
        codes = np.array(self._codes, dtype=np.int64)
        nbytes = np.array(self._nbytes, dtype=np.float64)
        starts = np.array(self._starts, dtype=np.float64)
        durations = np.array(self._durations, dtype=np.float64)
        live = nbytes > 0
        if not live.all():
            codes, nbytes = codes[live], nbytes[live]
            starts, durations = starts[live], durations[live]
            if not len(codes):
                return
        window_ns = WINDOW_NS
        ends = starts + durations
        firsts = np.floor_divide(starts, window_ns)
        lasts = np.floor_divide(ends, window_ns)
        instant = durations < 1.0
        multi = ~instant & (lasts != firsts)
        # One deposit per window a row overlaps, rows in order and each
        # row's windows ascending; a single-window row is one deposit.
        counts = np.where(multi, lasts - firsts, 0.0).astype(np.int64) + 1
        row = np.repeat(np.arange(len(codes)), counts)
        offsets = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
        windows = firsts[row] + offsets
        row_starts, row_ends = starts[row], ends[row]
        w_starts = windows * window_ns
        overlaps = np.minimum(row_ends, w_starts + window_ns) - np.maximum(
            row_starts, w_starts
        )
        spread = multi[row]
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(
                instant[row],
                nbytes[row],
                nbytes[row]
                * (np.where(spread, overlaps, row_ends - row_starts) / durations[row]),
            )
        keep = ~spread | (overlaps > 0)
        if not keep.all():
            row, windows, shares = row[keep], windows[keep], shares[keep]
        # One id per bin (the code fits in 3 bits); the bins of a key in
        # order of first deposit are its unique ids sorted by first index.
        bin_ids = windows.astype(np.int64) * 8 + codes[row]
        uniq, first_at, inverse = np.unique(
            bin_ids, return_index=True, return_inverse=True
        )
        by_first = np.argsort(first_at, kind="stable")
        first_codes = uniq[by_first] & 7
        totals = np.zeros(len(uniq))
        # Keys go in in order of their first live row (even a row whose
        # overlaps all round to zero creates its key).
        key_codes, key_first = np.unique(codes, return_index=True)
        groups = []
        for code in key_codes[np.argsort(key_first, kind="stable")].tolist():
            bins = self._settled[KEYS[code]]
            at = by_first[first_codes == code]
            key_windows = (uniq[at] >> 3).tolist()
            if bins:  # a bin already settled starts from its value
                totals[at] = list(map(bins.get, key_windows, repeat(0.0)))
            groups.append((bins, key_windows, at))
        np.add.at(totals, inverse.reshape(-1), shares)
        # Existing windows keep their place; new ones go in in order of
        # first deposit.
        for bins, key_windows, at in groups:
            bins.update(zip(key_windows, totals[at].tolist()))

    @property
    def _bins(self) -> Dict[Tuple[DeviceKind, bool], Dict[int, float]]:
        """Every settled bin: ``{(device, is_write): {window: bytes}}``."""
        self.settle()
        return self._settled

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
        window_s = WINDOW_NS / 1e9
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
                    gbps=bins[idx] / WINDOW_NS,  # bytes/ns == GB/s
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
        return max(bins.values()) / WINDOW_NS

    def total_bytes(self, device: DeviceKind, is_write: bool) -> float:
        """Total bytes moved on one device in one direction."""
        bins = self._bins.get((device, is_write))
        return left_sum(bins.values()) if bins else 0.0
