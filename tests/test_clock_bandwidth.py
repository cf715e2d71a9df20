"""Tests for the simulated clock and the windowed bandwidth tracker."""

import ast
import gc
from array import array
from collections import defaultdict
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DeviceKind
from repro.memory import bandwidth
from repro.memory.bandwidth import BandwidthTracker
from repro.memory.clock import SimClock
from repro.memory.machine import Machine
from tests.conftest import deposit_rows, small_config


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.now_ns == 150

    def test_now_s_converts(self):
        clock = SimClock()
        clock.advance(2.5e9)
        assert clock.now_s == pytest.approx(2.5)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=20))
    def test_monotonic(self, steps):
        clock = SimClock()
        last = 0.0
        for step in steps:
            assert clock.advance(step) >= last
            last = clock.now_ns


_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _nodes(predicate):
    """``path:line`` of every AST node under ``src/repro`` that matches."""
    hits = []
    for path in sorted(_SRC.rglob("*.py")):
        rel = path.relative_to(_SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
            if predicate(rel, node):
                hits.append(f"{rel}:{node.lineno}")
    return hits


class TestSingleWriterOfSimulatedTime:
    """``Machine.run_batch`` queues all simulated work and its settle
    charges it, so the settle sees every writer of the clock, the device
    counters and the pause records.  A writer that bypasses it would
    break that."""

    def test_only_the_machine_and_the_clock_assign_now(self):
        def assigns_now(rel, node):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                return False
            return rel not in ("memory/machine.py", "memory/clock.py") and any(
                isinstance(t, ast.Attribute) and t.attr == "_now_ns" for t in targets
            )

        assert _nodes(assigns_now) == []

    def test_only_the_executor_idle_forward_advances_the_clock(self):
        def advances(rel, node):
            return (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "advance"
                and rel != "cluster/executor.py"
            )

        assert _nodes(advances) == []

    def test_only_the_device_and_the_machine_assign_traffic_counters(self):
        fields = {"read_bytes", "write_bytes", "random_reads", "random_writes"}

        def assigns_counters(rel, node):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                return False
            return rel not in ("memory/device.py", "memory/machine.py") and any(
                isinstance(t, ast.Attribute) and t.attr in fields for t in targets
            )

        assert _nodes(assigns_counters) == []

    def test_only_the_gc_records_append_pauses(self):
        """Only ``GCStats.record_minor``/``record_major``, which the
        settle calls, grow ``pauses`` (the replay oracle builds its own
        list from the events)."""
        appending = set()
        for path in sorted(_SRC.rglob("*.py")):
            rel = path.relative_to(_SRC).as_posix()
            for fn in ast.walk(ast.parse(path.read_text(), filename=rel)):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    grows = (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("append", "extend", "insert")
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "pauses"
                    ) or (
                        isinstance(node, ast.AugAssign)
                        and isinstance(node.target, ast.Attribute)
                        and node.target.attr == "pauses"
                    )
                    if grows:
                        appending.add(f"{rel}:{fn.name}")
        assert appending == {
            "gc/stats.py:record_minor",
            "gc/stats.py:record_major",
            "trace/replay.py:replay_events",
        }

    def test_run_batch_is_the_one_charge_loop(self):
        """Only ``Machine.settle``, which charges ``run_batch``'s queue,
        prices rows and appends bandwidth deposits, and no other
        ``Machine`` method wraps ``run_batch``: a second entry point,
        under any name, fails here."""
        charging = set()
        for path in sorted(_SRC.rglob("*.py")):
            rel = path.relative_to(_SRC).as_posix()
            for fn in ast.walk(ast.parse(path.read_text(), filename=rel)):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    reads_chargers = (
                        isinstance(node, ast.Attribute)
                        and node.attr == "_row_charger"
                        and isinstance(node.ctx, ast.Load)
                    )
                    deposits = (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "deposit_columns"
                    )
                    wraps = (
                        rel == "memory/machine.py"
                        and isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "run_batch"
                    )
                    if reads_chargers or deposits or wraps:
                        charging.add(f"{rel}:{fn.name}")
        assert charging == {"memory/machine.py:settle"}

class TestBandwidthTracker:
    def test_single_event_lands_in_one_window(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.DRAM, False, 3e9, 0, 1e9)])
        series = bw.series(DeviceKind.DRAM, False)
        assert len(series) == 1
        assert series[0].gbps == pytest.approx(3.0, rel=1e-6)

    def test_long_event_spreads_over_windows(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.NVM, True, 10e9, 0, 5e9)])
        series = bw.series(DeviceKind.NVM, True)
        # 10 GB over 5 s = 2 GB/s sustained.
        sustained = [s.gbps for s in series[:5]]
        for value in sustained:
            assert value == pytest.approx(2.0, rel=1e-6)

    def test_zero_duration_event(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.DRAM, False, 1e6, 5e8, 0)])
        assert bw.total_bytes(DeviceKind.DRAM, False) == pytest.approx(1e6)

    def test_directions_are_separate(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.DRAM, False, 100, 0, 10)])
        assert bw.series(DeviceKind.DRAM, True) == []

    def test_peak(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.DRAM, False, 5e9, 0, 1e9)])
        deposit_rows(bw, [(DeviceKind.DRAM, False, 1e9, 3e9, 1e9)])
        assert bw.peak_gbps(DeviceKind.DRAM, False) == pytest.approx(5.0, rel=0.01)

    def test_gap_windows_reported_as_zero(self):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.DRAM, False, 1e9, 0, 0.5e9)])
        deposit_rows(bw, [(DeviceKind.DRAM, False, 1e9, 4e9, 0.5e9)])
        series = bw.series(DeviceKind.DRAM, False)
        assert any(s.gbps == 0.0 for s in series)

    @given(
        nbytes=st.floats(min_value=1, max_value=1e12),
        start=st.floats(min_value=0, max_value=1e10),
        duration=st.floats(min_value=0, max_value=1e10),
    )
    def test_bytes_conserved(self, nbytes, start, duration):
        bw = BandwidthTracker()
        deposit_rows(bw, [(DeviceKind.NVM, False, nbytes, start, duration)])
        assert bw.total_bytes(DeviceKind.NVM, False) == pytest.approx(
            nbytes, rel=1e-2
        )


# -- deferred deposits vs depositing each row at once ---------------------


def _scalar_deposit(rows, window_ns):
    """The reference: each ``(device, is_write, nbytes, start_ns,
    duration_ns)`` row spread over its windows the moment it arrives,
    one window at a time (the tracker's deposit before it deferred)."""
    bins_map = defaultdict(lambda: defaultdict(float))
    for device, is_write, nbytes, start_ns, duration_ns in rows:
        if nbytes <= 0:
            continue
        bins = bins_map[(device, is_write)]
        if duration_ns < 1.0:
            bins[int(start_ns // window_ns)] += nbytes
            continue
        end_ns = start_ns + duration_ns
        first = int(start_ns // window_ns)
        last = int(end_ns // window_ns)
        if first == last:
            bins[first] += nbytes * ((end_ns - start_ns) / duration_ns)
            continue
        for idx in range(first, last + 1):
            w_start = idx * window_ns
            w_end = w_start + window_ns
            overlap = min(end_ns, w_end) - max(start_ns, w_start)
            if overlap > 0:
                bins[idx] += nbytes * (overlap / duration_ns)
    return bins_map


def _readings(tracker):
    """Everything a reader sees, floats by ``repr``; bins in insertion
    order."""
    return repr(
        (
            [(key, list(bins.items())) for key, bins in tracker._bins.items()],
            [
                (
                    tracker.series(*key),
                    tracker.peak_gbps(*key),
                    tracker.total_bytes(*key),
                )
                for key in bandwidth.KEYS
            ],
        )
    )


def _reference_readings(rows, window_ns):
    """:func:`_readings` of the reference bins; the peak and the total
    (an in-order left fold) are recomputed here, the series shared."""
    reference = BandwidthTracker()
    reference._settled = bins_map = _scalar_deposit(rows, window_ns)
    readings = []
    for key in bandwidth.KEYS:
        values = list(bins_map.get(key, {}).values())
        total = 0.0
        for value in values:
            total += value
        peak = max(values) / window_ns if values else 0.0
        readings.append((reference.series(*key), peak, total))
    return repr(
        ([(key, list(bins.items())) for key, bins in bins_map.items()], readings)
    )


WINDOWS = (1e9, 1e6, 7.0)

_nbytes = st.one_of(
    st.just(0),
    st.floats(min_value=-1e6, max_value=0.0),
    st.integers(min_value=1, max_value=2**40),
    st.floats(min_value=1e-3, max_value=1e12),
)
#: A duration in nanoseconds (instant and sub-nanosecond) or in windows
#: (inside one window, or spanning up to 24).
_duration = st.one_of(
    st.tuples(st.just("ns"), st.sampled_from([0.0, 0.3, 0.999])),
    st.tuples(st.just("windows"), st.floats(min_value=0.0, max_value=24.0)),
)
#: ``None`` starts a row where the previous one ended (back to back).
_start = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e11))
_row = st.tuples(
    st.sampled_from(list(DeviceKind)), st.booleans(), _nbytes, _start, _duration
)
#: A step deposits a run of rows, optionally followed by one read.
_steps = st.lists(
    st.tuples(st.lists(_row, max_size=10), st.booleans()), min_size=1, max_size=8
)


class TestDeferredDeposits:
    """The deferred tracker equals depositing every row at once."""

    @pytest.mark.parametrize("numpy_present", [True, False], ids=["numpy", "no-numpy"])
    @settings(max_examples=100, deadline=None)
    @given(
        window_ns=st.sampled_from(WINDOWS),
        settle_rows=st.integers(min_value=1, max_value=24),
        steps=_steps,
    )
    def test_matches_scalar_deposit(self, numpy_present, window_ns, settle_rows, steps):
        np_module = bandwidth._np if numpy_present else None
        with mock.patch.object(bandwidth, "_np", np_module), mock.patch.object(
            bandwidth, "SETTLE_ROWS", settle_rows
        ), mock.patch.object(bandwidth, "WINDOW_NS", window_ns):
            tracker = BandwidthTracker()
            rows, now = [], 0.0
            for step_rows, read in steps:
                batch = []
                for device, is_write, nbytes, start, (unit, length) in step_rows:
                    start = now if start is None else start
                    duration = length if unit == "ns" else length * window_ns
                    batch.append((device, is_write, nbytes, start, duration))
                    now = start + duration
                deposit_rows(tracker, batch)
                rows.extend(batch)
                # A threshold-crossing settle leaves fewer than
                # ``settle_rows`` rows pending.
                assert tracker.pending < settle_rows
                if read:
                    assert _readings(tracker) == _reference_readings(rows, window_ns)
                    assert tracker.pending == 0
            assert _readings(tracker) == _reference_readings(rows, window_ns)

    def test_pending_rows_are_invisible_to_the_cyclic_gc(self, monkeypatch):
        monkeypatch.setattr(bandwidth, "SETTLE_ROWS", 10_000)
        tracker = BandwidthTracker()
        deposit_rows(tracker, [(DeviceKind.NVM, True, 64.0, 1.0, 2.0)] * 5_000)
        assert tracker.pending == 5_000
        columns = tracker.deposit_columns()
        assert all(type(column) is array for column in columns)
        # An array holds raw values: a collection traverses at most its
        # type, never a pending row.
        for column in columns:
            assert all(isinstance(ref, type) for ref in gc.get_referents(column))


_ROWS = [
    (DeviceKind.DRAM, 4096, 1024, 3, 0, 5e8),
    (DeviceKind.NVM, 2.5e9, 0, 0, 7, 0.0),
    (DeviceKind.DRAM, 0, 0, 0, 0, 2e9),
    (DeviceKind.DISK, 3e8, 6e8, 0, 0, 0.0),
    (DeviceKind.NVM, 1, 0, 0, 0, 0.0),
]
_ROW_BATCHES = [(((d, r, w, rr, rw),), cpu) for d, r, w, rr, rw, cpu in _ROWS]
_SERIES = [
    ([(DeviceKind.DRAM, 1e9, 5e8, 0, 0), (DeviceKind.NVM, 4e9, 0, 0, 9)], 1e8),
    ((), 3e8),
    ([(DeviceKind.NVM, 0, 2e9, 2, 0)], 0.0),
]
#: The two data shapes charged through ``Machine.run_batch``: a shuffle
#: wave of one-row batches, and a GC-shaped series of concurrent batches.
_SHAPES = pytest.mark.parametrize(
    "batches", [_ROW_BATCHES, _SERIES], ids=["one_row_batches", "run_batch"]
)
_ACCESSORS = [
    ("_bins", lambda bw: [(k, list(v.items())) for k, v in bw._bins.items()]),
    ("series", lambda bw: [bw.series(*key) for key in bandwidth.KEYS]),
    ("peak_gbps", lambda bw: [bw.peak_gbps(*key) for key in bandwidth.KEYS]),
    ("total_bytes", lambda bw: [bw.total_bytes(*key) for key in bandwidth.KEYS]),
]


class TestReadsSettle:
    """Every accessor read right after an unsettled charge call sees the
    settled bins: nothing can read stale bandwidth."""

    @pytest.mark.parametrize("name,read", _ACCESSORS, ids=[a[0] for a in _ACCESSORS])
    @_SHAPES
    def test_first_read_sees_settled_value(self, batches, name, read):
        machines = [Machine(small_config()) for _ in range(2)]
        for machine in machines:
            machine.run_batch(batches)
            assert machine.bandwidth.pending > 0
        unsettled, settled = machines
        settled.bandwidth.settle()
        assert settled.bandwidth.pending == 0
        assert repr(read(unsettled.bandwidth)) == repr(read(settled.bandwidth))
        assert unsettled.bandwidth.pending == 0

    def test_charges_settle_once_the_queue_is_full(self, monkeypatch):
        monkeypatch.setattr(bandwidth, "SETTLE_ROWS", 4)
        machine = Machine(small_config())
        machine.run_batch(_ROW_BATCHES[:1])
        assert machine.bandwidth.pending == 2
        machine.run_batch(_ROW_BATCHES[1:2])
        assert machine.bandwidth.pending == 0
        machine.run_batch(_SERIES[2:])
        assert machine.bandwidth.pending == 2
        machine.run_batch(_SERIES[:1])
        assert machine.bandwidth.pending == 0

    @_SHAPES
    def test_a_raising_call_deposits_nothing(self, batches):
        machine = Machine(small_config())
        with pytest.raises(ValueError):
            machine.run_batch(batches + [((), -1.0)])
        assert machine.bandwidth.pending == 0
        assert machine.bandwidth._bins == {}
