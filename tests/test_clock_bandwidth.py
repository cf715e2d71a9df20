"""Tests for the simulated clock and the windowed bandwidth tracker."""

import pytest
from hypothesis import given, strategies as st

from repro.config import DeviceKind
from repro.memory.bandwidth import BandwidthTracker
from repro.memory.clock import SimClock


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

    def test_reset(self):
        clock = SimClock()
        clock.advance(10)
        clock.reset()
        assert clock.now_ns == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=20))
    def test_monotonic(self, steps):
        clock = SimClock()
        last = 0.0
        for step in steps:
            assert clock.advance(step) >= last
            last = clock.now_ns


class TestBandwidthTracker:
    def test_single_event_lands_in_one_window(self):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.DRAM, False, 3e9, 0, 1e9)])
        series = bw.series(DeviceKind.DRAM, False)
        assert len(series) == 1
        assert series[0].gbps == pytest.approx(3.0, rel=1e-6)

    def test_long_event_spreads_over_windows(self):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.NVM, True, 10e9, 0, 5e9)])
        series = bw.series(DeviceKind.NVM, True)
        # 10 GB over 5 s = 2 GB/s sustained.
        sustained = [s.gbps for s in series[:5]]
        for value in sustained:
            assert value == pytest.approx(2.0, rel=1e-6)

    def test_zero_duration_event(self):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.DRAM, False, 1e6, 5e8, 0)])
        assert bw.total_bytes(DeviceKind.DRAM, False) == pytest.approx(1e6)

    def test_directions_are_separate(self):
        bw = BandwidthTracker()
        bw.record_rows([(DeviceKind.DRAM, False, 100, 0, 10)])
        assert bw.series(DeviceKind.DRAM, True) == []

    def test_peak(self):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.DRAM, False, 5e9, 0, 1e9)])
        bw.record_rows([(DeviceKind.DRAM, False, 1e9, 3e9, 1e9)])
        assert bw.peak_gbps(DeviceKind.DRAM, False) == pytest.approx(5.0, rel=0.01)

    def test_gap_windows_reported_as_zero(self):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.DRAM, False, 1e9, 0, 0.5e9)])
        bw.record_rows([(DeviceKind.DRAM, False, 1e9, 4e9, 0.5e9)])
        series = bw.series(DeviceKind.DRAM, False)
        assert any(s.gbps == 0.0 for s in series)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            BandwidthTracker(window_ns=0)

    @given(
        nbytes=st.floats(min_value=1, max_value=1e12),
        start=st.floats(min_value=0, max_value=1e10),
        duration=st.floats(min_value=0, max_value=1e10),
    )
    def test_bytes_conserved(self, nbytes, start, duration):
        bw = BandwidthTracker(window_ns=1e9)
        bw.record_rows([(DeviceKind.NVM, False, nbytes, start, duration)])
        assert bw.total_bytes(DeviceKind.NVM, False) == pytest.approx(
            nbytes, rel=1e-2
        )
