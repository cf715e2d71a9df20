"""Regression tests for the hot-path performance overhaul.

Covers the two bug fixes that rode along with the optimisation work (the
card-padding promotion guarantee and the sparse bandwidth series), the
incremental Space counters (a hypothesis property against the recomputed
oracle plus ``verify_heap`` drift detection), the sweep-time card-table
hygiene, byte-identity of batched GC-phase deposits with one deposit
per charge, the wiring of ``repro bench``'s micro stacks, and the
``repro bench`` comparison gate.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench import MICRO_BENCHES, make_stack as bench_stack
from repro.cli import main as cli_main
from repro.config import CARD_SIZE, DeviceKind, PolicyName
from repro.core.monitor import AccessMonitor
from repro.core.tags import MemoryTag
from repro.errors import GCError
from repro.gc import major, minor
from repro.gc.collector import Collector
from repro.heap.object_model import HeapObject, ObjKind
from repro.heap.spaces import Space, recompute_live_bytes
from repro.heap.verify import verify_heap
from repro.memory.bandwidth import BandwidthTracker
from tests.conftest import deposit_rows, make_stack
from tests.golden import corpus
from tests.test_costplane import PerChargeDeposits


# -- promotion guarantee under card padding (§4.2.3) -----------------------


def _old_unpadded_bound(self) -> int:
    """The pre-fix formula: raw survivable bytes, no padding term."""
    return self.heap.eden.live_bytes() + self.heap.survivor_from.live_bytes()


def _squeeze_old_gen(stack, slack: int) -> int:
    """Fill the old generation with dead filler so that exactly
    ``raw survivable + slack`` bytes stay free, then stage eight
    card-misaligned arrays in eden (all of which the next scavenge must
    promote, with ``minor.TENURING_THRESHOLD`` patched to 1).  Returns
    the raw survivable sum.
    """
    heap = stack.heap
    size = CARD_SIZE * 3 + 100  # deliberately not a multiple of the card size
    arrays = []
    for _ in range(8):
        obj = heap.new_object(ObjKind.RDD_ARRAY, size)
        heap.add_root(obj)
        arrays.append(obj)
    raw = sum(o.size for o in arrays)
    spaces = heap.old_spaces
    for space in spaces[1:]:
        filler = HeapObject(ObjKind.CONTROL, space.free)
        assert space.place(filler)
    first = spaces[0]
    filler = HeapObject(ObjKind.CONTROL, first.free - (raw + slack))
    assert first.place(filler)
    assert stack.collector.old_free_bytes() == raw + slack
    return raw


class TestPromotionGuaranteePadding:
    def test_bound_includes_card_padding_per_array(self):
        stack = make_stack(PolicyName.PANTHERA)
        heap = stack.heap
        sizes = [CARD_SIZE * 2 + 17, CARD_SIZE + 1, 3000]
        for size in sizes:
            heap.new_object(ObjKind.RDD_ARRAY, size)
        heap.new_object(ObjKind.DATA, 4096)
        assert heap.card_padding
        bound = stack.collector._promotion_upper_bound()
        assert bound == sum(sizes) + 4096 + len(sizes) * (CARD_SIZE - 1)

    def test_unpadded_bound_overflows_mid_promotion(self, monkeypatch):
        """The pre-fix bound admits a scavenge the old gen cannot absorb:
        per-array card padding makes the real footprint exceed the raw
        sum, and promotion fails with the heap half-evacuated."""
        monkeypatch.setattr(minor, "TENURING_THRESHOLD", 1)
        stack = make_stack(PolicyName.PANTHERA)
        _squeeze_old_gen(stack, slack=4)
        monkeypatch.setattr(
            Collector, "_promotion_upper_bound", _old_unpadded_bound
        )
        with pytest.raises(GCError, match="promotion failed"):
            stack.collector.collect_minor()

    def test_padded_bound_runs_major_first_and_succeeds(self, monkeypatch):
        """The fixed bound counts the worst-case padding, sees the old
        generation cannot guarantee the scavenge, and runs a full GC
        (reclaiming the dead filler) before promoting."""
        monkeypatch.setattr(minor, "TENURING_THRESHOLD", 1)
        stack = make_stack(PolicyName.PANTHERA)
        _squeeze_old_gen(stack, slack=4)
        stack.collector.collect_minor()  # must not raise
        assert stack.collector.stats.major_count == 1
        heap = stack.heap
        rooted = list(heap.iter_roots())
        assert len(rooted) == 8
        assert all(heap.in_old(obj) for obj in rooted)
        assert verify_heap(heap) == []


# -- sparse bandwidth series across long idle gaps -------------------------


class TestBandwidthGapSeries:
    def test_multi_hour_gap_yields_sparse_series(self):
        tracker = BandwidthTracker()
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 4e9, 0.0, 1e8)])
        two_hours_ns = 7200 * 1e9
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 2e9, two_hours_ns, 1e8)])
        series = tracker.series(DeviceKind.DRAM, False)
        # Two active windows bracketing a 2-hour idle stretch: the gap
        # contributes exactly two zero samples (its edges), not 7198.
        assert [s.time_s for s in series] == [0.0, 1.0, 7199.0, 7200.0]
        assert series[1].gbps == 0.0 and series[2].gbps == 0.0
        assert series[0].gbps == pytest.approx(4.0)
        assert series[3].gbps == pytest.approx(2.0)

    def test_single_window_gap_gets_one_zero(self):
        tracker = BandwidthTracker()
        deposit_rows(tracker, [(DeviceKind.NVM, True, 1e9, 0.0, 1e8)])
        deposit_rows(tracker, [(DeviceKind.NVM, True, 1e9, 2e9, 1e8)])
        series = tracker.series(DeviceKind.NVM, True)
        assert [s.time_s for s in series] == [0.0, 1.0, 2.0]
        assert series[1].gbps == 0.0

    def test_adjacent_windows_have_no_zeros(self):
        tracker = BandwidthTracker()
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 1e9, 0.0, 1e8)])
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 1e9, 1e9, 1e8)])
        series = tracker.series(DeviceKind.DRAM, False)
        assert [s.time_s for s in series] == [0.0, 1.0]
        assert all(s.gbps > 0 for s in series)

    def test_peak_and_total_ignore_gap_windows(self):
        tracker = BandwidthTracker()
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 4e9, 0.0, 1e8)])
        deposit_rows(tracker, [(DeviceKind.DRAM, False, 2e9, 3600 * 1e9, 1e8)])
        assert tracker.peak_gbps(DeviceKind.DRAM, False) == pytest.approx(4.0)
        assert tracker.total_bytes(DeviceKind.DRAM, False) == pytest.approx(6e9)

    def test_empty_tracker(self):
        tracker = BandwidthTracker()
        assert tracker.series(DeviceKind.DRAM, False) == []
        assert tracker.peak_gbps(DeviceKind.DRAM, False) == 0.0


# -- incremental Space counters vs the recomputed oracle -------------------


_COUNTER_OPS = st.lists(
    st.tuples(
        st.sampled_from(["place", "discard", "adopt", "compact", "reset"]),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
    max_size=60,
)


class TestSpaceCounterProperty:
    @settings(max_examples=60, deadline=None)
    @given(ops=_COUNTER_OPS)
    def test_counters_equal_recomputed_sums(self, ops):
        space = Space(
            "prop", base=0, size=1 << 24, generation="old",
            device=DeviceKind.DRAM,
        )
        resident = []
        for op, magnitude, arrayish in ops:
            kind = ObjKind.RDD_ARRAY if arrayish else ObjKind.DATA
            if op == "place":
                obj = HeapObject(kind, magnitude * 128)
                if space.place(obj):
                    resident.append(obj)
            elif op == "discard" and resident:
                obj = resident.pop(magnitude % len(resident))
                space.discard(obj)
                obj.space = None
                obj.addr = None
            elif op == "adopt":
                obj = HeapObject(kind, magnitude * 128)
                obj.addr = space.top
                obj.space = space.extent
                space.top += obj.size
                space.adopt(obj)
                resident.append(obj)
            elif op == "compact":
                for obj in space.begin_compaction():
                    assert space.place(obj)
            elif op == "reset":
                space.reset()
                resident.clear()
            expected = recompute_live_bytes(space)
            assert (space.live_bytes(), space.array_count) == expected

    def test_verify_heap_detects_live_byte_drift(self):
        stack = make_stack(PolicyName.PANTHERA)
        stack.heap.new_object(ObjKind.DATA, 4096)
        assert verify_heap(stack.heap) == []
        stack.heap.eden._live_bytes += 1
        problems = verify_heap(stack.heap)
        assert any("live-byte counter" in p for p in problems)

    def test_verify_heap_detects_array_count_drift(self):
        stack = make_stack(PolicyName.PANTHERA)
        stack.heap.new_object(ObjKind.RDD_ARRAY, 4096)
        stack.heap.eden._array_count += 1
        problems = verify_heap(stack.heap)
        assert any("array counter" in p for p in problems)


# -- sweep-time card-table hygiene -----------------------------------------


class TestSweepCardHygiene:
    def test_major_gc_unregisters_dead_arrays(self):
        stack = make_stack(PolicyName.PANTHERA)
        heap = stack.heap
        live, dead = [], []
        for i in range(30):
            heap.tag_wait.arm(MemoryTag.NVM)
            array = heap.allocate_rdd_array(96 * 1024, rdd_id=i)
            if i % 3 == 0:
                heap.add_root(array)
                live.append(array)
            else:
                dead.append(array)
        assert all(heap.card_table.is_registered(a) for a in live + dead)
        stack.collector.collect_major()
        tracked = set(heap.card_table.tracked())
        assert not tracked.intersection(dead)
        assert all(a in tracked for a in live)
        assert all(a.space is None and a.addr is None for a in dead)
        assert verify_heap(heap) == []

    def test_unregister_reports_tracked_state(self):
        stack = make_stack(PolicyName.PANTHERA)
        heap = stack.heap
        heap.tag_wait.arm(MemoryTag.NVM)
        array = heap.allocate_rdd_array(96 * 1024, rdd_id=0)
        table = heap.card_table
        assert table.unregister(array) is True
        assert table.unregister(array) is False  # already gone

    def test_pending_scan_tracks_dirty_state(self):
        stack = make_stack(PolicyName.PANTHERA)
        heap = stack.heap
        heap.tag_wait.arm(MemoryTag.NVM)
        array = heap.allocate_rdd_array(96 * 1024, rdd_id=0)
        heap.add_root(array)
        table = heap.card_table
        assert not table.pending_scan()
        young = heap.new_object(ObjKind.DATA, 1024)
        heap.write_ref(array, young)  # old-to-young store dirties a card
        assert table.pending_scan()
        stack.collector.collect_minor()
        assert not table.pending_scan()  # padded array: never stuck


# -- batched deposits vs one deposit per charge ----------------------------


class TestBatchedDepositIdentity:
    def test_traced_faulted_run_identical_either_way(self, monkeypatch):
        """The corpus's traced, shuffle-killed s0.01 PR cell digests the
        same when the GC phases deposit every charge on its own and
        settle devices in first-touch order (``PerChargeDeposits``)
        instead of settling ``ChargeAccumulator``'s totals in
        ``DeviceKind`` order."""
        cell = corpus.Cell("PR", PolicyName.PANTHERA, corpus.PRESSURES[0])
        batched = cell.run()
        monkeypatch.setattr(minor, "ChargeAccumulator", PerChargeDeposits)
        monkeypatch.setattr(major, "ChargeAccumulator", PerChargeDeposits)
        per_charge = cell.run()
        assert batched == per_charge


# -- bench comparison gate --------------------------------------------------


def _doc(*benchmarks):
    return {"schema": 1, "benchmarks": list(benchmarks)}


def _micro(name, per_iter_us):
    return {"name": name, "kind": "micro", "per_iter_us": per_iter_us}


def _experiment(name, wall_s):
    return {"name": name, "kind": "experiment", "wall_s": wall_s}


class TestBenchCompare:
    def test_regression_beyond_tolerance_flagged(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_micro("micro.x", 10.0)), _doc(_micro("micro.x", 13.0))
        )
        assert report.regressions == ["micro.x"]

    def test_within_tolerance_is_ok(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_micro("micro.x", 10.0)), _doc(_micro("micro.x", 11.5))
        )
        assert report.regressions == []
        assert report.improvements == []

    def test_improvement_reported(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_micro("micro.x", 10.0)), _doc(_micro("micro.x", 7.0))
        )
        assert report.improvements == ["micro.x"]

    def test_experiments_compare_wall_time(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_experiment("experiment.PR", 10.0)),
            _doc(_experiment("experiment.PR", 30.0)),
        )
        assert report.regressions == ["experiment.PR"]

    def test_missing_benchmarks_reported_not_fatal(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_micro("micro.gone", 10.0)), _doc(_micro("micro.new", 10.0))
        )
        assert report.regressions == []
        assert any("no baseline" in line for line in report.lines)
        assert any("missing from current" in line for line in report.lines)

    def test_custom_tolerance(self):
        from repro.bench import compare_documents

        report = compare_documents(
            _doc(_micro("micro.x", 10.0)),
            _doc(_micro("micro.x", 11.0)),
            tolerance=0.05,
        )
        assert report.regressions == ["micro.x"]


class TestBenchMicroStacks:
    """``repro bench``'s micro stacks are nodes wired by
    ``SparkContext.create``: each policy's own machinery, and no other."""

    def test_unmanaged_runs_no_monitor(self):
        assert bench_stack(PolicyName.UNMANAGED).collector.monitor is None

    def test_deca_has_regions(self):
        assert bench_stack(PolicyName.DECA).heap.regions is not None

    def test_panthera_monitor_charges_its_jni_calls(self):
        stack = bench_stack(PolicyName.PANTHERA)
        assert stack.collector.monitor is stack.runtime.monitor
        before = stack.machine.clock.now_ns
        stack.collector.monitor.record_call(1)
        assert stack.machine.clock.now_ns == before + AccessMonitor.JNI_CALL_NS

    @pytest.mark.parametrize("name", sorted(MICRO_BENCHES))
    def test_every_micro_runs_an_iteration(self, name):
        """Each body runs on what its setup kept alive (a heap holds its
        collector only weakly)."""
        setup, _inner = MICRO_BENCHES[name]
        setup()()


class TestBenchCli:
    def _stub_suite(self, monkeypatch, per_iter_us):
        import repro.bench as bench

        document = {
            "schema": 1,
            "quick": True,
            "peak_rss_kb": 12345,
            "benchmarks": [_micro("micro.x", per_iter_us)],
        }
        monkeypatch.setattr(
            bench,
            "run_bench_suite",
            lambda quick=False, rounds=None, log=None, scale_sweep=False,
            profile=False: document,
        )
        return document

    def test_bench_writes_report(self, tmp_path, monkeypatch, capsys):
        self._stub_suite(monkeypatch, 10.0)
        out = tmp_path / "bench.json"
        rc = cli_main(["bench", "--quick", "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["benchmarks"][0]["name"] == "micro.x"
        assert "peak RSS" in capsys.readouterr().out

    def test_non_linear_sweep_fails(self, tmp_path, monkeypatch, capsys):
        document = self._stub_suite(monkeypatch, 10.0)
        document["benchmarks"].append(
            {"name": "sweep.PR.summary", "kind": "sweep_summary", "linear": False}
        )
        rc = cli_main(["bench", "--quick", "--out", str(tmp_path / "bench.json")])
        assert rc == 1
        assert "NON-LINEAR scale sweep: sweep.PR.summary" in capsys.readouterr().out
