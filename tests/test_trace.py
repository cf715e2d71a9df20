"""Unit tests for the ``repro.trace`` subsystem: the event vocabulary,
the bus, streaming aggregation, rendering, JSONL export and the
:class:`~repro.trace.TraceSession` front door (including the CLI)."""

import json

import pytest

from repro.config import MiB
from repro.core.tags import MemoryTag
from repro.heap.object_model import ObjKind
from repro.trace import (
    ReplayError,
    TraceSession,
    aggregate_events,
    events_to_jsonl,
    render_residency_table,
    render_timeline,
    render_trace_report,
    replay_events,
)
from repro.trace import render
from repro.trace.events import (
    ALLOC,
    FREE,
    GC_PAUSE,
    MIGRATE_NVM_TO_DRAM,
    PROMOTE,
    SURVIVOR_COPY,
    TraceEvent,
)
from tests.conftest import make_stack


def attach(stack) -> TraceSession:
    """Wire a fresh session onto a conftest stack."""
    return TraceSession.attach(stack.heap, stack.collector.stats)


class TestEvents:
    def test_to_dict_omits_empty_fields(self):
        event = TraceEvent(ALLOC, 5.0, oid=1, size=64.0, space="eden")
        row = event.to_dict()
        assert row == {
            "kind": ALLOC,
            "t_ns": 5.0,
            "oid": 1,
            "size": 64.0,
            "space": "eden",
        }


class TestJsonl:
    def test_lines_are_compact_sorted_json(self):
        text = events_to_jsonl(
            [TraceEvent(ALLOC, 0.0, oid=1, size=10.0, space="eden")]
        )
        (line,) = text.strip().splitlines()
        assert ": " not in line  # compact separators
        keys = list(json.loads(line))
        assert keys == sorted(keys)


class TestBus:
    def test_oids_are_dense_first_seen(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        heap.new_object(ObjKind.DATA, 64)
        heap.new_object(ObjKind.DATA, 64)
        assert [e.oid for e in session.events] == [1, 2]

    def test_alloc_event_describes_the_object(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        heap.tag_wait.arm(MemoryTag.NVM)
        heap.allocate_rdd_array(MiB, rdd_id=9)
        allocs = [e for e in session.events if e.kind == ALLOC]
        assert len(allocs) == 1
        event = allocs[0]
        assert event.size == MiB
        assert event.rdd_id == 9
        assert event.tag == "nvm"
        assert event.device in ("dram", "nvm")
        assert event.space is not None

    def test_tracing_is_off_by_default(self, panthera_stack):
        heap = panthera_stack.heap
        assert heap.trace is None
        assert heap.tag_wait.trace is None
        assert panthera_stack.collector.stats.trace is None

    def test_detach_stops_recording(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        heap.new_object(ObjKind.DATA, 64)
        session.detach()
        heap.new_object(ObjKind.DATA, 64)
        assert len(session.events) == 1


class TestGCEvents:
    def test_minor_gc_emits_pause_copies_and_frees(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        keep = heap.new_object(ObjKind.DATA, 4096)
        heap.add_root(keep)
        heap.new_object(ObjKind.DATA, 4096)  # dies at the scavenge
        panthera_stack.collector.collect_minor()
        kinds = [e.kind for e in session.events]
        assert kinds.count(GC_PAUSE) == 1
        assert SURVIVOR_COPY in kinds
        assert FREE in kinds
        pause = next(e for e in session.events if e.kind == GC_PAUSE)
        assert pause.pause_kind == "minor"
        assert pause.duration_ns > 0

    def test_full_gc_promotion_records_source_space(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        keep = heap.new_object(ObjKind.DATA, 4096)
        heap.add_root(keep)
        panthera_stack.collector.collect_major()
        promote = next(e for e in session.events if e.kind == PROMOTE)
        assert promote.src_space == "eden"
        assert promote.src_device == "dram"
        assert promote.space == keep.space.name


class TestReplay:
    def test_double_alloc_raises(self):
        events = [
            TraceEvent(ALLOC, 0.0, oid=1, size=8.0, space="eden"),
            TraceEvent(ALLOC, 1.0, oid=1, size=8.0, space="eden"),
        ]
        with pytest.raises(ReplayError):
            replay_events(events)

    def test_move_of_unknown_object_raises(self):
        events = [
            TraceEvent(
                PROMOTE, 0.0, oid=5, size=8.0, space="old-nvm", src_space="eden"
            )
        ]
        with pytest.raises(ReplayError):
            replay_events(events)

    def test_move_from_wrong_space_raises(self):
        events = [
            TraceEvent(ALLOC, 0.0, oid=1, size=8.0, space="eden"),
            TraceEvent(
                PROMOTE,
                1.0,
                oid=1,
                size=8.0,
                space="old-nvm",
                src_space="survivor-from",
            ),
        ]
        with pytest.raises(ReplayError):
            replay_events(events)

    def test_free_of_unknown_object_raises(self):
        with pytest.raises(ReplayError):
            replay_events([TraceEvent(FREE, 0.0, oid=1, size=8.0, space="eden")])

    def test_lenient_mode_skips_inconsistencies(self):
        events = [
            TraceEvent(FREE, 0.0, oid=1, size=8.0, space="eden"),
            TraceEvent(ALLOC, 1.0, oid=2, size=8.0, space="eden"),
        ]
        state = replay_events(events, strict=False)
        assert state.live_bytes == {"eden": 8}

    def test_reconstructs_simple_stream(self):
        events = [
            TraceEvent(ALLOC, 0.0, oid=1, size=100.0, space="eden"),
            TraceEvent(ALLOC, 0.0, oid=2, size=50.0, space="eden"),
            TraceEvent(
                PROMOTE, 1.0, oid=1, size=100.0, space="old-nvm", src_space="eden"
            ),
            TraceEvent(FREE, 1.0, oid=2, size=50.0, space="eden"),
            TraceEvent(GC_PAUSE, 1.0, pause_kind="minor", duration_ns=3.0),
        ]
        state = replay_events(events)
        assert state.live_bytes == {"eden": 0, "old-nvm": 100}
        assert state.total_live_bytes() == 100
        assert state.pauses == [("minor", 1.0, 3.0)]


class TestAggregation:
    def test_residency_integral(self):
        events = [
            TraceEvent(
                ALLOC, 0.0, oid=1, size=100.0, space="eden", device="dram", rdd_id=1
            ),
            TraceEvent(FREE, 2e9, oid=1, size=100.0, space="eden", rdd_id=1),
        ]
        agg = aggregate_events(events, end_ns=2e9)
        profile = agg.profiles[1]
        assert profile.dram_byte_s == pytest.approx(200.0)
        assert profile.nvm_byte_s == 0.0
        assert profile.alloc_bytes == 100
        assert profile.freed_bytes == 100
        assert profile.peak_bytes == 100

    def test_move_switches_device_attribution(self):
        events = [
            TraceEvent(
                ALLOC, 0.0, oid=1, size=10.0, space="old-nvm", device="nvm", rdd_id=2
            ),
            TraceEvent(
                MIGRATE_NVM_TO_DRAM,
                1e9,
                oid=1,
                size=10.0,
                space="old-dram",
                src_space="old-nvm",
                device="dram",
                src_device="nvm",
                rdd_id=2,
            ),
        ]
        agg = aggregate_events(events, end_ns=3e9)
        profile = agg.profiles[2]
        assert profile.nvm_byte_s == pytest.approx(10.0)
        assert profile.dram_byte_s == pytest.approx(20.0)
        assert profile.migrations_to_dram == 1
        assert agg.timelines["old-nvm"][-1] == (1e9, 0)
        assert agg.timelines["old-dram"][-1] == (1e9, 10)

    def test_top_profiles_ranked_and_tie_broken_by_id(self):
        events = [
            TraceEvent(
                ALLOC, 0.0, oid=1, size=10.0, space="eden", device="dram", rdd_id=5
            ),
            TraceEvent(
                ALLOC, 0.0, oid=2, size=10.0, space="eden", device="dram", rdd_id=3
            ),
        ]
        agg = aggregate_events(events, end_ns=1e9)
        assert [p.rdd_id for p in agg.top_profiles(2)] == [3, 5]


class TestRendering:
    def _events(self):
        return [
            TraceEvent(
                ALLOC, 0.0, oid=1, size=4096.0, space="eden", device="dram", rdd_id=1
            ),
            TraceEvent(GC_PAUSE, 5e8, pause_kind="minor", duration_ns=1e6),
            TraceEvent(FREE, 1e9, oid=1, size=4096.0, space="eden", rdd_id=1),
        ]

    def test_timeline_has_one_row_per_space(self, monkeypatch):
        monkeypatch.setattr(render, "TIMELINE_WIDTH", 20)
        agg = aggregate_events(self._events(), end_ns=1e9)
        text = render_timeline(agg)
        assert "20 buckets" in text
        assert "eden" in text
        assert "|" in text and "peak" in text

    def test_residency_table_is_markdown(self):
        agg = aggregate_events(self._events(), end_ns=1e9)
        table = render_residency_table(agg)
        assert table.splitlines()[0].startswith("| RDD |")

    def test_full_report_is_deterministic(self):
        events = self._events()
        first = render_trace_report(events, end_ns=1e9)
        second = render_trace_report(list(events), end_ns=1e9)
        assert first == second
        assert "trace: 3 events, 1 minor / 0 major pauses" in first


class TestSession:
    def test_oracle_clean_after_workout(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        for i in range(6):
            array = heap.allocate_rdd_array(MiB, rdd_id=i)
            if i % 2 == 0:
                heap.add_root(array)
        panthera_stack.collector.collect_minor()
        panthera_stack.collector.collect_major()
        assert session.check() == []

    def test_aggregate_uses_machine_clock(self, panthera_stack):
        session = attach(panthera_stack)
        heap = panthera_stack.heap
        heap.add_root(heap.new_object(ObjKind.DATA, 4096))
        panthera_stack.collector.collect_minor()
        agg = session.aggregate()
        assert agg.event_count == len(session.events)
        assert agg.end_ns <= panthera_stack.machine.clock.now_ns


class TestTraceCli:
    def test_run_trace_reports_and_checks(self, capsys, tmp_path):
        from repro.cli import main

        out_path = tmp_path / "events.jsonl"
        code = main(
            [
                "run",
                "PR",
                "--trace",
                "--scale",
                "0.02",
                "--iterations",
                "2",
                "--check",
                "--export-jsonl",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "occupancy timeline" in out
        assert "| RDD |" in out
        assert "replay oracle: consistent" in out
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert rows and any(row["kind"] == GC_PAUSE for row in rows)

    def test_check_implies_trace(self, capsys):
        from repro.cli import main

        code = main(["run", "KM", "--scale", "0.02", "--iterations", "2", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "occupancy timeline" in out
        assert "replay oracle: consistent" in out
