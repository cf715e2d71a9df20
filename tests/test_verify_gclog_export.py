"""Tests for the heap verifier, the GC log renderer and result export."""

import csv
import io
import json

import pytest

from repro.config import MiB, PolicyName
from repro.gc.gclog import format_pause, render_log, summary_line
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.harness.export import (
    bandwidth_series_to_csv,
    result_to_dict,
    results_to_json,
)
from repro.heap.object_model import ObjKind
from repro.heap.verify import verify_heap

SCALE = 0.03


@pytest.fixture(scope="module")
def pr_result():
    cfg = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
    return run_experiment(
        "PR", cfg, scale=SCALE, workload_kwargs={"iterations": 3},
        keep_context=True,
    )


class TestHeapVerifier:
    def test_fresh_heap_is_consistent(self, panthera_stack):
        assert verify_heap(panthera_stack.heap) == []

    def test_consistent_after_workout(self, panthera_stack):
        heap = panthera_stack.heap
        for i in range(6):
            array = heap.allocate_rdd_array(MiB, rdd_id=i)
            if i % 2 == 0:
                heap.add_root(array)
        panthera_stack.collector.collect_minor()
        panthera_stack.collector.collect_major()
        assert verify_heap(heap) == []

    def test_detects_collected_root(self, panthera_stack):
        heap = panthera_stack.heap
        ghost = heap.new_object(ObjKind.DATA, 64)
        heap.add_root(ghost)
        ghost.space = None  # simulate corruption
        ghost.addr = None
        problems = verify_heap(heap)
        assert any("root" in p for p in problems)

    def test_detects_overlap(self, panthera_stack):
        heap = panthera_stack.heap
        a = heap.new_object(ObjKind.DATA, 256)
        b = heap.new_object(ObjKind.DATA, 256)
        b.addr = a.addr  # simulate corruption
        problems = verify_heap(heap)
        assert any("overlap" in p for p in problems)

    def test_detects_missing_dirty_card(self, panthera_stack):
        heap = panthera_stack.heap
        array = heap.allocate_rdd_array(MiB, rdd_id=1)
        heap.add_root(array)  # the barrier check only covers live objects
        young = heap.new_object(ObjKind.DATA, 64)
        array.refs.append(young)  # bypass the write barrier
        problems = verify_heap(heap)
        assert any("dirty card" in p for p in problems)

    def test_experiment_heap_ends_consistent(self, pr_result):
        assert verify_heap(pr_result.context.heap) == []


class TestGCLog:
    def test_minor_line_format(self):
        line = format_pause("minor", 412_000_000, 12_300_000)
        assert line == "[0.412s][GC (Allocation Failure) minor pause 12.3ms]"

    def test_major_line_format(self):
        line = format_pause("major", 3_870_000_000, 181_000_000)
        assert "Full GC" in line and "181.0ms" in line

    def test_render_log_from_experiment(self, pr_result):
        stats = pr_result.context.collector.stats
        lines = render_log(stats, pr_result.elapsed_s)
        assert len(lines) == len(stats.pauses) + 1
        assert lines[-1].startswith("GC summary:")

    def test_render_log_tail_elides(self, pr_result):
        stats = pr_result.context.collector.stats
        lines = render_log(stats, pr_result.elapsed_s, tail=5)
        assert "elided" in lines[0]
        assert len(lines) == 7  # marker + 5 pauses + summary

    def test_summary_share(self):
        from repro.gc.stats import GCStats

        stats = GCStats()
        stats.record_minor(0, 1e9)
        line = summary_line(stats, elapsed_s=10.0)
        assert "(10.0%)" in line

    def test_summary_clamps_zero_elapsed(self):
        from repro.gc.stats import GCStats

        stats = GCStats()
        stats.record_minor(0, 1e9)
        assert summary_line(stats, elapsed_s=0.0) == (
            "GC summary: 1 minor (1.00s), 0 major (0.00s), "
            "total 1.00s (0.0%)"
        )

    def test_summary_clamps_negative_elapsed(self):
        from repro.gc.stats import GCStats

        stats = GCStats()
        stats.record_minor(0, 2e9)
        stats.record_major(2e9, 5e8)
        assert summary_line(stats, elapsed_s=-3.5) == (
            "GC summary: 1 minor (2.00s), 1 major (0.50s), "
            "total 2.50s (0.0%)"
        )


class TestExport:
    def test_result_to_dict_fields(self, pr_result):
        row = result_to_dict(pr_result)
        assert row["workload"] == "PR"
        assert row["policy"] == "panthera"
        assert row["elapsed_s"] > 0
        assert "dram_static_j" in row
        assert row["tags"]["links"] == "dram"

    def test_json_roundtrip(self, pr_result):
        text = results_to_json({"run": pr_result})
        data = json.loads(text)
        assert data["run"]["workload"] == "PR"

    def test_bandwidth_csv(self, pr_result):
        text = bandwidth_series_to_csv(pr_result)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["time_s", "device", "direction", "gbps"]
        assert len(rows) > 2

    def test_export_requires_context(self):
        cfg = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        result = run_experiment(
            "PR", cfg, scale=SCALE, workload_kwargs={"iterations": 2}
        )
        with pytest.raises(ValueError):
            bandwidth_series_to_csv(result)
