"""Tests for the bundled graph and pause percentiles."""

import pathlib
from array import array

import networkx as nx
import pytest

from repro.config import MiB, PolicyName
from repro.core.static_analysis import analyze_program
from repro.gc.stats import GCStats
from repro.spark.program import execute_program
from repro.workloads.datasets import DatasetSpec
from repro.workloads.graphx import build_connected_components
from tests.conftest import small_context

KARATE = pathlib.Path(__file__).resolve().parents[1] / "data" / "karate.edges"


def karate_dataset() -> DatasetSpec:
    """Zachary's karate club (one ``src dst`` pair per line) as a graph
    dataset weighing 8 MiB in memory."""
    pairs = [line.split() for line in KARATE.read_text().splitlines() if line]
    return DatasetSpec(
        name="karate.edges",
        keys=array("q", [int(src) for src, _ in pairs]),
        values=array("q", [int(dst) for _, dst in pairs]),
        num_partitions=4,
        total_bytes=8 * MiB,
    )


class TestEdgeListLoading:
    def test_karate_club_loads(self):
        ds = karate_dataset()
        assert len(ds.records) == 78
        vertices = {v for edge in ds.records for v in edge}
        assert len(vertices) == 34

    def test_karate_cc_matches_networkx(self):
        """A real dataset through a real workload: the karate club is one
        connected component."""
        ds = karate_dataset()
        spec = build_connected_components(dataset=ds, iterations=6)
        ctx = small_context(PolicyName.PANTHERA)
        tags = analyze_program(spec.program).tags
        results = execute_program(spec.program, ctx, tags)
        labels = {label for _, (label, _) in results["components"]}
        graph = nx.Graph()
        graph.add_edges_from(ds.records)
        assert len(labels) == nx.number_connected_components(graph) == 1


class TestPausePercentiles:
    def make_stats(self):
        stats = GCStats()
        for i in range(1, 11):
            stats.record_minor(i * 1e9, i * 1e6)  # 1..10 ms
        stats.record_major(99e9, 100e6)  # 100 ms
        return stats

    def test_max_pause(self):
        assert self.make_stats().max_pause_ms() == pytest.approx(100.0)

    def test_median_pause(self):
        stats = self.make_stats()
        assert 5.0 <= stats.pause_percentile(0.5) <= 7.0

    def test_nearest_rank_when_the_rank_is_whole(self):
        """p50 of four pauses is the second, and p99 of a hundred is the
        99th, not the worst: GC pauses and cluster latencies share one
        nearest-rank percentile."""
        stats = GCStats()
        for ms in (4, 1, 3, 2):
            stats.record_minor(ms * 1e9, ms * 1e6)
        assert stats.pause_percentile(0.5) == pytest.approx(2.0)
        hundred = GCStats()
        for ms in range(1, 101):
            hundred.record_minor(ms * 1e9, ms * 1e6)
        assert hundred.pause_percentile(0.99) == pytest.approx(99.0)

    def test_kind_filter(self):
        stats = self.make_stats()
        assert stats.pause_percentile(1.0, kind="minor") == pytest.approx(10.0)
        assert stats.pause_percentile(1.0, kind="major") == pytest.approx(100.0)

    def test_mean_pause(self):
        stats = self.make_stats()
        expected = (sum(range(1, 11)) + 100) / 11
        assert stats.mean_pause_ms() == pytest.approx(expected)

    def test_empty_stats(self):
        assert GCStats().pause_percentile(0.99) == 0.0
        assert GCStats().mean_pause_ms() == 0.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            GCStats().pause_percentile(1.5)
