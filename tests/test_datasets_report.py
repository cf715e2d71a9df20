"""Tests for the dataset generators and the report helpers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MiB, PolicyName
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.harness.report import normalize_results, summarize
from repro.workloads.datasets import (
    kdd_points,
    labeled_points,
    ml_points,
    notre_dame_graph,
    pagerank_graph,
    powerlaw_graph,
    wiki_en_graph,
)


class TestPowerlawGraph:
    def test_every_vertex_has_out_edge(self):
        ds = powerlaw_graph("p1", 50, 150, total_bytes=MiB, seed=3)
        sources = {src for src, _ in ds.records}
        assert sources == set(range(50))

    def test_no_self_loops(self):
        ds = powerlaw_graph("p2", 50, 200, total_bytes=MiB, seed=4)
        assert all(src != dst for src, dst in ds.records)

    def test_degree_skew(self):
        ds = powerlaw_graph("p3", 100, 2000, total_bytes=MiB, seed=5)
        in_degree = {}
        for _, dst in ds.records:
            in_degree[dst] = in_degree.get(dst, 0) + 1
        low_half = sum(in_degree.get(v, 0) for v in range(50))
        high_half = sum(in_degree.get(v, 0) for v in range(50, 100))
        assert low_half > high_half  # preferential attachment to low ids

    def test_deterministic_per_seed(self):
        a = powerlaw_graph("p4", 30, 90, total_bytes=MiB, seed=9)
        b = powerlaw_graph("p4", 30, 90, total_bytes=MiB, seed=9)
        assert a.records == b.records

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            powerlaw_graph("p5", 1, 10, total_bytes=MiB)

    @given(
        n=st.integers(min_value=2, max_value=60),
        e_extra=st.integers(min_value=0, max_value=120),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=25, deadline=None)
    def test_edge_count_respected(self, n, e_extra, seed):
        e = n + e_extra
        ds = powerlaw_graph("ph", n, e, total_bytes=MiB, seed=seed)
        assert len(ds.records) == e
        for src, dst in ds.records:
            assert 0 <= src < n and 0 <= dst < n


class TestLabeledPoints:
    def test_labels_round_robin(self):
        ds = labeled_points("l1", 12, dim=3, n_classes=3, total_bytes=MiB)
        labels = [label for label, _ in ds.records]
        assert labels == [i % 3 for i in range(12)]

    def test_dimension(self):
        ds = labeled_points("l2", 5, dim=7, n_classes=2, total_bytes=MiB)
        assert all(len(vec) == 7 for _, vec in ds.records)

    def test_clusters_separated(self):
        ds = labeled_points("l3", 200, dim=4, n_classes=2,
                            total_bytes=MiB, seed=5)
        sums = {0: [0.0] * 4, 1: [0.0] * 4}
        counts = {0: 0, 1: 0}
        for label, vec in ds.records:
            counts[label] += 1
            for i, x in enumerate(vec):
                sums[label][i] += x
        means = {
            label: [s / counts[label] for s in sums[label]] for label in (0, 1)
        }
        gap = sum(abs(a - b) for a, b in zip(means[0], means[1]))
        assert gap > 2.0  # centres drawn from U(-10, 10) are apart


class TestPaperDatasetFactories:
    def test_sizes_scale_linearly(self):
        for factory in (pagerank_graph, wiki_en_graph, ml_points, kdd_points,
                        notre_dame_graph):
            small = factory(scale=0.1)
            large = factory(scale=0.2)
            assert large.total_bytes == pytest.approx(2 * small.total_bytes)

    def test_notre_dame_structure_fixed_under_scaling(self):
        # TC's closure is quadratic in vertices: structure must not scale.
        small = notre_dame_graph(scale=0.05)
        large = notre_dame_graph(scale=0.5)
        assert len(small.records) == len(large.records)

    def test_names_unique_per_scale(self):
        assert pagerank_graph(0.1).name != pagerank_graph(0.2).name


class TestReportHelpers:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for key, policy in (
            ("dram-only", PolicyName.DRAM_ONLY),
            ("panthera", PolicyName.PANTHERA),
        ):
            cfg = paper_config(64, 1 / 3, policy, 0.02)
            out[key] = run_experiment(
                "KM", cfg, scale=0.02, workload_kwargs={"iterations": 3}
            )
        return out

    def test_normalize_rejects_zero_baseline(self, results):
        import dataclasses

        broken = dict(results)
        broken["dram-only"] = dataclasses.replace(
            results["dram-only"], elapsed_s=0.0
        )
        with pytest.raises(ValueError):
            normalize_results(broken, "dram-only")

    def test_summarize_is_one_line(self, results):
        line = summarize(results["panthera"])
        assert "\n" not in line
        assert "KM" in line
