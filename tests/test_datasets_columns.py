"""Datasets held as typed columns: the generators' values, the derived
record view, the source batches sliced from the columns, and the edge
checks of the generators."""

import random
from array import array

import pytest

from repro.config import MiB, PolicyName
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.memory import bandwidth
from repro.spark import columnar
from repro.spark.partition import split_evenly
from repro.workloads.datasets import (
    DatasetSpec,
    kdd_points,
    labeled_points,
    ml_points,
    notre_dame_graph,
    pagerank_graph,
    powerlaw_graph,
    wiki_en_graph,
)
from tests.conftest import numpy_absent, small_context

# -- the tuple loops the generators replaced, kept here as the oracle --------


def _tuple_powerlaw_graph(n_vertices, n_edges, seed):
    rng = random.Random(seed)
    edges = []
    for src in range(n_vertices):
        dst = rng.randrange(n_vertices - 1)
        if dst >= src:
            dst += 1
        edges.append((src, dst))
    while len(edges) < n_edges:
        src = rng.randrange(n_vertices)
        dst = int(rng.random() ** 2 * n_vertices)
        if dst != src:
            edges.append((src, dst))
    return tuple(edges)


def _tuple_labeled_points(n_points, dim, n_classes, seed):
    rng = random.Random(seed)
    centers = [
        tuple(rng.uniform(-10.0, 10.0) for _ in range(dim))
        for _ in range(n_classes)
    ]
    records = []
    for i in range(n_points):
        label = i % n_classes
        center = centers[label]
        vec = tuple(c + rng.gauss(0.0, 1.0) for c in center)
        records.append((label, vec))
    return tuple(records)


SEEDS = (1, 7, 11, 17)
GRAPH_SIZES = ((2, 1), (2, 9), (13, 40), (150, 400), (600, 2400))
POINT_SIZES = (1, 3, 60, 500)
DIMS = (1, 2, 8)
CLASSES = (1, 2, 4)


def _same_records(got, want):
    # repr tells 0.0 from -0.0 and shows every float digit.
    assert type(got) is tuple
    assert len(got) == len(want)
    assert repr(got) == repr(want)


class TestRecordViewMatchesTheTupleLoops:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_vertices,n_edges", GRAPH_SIZES)
    def test_powerlaw_graph(self, seed, n_vertices, n_edges):
        ds = powerlaw_graph("g", n_vertices, n_edges, MiB, seed=seed)
        want = _tuple_powerlaw_graph(n_vertices, n_edges, seed)
        _same_records(ds.records, want)
        assert ds.n_records == len(want)
        assert ds.n_sources == len({src for src, _ in want})
        assert ds.n_vertices == len({v for edge in want for v in edge})

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_points", POINT_SIZES)
    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("n_classes", CLASSES)
    def test_labeled_points(self, seed, n_points, dim, n_classes):
        ds = labeled_points("p", n_points, dim, n_classes, MiB, seed=seed)
        want = _tuple_labeled_points(n_points, dim, n_classes, seed)
        _same_records(ds.records, want)
        assert ds.n_records == n_points
        assert ds.dim == dim

    @pytest.mark.parametrize(
        "factory,tuple_loop",
        [
            (pagerank_graph, lambda: _tuple_powerlaw_graph(40, 120, 7)),
            (wiki_en_graph, lambda: _tuple_powerlaw_graph(40, 150, 9)),
            (notre_dame_graph, lambda: _tuple_powerlaw_graph(150, 400, 13)),
            (ml_points, lambda: _tuple_labeled_points(60, 8, 4, 11)),
            (kdd_points, lambda: _tuple_labeled_points(60, 8, 2, 17)),
        ],
    )
    def test_paper_factories(self, factory, tuple_loop):
        _same_records(factory(scale=0.01).records, tuple_loop())

    def test_view_is_built_once(self):
        ds = labeled_points("once", 10, 3, 2, MiB)
        assert "records" not in vars(ds)
        assert ds.records is ds.records


class TestSourceBatches:
    """On the columnar plane a source partition is sliced from the
    columns, and is exactly the batch ``from_records`` packs from the
    round-robin split of the record view."""

    @staticmethod
    def _arrays(column):
        if type(column) is columnar.VecColumn:
            return column.mat
        return column.arr

    def _assert_same_batch(self, got, want):
        if want is None:
            assert type(got) is list and got == []
            return
        assert type(got) is columnar.ColumnBatch
        for got_col, want_col in ((got.keys, want.keys), (got.values, want.values)):
            assert type(got_col) is type(want_col)
            got_arr, want_arr = self._arrays(got_col), self._arrays(want_col)
            assert got_arr.dtype == want_arr.dtype
            assert got_arr.shape == want_arr.shape
            assert got_arr.tobytes() == want_arr.tobytes()
        assert repr(got.to_records()) == repr(want.to_records())

    @pytest.mark.parametrize("num_partitions", (1, 3, 4, 7))
    @pytest.mark.parametrize(
        "ds",
        [
            powerlaw_graph("g-small", 2, 3, MiB, seed=3),
            powerlaw_graph("g", 50, 200, MiB, seed=4),
            labeled_points("p-small", 3, 2, 2, MiB, seed=5),
            labeled_points("p", 101, 8, 4, MiB, seed=6),
        ],
        ids=lambda ds: ds.name,
    )
    def test_split_columns_is_the_packed_round_robin_split(
        self, ds, num_partitions
    ):
        pytest.importorskip("numpy")
        parts = columnar.split_columns(
            ds.keys, ds.values, ds.dim, num_partitions
        )
        want = [
            columnar.ColumnBatch.from_records(part)
            for part in split_evenly(ds.records, num_partitions)
        ]
        assert len(parts) == num_partitions
        for got, expected in zip(parts, want):
            self._assert_same_batch(got, expected)

    def test_source_rdd_serves_the_column_slices(self):
        pytest.importorskip("numpy")
        ds = labeled_points("src", 9, 2, 3, MiB, num_partitions=4, seed=8)
        source = small_context(PolicyName.PANTHERA).source_rdd(ds)
        want = [
            columnar.ColumnBatch.from_records(part)
            for part in split_evenly(ds.records, 4)
        ]
        for got, expected in zip(source._partitions, want):
            self._assert_same_batch(got, expected)
        assert source.bytes_per_record == MiB / 9

    def test_source_rdd_without_numpy_serves_record_lists(self):
        ds = powerlaw_graph("lists", 10, 25, MiB, num_partitions=3, seed=2)
        with numpy_absent(columnar, bandwidth):
            source = small_context(PolicyName.PANTHERA).source_rdd(ds)
        assert source._partitions == split_evenly(ds.records, 3)
        assert all(type(part) is list for part in source._partitions)


#: Each workload's paper factory, called unmemoised so the test owns a
#: fresh dataset whose record view no other test has built.
_FACTORIES = {
    "PR": pagerank_graph,
    "CC": wiki_en_graph,
    "SSSP": wiki_en_graph,
    "TC": notre_dame_graph,
    "KM": ml_points,
    "LR": ml_points,
    "BC": kdd_points,
}


def _run_on_fresh_dataset(workload):
    ds = _FACTORIES[workload].__wrapped__(scale=0.01)
    run_experiment(
        workload,
        paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.01),
        scale=0.01,
        workload_kwargs={"dataset": ds},
    )
    return ds


class TestNoRecordViewOnTheColumnarPlane:
    @pytest.mark.parametrize("workload", sorted(_FACTORIES))
    def test_numpy_run_never_builds_the_record_view(self, workload):
        pytest.importorskip("numpy")
        ds = _run_on_fresh_dataset(workload)
        assert "records" not in vars(ds)

    def test_numpy_free_run_reads_the_record_view(self):
        """The probe's positive control: without numpy the data plane
        runs on the record view."""
        with numpy_absent(columnar, bandwidth):
            ds = _run_on_fresh_dataset("PR")
        assert "records" in vars(ds)


class TestGeneratorEdgeChecks:
    def test_zero_classes(self):
        with pytest.raises(ValueError, match="n_classes"):
            labeled_points("x", 10, 3, 0, MiB)

    @pytest.mark.parametrize("dim", (0, -1))
    def test_empty_or_negative_dim(self, dim):
        with pytest.raises(ValueError, match="dim"):
            labeled_points("x", 10, dim, 2, MiB)

    def test_zero_points(self):
        with pytest.raises(ValueError, match="n_points"):
            labeled_points("x", 0, 3, 2, MiB)

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: labeled_points("x", 10, 3, 2, MiB, num_partitions=n),
            lambda n: powerlaw_graph("x", 10, 20, MiB, num_partitions=n),
        ],
        ids=["points", "graph"],
    )
    def test_zero_partitions(self, make):
        with pytest.raises(ValueError, match="num_partitions"):
            make(0)

    @pytest.mark.parametrize("total_bytes", (0, -1.0, float("nan")))
    @pytest.mark.parametrize(
        "make",
        [
            lambda b: labeled_points("x", 10, 3, 2, b),
            lambda b: powerlaw_graph("x", 10, 20, b),
        ],
        ids=["points", "graph"],
    )
    def test_non_positive_bytes(self, make, total_bytes):
        with pytest.raises(ValueError, match="total_bytes"):
            make(total_bytes)


class TestDatasetSpec:
    @pytest.mark.parametrize(
        "keys,values,dim",
        [
            (array("q", [1, 2]), array("q", [3]), 0),
            (array("q", [1]), array("d", [1.0]), 2),
            (array("l", [1]), array("q", [3]), 0),
            (array("q", [1]), array("q", [3, 4]), 2),
            (array("q", [1]), array("d", [1.0]), -1),
        ],
        ids=["short", "short-vectors", "key-type", "int-vectors", "neg-dim"],
    )
    def test_malformed_columns(self, keys, values, dim):
        with pytest.raises(ValueError, match="array"):
            DatasetSpec("x", keys, values, 1, MiB, dim=dim)

    def test_value_equality_and_hash(self):
        a = labeled_points("eq", 20, 3, 2, MiB, seed=1)
        b = labeled_points("eq", 20, 3, 2, MiB, seed=1)
        c = labeled_points("eq", 20, 3, 2, MiB, seed=2)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert {a: 1}[b] == 1

    def test_holds_no_boxed_records(self):
        ds = ml_points.__wrapped__(scale=0.1)
        assert type(ds.keys) is array and ds.keys.typecode == "q"
        assert type(ds.values) is array and ds.values.typecode == "d"
        assert len(ds.values) == ds.n_records * ds.dim
        assert "records" not in vars(ds)
