"""Program IR tests: structure, execution, driver statements and the
IR's parity with the RDD API."""

import inspect
import operator
import typing

import pytest

from repro.core.tags import MemoryTag
from repro.errors import AnalysisError, SparkError
from repro.spark.program import (
    AssignStmt,
    Expr,
    LoopStmt,
    Program,
    TransformExpr,
    UnpersistStmt,
    VarRef,
    execute_program,
)
from repro.spark.rdd import RDD
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import powerlaw_graph
from tests.conftest import small_context


def graph_ds(n=30, e=80):
    return powerlaw_graph("ir-test", n, e, total_bytes=4 * 2**20, seed=5)


class TestBuilder:
    def test_let_appends_assign(self):
        p = Program()
        ref = p.let("x", p.source(graph_ds()))
        assert isinstance(ref, VarRef)
        assert isinstance(p.statements()[0], AssignStmt)

    def test_loop_nests_statements(self):
        p = Program()
        with p.loop(3):
            p.let("x", p.source(graph_ds()))
        (loop,) = p.statements()
        assert isinstance(loop, LoopStmt)
        assert loop.iterations == 3
        assert len(loop.body) == 1

    def test_zero_iteration_loop_rejected(self):
        p = Program()
        with pytest.raises(SparkError):
            with p.loop(0):
                pass

    def test_let_requires_expression(self):
        p = Program()
        with pytest.raises(SparkError):
            p.let("x", 42)

    def test_unpersist_prior_records_lag(self):
        p = Program()
        ref = p.let("x", p.source(graph_ds()))
        p.unpersist_prior(ref, lag=2)
        stmt = p.statements()[-1]
        assert isinstance(stmt, UnpersistStmt)
        assert stmt.prior and stmt.lag == 2

    def test_walk_covers_subexpressions(self):
        p = Program()
        expr = p.source(graph_ds()).map(lambda r: r).filter(lambda r: True)
        assert len(expr.walk()) == 3

    def test_persist_marks_expression(self):
        expr = Program().source(graph_ds()).map(lambda r: r)
        expr.persist(StorageLevel.MEMORY_ONLY)
        assert expr.persist_level is StorageLevel.MEMORY_ONLY


class TestExecution:
    def test_count_action(self):
        ds = graph_ds()
        p = Program()
        edges = p.let("edges", p.source(ds))
        p.action(edges, "count", result_key="n")
        ctx = small_context()
        results = execute_program(p, ctx, {})
        assert results["n"] == len(ds.records)

    def test_collect_action(self):
        ds = graph_ds()
        p = Program()
        edges = p.let("edges", p.source(ds))
        p.action(edges, "collect", result_key="all")
        results = execute_program(p, small_context(), {})
        assert sorted(results["all"]) == sorted(ds.records)

    def test_loop_executes_n_times(self):
        ds = graph_ds()
        p = Program()
        edges = p.let("edges", p.source(ds))
        grown = p.let("grown", edges.map(lambda r: r))
        with p.loop(3):
            grown = p.let("grown", grown.union(edges))
        p.action(grown, "count", result_key="n")
        results = execute_program(p, small_context(), {})
        assert results["n"] == len(ds.records) * 4

    def test_driver_stmt_sees_results(self):
        ds = graph_ds()
        p = Program()
        edges = p.let("edges", p.source(ds))
        p.action(edges, "count", result_key="n")
        seen = {}
        p.driver(lambda results: seen.update(results))
        execute_program(p, small_context(), {})
        assert seen["n"] == len(ds.records)

    def test_tags_attached_to_persisted_rdds(self):
        ds = graph_ds()
        p = Program()
        edges = p.let(
            "edges", p.source(ds).map(lambda r: r).persist(StorageLevel.MEMORY_ONLY)
        )
        p.action(edges, "count", result_key="n")
        ctx = small_context()
        execute_program(p, ctx, {"edges": MemoryTag.DRAM})
        tagged = [
            rdd for rdd in ctx._rdds.values() if rdd.memory_tag is MemoryTag.DRAM
        ]
        assert tagged, "the persisted edges RDD should carry the DRAM tag"

    def test_undefined_variable_rejected(self):
        p = Program()
        p.action(VarRef("ghost"), "count")
        with pytest.raises(AnalysisError):
            execute_program(p, small_context(), {})

    def test_unpersist_prior_releases_old_generation(self):
        ds = graph_ds()
        p = Program()
        v = p.let(
            "v", p.source(ds).map(lambda r: r).persist(StorageLevel.MEMORY_ONLY)
        )
        with p.loop(3):
            v = p.let("v", v.map(lambda r: r).persist(StorageLevel.MEMORY_ONLY))
            p.unpersist_prior(v, lag=1)
        p.action(v, "count", result_key="n")
        ctx = small_context()
        execute_program(p, ctx, {})
        # Only the last generation (plus at most the in-flight one) should
        # remain registered.
        assert len(ctx.block_manager.blocks()) <= 2

    def test_unknown_action_rejected(self):
        ds = graph_ds()
        p = Program()
        edges = p.let("edges", p.source(ds))
        p.action(edges, "frobnicate")
        with pytest.raises(SparkError):
            execute_program(p, small_context(), {})


def _swap(record):
    return (record[1], record[0])


#: One call per IR transformation, written once and applied both to an
#: Expr (recorded) and to an RDD (run): the two share one signature.
CALLS = {
    "map": lambda x, y: x.map(_swap, size_factor=2.0, name="swapped"),
    "flat_map": lambda x, y: x.flat_map(lambda r: [r, _swap(r)]),
    "filter": lambda x, y: x.filter(lambda r: r[0] % 2 == 0),
    "map_values": lambda x, y: x.map_values(lambda v: v * 3, 0.5),
    "values": lambda x, y: x.values(),
    "distinct": lambda x, y: x.distinct(2),
    "group_by_key": lambda x, y: x.group_by_key(3, size_factor=4.0),
    "reduce_by_key": lambda x, y: x.reduce_by_key(operator.add, 3),
    "join": lambda x, y: x.join(y),
    "union": lambda x, y: x.union(y),
    "keys": lambda x, y: x.keys(),
    "sample": lambda x, y: x.sample(0.5, seed=3),
    "sort_by_key": lambda x, y: x.sort_by_key(False, num_partitions=1),
    "aggregate_by_key": lambda x, y: x.aggregate_by_key(
        0, lambda acc, v: acc + v, operator.add
    ),
    "cogroup": lambda x, y: x.cogroup(y),
    "subtract_by_key": lambda x, y: x.subtract_by_key(y),
}


def _rdd_transformations():
    """Public RDD methods that return a new RDD, bar the persistence
    controls (which the IR models as statements and Expr.persist)."""
    return {
        name
        for name, fn in vars(RDD).items()
        if not name.startswith("_")
        and inspect.isfunction(fn)
        and typing.get_type_hints(fn).get("return") is RDD
    } - {"persist", "checkpoint", "unpersist"}


def _mirrors():
    """Expr attributes that mirror an RDD method."""
    return {
        name: fn
        for name, fn in vars(Expr).items()
        if hasattr(fn, "__wrapped__")
    }


def _lineage(ctx):
    return [
        (rdd.name, rdd.num_partitions, rdd.bytes_per_record)
        for rdd in ctx._rdds.values()
    ]


class TestRddParity:
    def test_every_transformation_has_a_mirror(self):
        assert set(_mirrors()) == _rdd_transformations()

    def test_each_mirror_names_its_rdd_method(self):
        for name, fn in _mirrors().items():
            assert fn.__wrapped__ is getattr(RDD, name)

    def test_calls_cover_every_mirror(self):
        assert set(CALLS) == set(_mirrors())

    @pytest.mark.parametrize("op", sorted(CALLS))
    def test_program_collects_what_the_rdd_call_collects(self, op):
        left = graph_ds()
        right = powerlaw_graph("ir-right", 20, 50, total_bytes=2**20, seed=9)
        p = Program()
        x = p.let("x", p.source(left))
        y = p.let("y", p.source(right))
        expr = CALLS[op](x, y)
        assert isinstance(expr, TransformExpr) and expr.op == op
        p.action(p.let("out", expr), "collect", result_key="rows")
        program_ctx = small_context()
        via_program = execute_program(p, program_ctx, {})["rows"]

        ctx = small_context()
        direct = CALLS[op](ctx.source_rdd(left), ctx.source_rdd(right))
        assert via_program == direct.collect()
        # The same lineage: names, partitions and byte weights (which
        # carry size_factor) of every RDD either context built.
        assert _lineage(program_ctx) == _lineage(ctx)

    def test_unknown_keyword_raises_at_build_time(self):
        source = Program().source(graph_ds())
        with pytest.raises(TypeError):
            source.map(_swap, sizefactor=2.0)

    def test_missing_argument_raises_at_build_time(self):
        source = Program().source(graph_ds())
        with pytest.raises(TypeError):
            source.map()
