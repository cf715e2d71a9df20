"""The Spark program IR: what the static analysis of §3 analyses.

The paper's analysis reads Scala source; ours reads this small IR, which
plays exactly the same role — it records which RDD *variables* are
defined and used where, relative to loops and materialisation points
(persist calls and actions).  The same IR is then *executed* by
:func:`execute_program`, which instruments every materialisation point
with the inferred tag (the Python analogue of the injected ``rdd_alloc``
calls).

Workloads build programs with the fluent API::

    p = Program()
    lines = p.let("lines", p.source(dataset))
    links = p.let("links", lines.map(parse).distinct().group_by_key()
                  .persist(StorageLevel.MEMORY_ONLY))
    ranks = p.let("ranks", links.map_values(lambda v: 1.0))
    with p.loop(iters):
        contribs = p.let("contribs", links.join(ranks).values()
                         .flat_map(spread)
                         .persist(StorageLevel.MEMORY_AND_DISK_SER))
        ranks = p.let("ranks", contribs.reduce_by_key(add)
                      .map_values(damp))
    p.action(ranks, "count")
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import AnalysisError, SparkError
from repro.spark.storage import StorageLevel


class Expr:
    """Base expression; carries the fluent transformation builders."""

    persist_level: Optional[StorageLevel] = None

    # -- fluent builders (mirror of the RDD API) -----------------------------

    def _t(self, op: str, inputs: List["Expr"], **kwargs) -> "TransformExpr":
        return TransformExpr(op, [self] + inputs, kwargs)

    def map(
        self,
        fn: Callable,
        size_factor: float = 1.0,
        preserves_partitioning: bool = False,
    ) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.map`."""
        return self._t(
            "map",
            [],
            fn=fn,
            size_factor=size_factor,
            preserves_partitioning=preserves_partitioning,
        )

    def flat_map(self, fn: Callable, size_factor: float = 1.0) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.flat_map`."""
        return self._t("flat_map", [], fn=fn, size_factor=size_factor)

    def filter(self, predicate: Callable) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.filter`."""
        return self._t("filter", [], predicate=predicate)

    def map_values(self, fn: Callable, size_factor: float = 1.0) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.map_values`."""
        return self._t("map_values", [], fn=fn, size_factor=size_factor)

    def values(self) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.values`."""
        return self._t("values", [])

    def distinct(self, num_partitions: Optional[int] = None) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.distinct`."""
        return self._t("distinct", [], num_partitions=num_partitions)

    def group_by_key(
        self, num_partitions: Optional[int] = None, size_factor: float = 1.0
    ) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.group_by_key`."""
        return self._t(
            "group_by_key", [], num_partitions=num_partitions, size_factor=size_factor
        )

    def reduce_by_key(
        self,
        fn: Callable,
        num_partitions: Optional[int] = None,
        size_factor: float = 1.0,
    ) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.reduce_by_key`."""
        return self._t(
            "reduce_by_key",
            [],
            fn=fn,
            num_partitions=num_partitions,
            size_factor=size_factor,
        )

    def join(self, other: "Expr") -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.join`."""
        return self._t("join", [other])

    def union(self, other: "Expr") -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.union`."""
        return self._t("union", [other])

    def keys(self) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.keys`."""
        return self._t("keys", [])

    def sample(self, fraction: float, seed: int = 17) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.sample`."""
        return self._t("sample", [], fraction=fraction, seed=seed)

    def sort_by_key(
        self, ascending: bool = True, num_partitions: Optional[int] = None
    ) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.sort_by_key`."""
        return self._t(
            "sort_by_key", [], ascending=ascending, num_partitions=num_partitions
        )

    def aggregate_by_key(
        self,
        zero: Any,
        seq_fn: Callable,
        comb_fn: Callable,
        num_partitions: Optional[int] = None,
        size_factor: float = 1.0,
    ) -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.aggregate_by_key`."""
        return self._t(
            "aggregate_by_key",
            [],
            zero=zero,
            seq_fn=seq_fn,
            comb_fn=comb_fn,
            num_partitions=num_partitions,
            size_factor=size_factor,
        )

    def cogroup(self, other: "Expr") -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.cogroup`."""
        return self._t("cogroup", [other])

    def subtract_by_key(self, other: "Expr") -> "TransformExpr":
        """IR mirror of :meth:`repro.spark.rdd.RDD.subtract_by_key`."""
        return self._t("subtract_by_key", [other])

    def persist(self, level: StorageLevel = StorageLevel.MEMORY_ONLY) -> "Expr":
        """Mark this expression's RDD for persistence (a materialisation
        point for the analysis)."""
        self.persist_level = level
        return self

    # -- traversal helpers -----------------------------------------------------

    def children(self) -> List["Expr"]:
        """Immediate sub-expressions."""
        return []

    def walk(self) -> List["Expr"]:
        """This expression and all sub-expressions, pre-order."""
        out: List[Expr] = [self]
        for child in self.children():
            out.extend(child.walk())
        return out


@dataclass
class VarRef(Expr):
    """A use of a program variable."""

    name: str

    def children(self) -> List[Expr]:
        return []


class SourceExpr(Expr):
    """An input dataset (textFile / parallelize)."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset

    def children(self) -> List[Expr]:
        return []


class TransformExpr(Expr):
    """A transformation applied to input expressions."""

    def __init__(self, op: str, inputs: List[Expr], kwargs: Dict[str, Any]) -> None:
        self.op = op
        self.inputs = inputs
        self.kwargs = kwargs

    def children(self) -> List[Expr]:
        return list(self.inputs)


class Stmt:
    """Base statement."""


@dataclass
class AssignStmt(Stmt):
    """``var = expr``."""

    var: str
    expr: Expr


@dataclass
class LoopStmt(Stmt):
    """``for i in 1..iterations { body }``."""

    iterations: int
    body: List[Stmt] = field(default_factory=list)


@dataclass
class ActionStmt(Stmt):
    """An action (count/collect/reduce) on an expression."""

    expr: Expr
    action: str = "count"
    result_key: Optional[str] = None


@dataclass
class UnpersistStmt(Stmt):
    """``var.unpersist()`` — honoured at runtime, *ignored* by the static
    analysis (the paper's analysis lacks unpersist support; §5.5).

    With ``prior=True`` the statement unpersists the RDD the variable
    held *before* its most recent reassignment (the GraphX pattern:
    release the previous graph version after building the new one).
    ``lag`` unpersists an even older generation.
    """

    var: str
    prior: bool = False
    lag: int = 1


@dataclass
class DriverStmt(Stmt):
    """Driver-side Python code between jobs (e.g. updating K-Means
    centres from a collect result).  Invisible to the static analysis —
    it involves no RDD operations."""

    fn: Callable[[Dict[str, Any]], None]


class Program:
    """A Spark driver program as an analysable statement list."""

    def __init__(self) -> None:
        self.body: List[Stmt] = []
        self._blocks: List[List[Stmt]] = [self.body]

    # -- builders ---------------------------------------------------------------

    def _append(self, stmt: Stmt) -> None:
        self._blocks[-1].append(stmt)

    def source(self, dataset) -> SourceExpr:
        """Reference an input dataset."""
        return SourceExpr(dataset)

    def let(self, name: str, expr: Expr) -> VarRef:
        """Assign ``expr`` to variable ``name`` and return a reference."""
        if not isinstance(expr, Expr):
            raise SparkError(f"let({name!r}) expects an expression")
        self._append(AssignStmt(name, expr))
        return VarRef(name)

    @contextlib.contextmanager
    def loop(self, iterations: int):
        """A computational loop; statements built inside nest in its body."""
        if iterations <= 0:
            raise SparkError("loop iterations must be positive")
        stmt = LoopStmt(iterations)
        self._append(stmt)
        self._blocks.append(stmt.body)
        try:
            yield stmt
        finally:
            self._blocks.pop()

    def action(
        self, expr: Expr, action: str = "count", result_key: Optional[str] = None
    ) -> None:
        """Invoke an action (a materialisation point for the analysis)."""
        self._append(ActionStmt(expr, action, result_key))

    def unpersist(self, var: VarRef) -> None:
        """Unpersist a variable's current RDD at runtime."""
        self._append(UnpersistStmt(var.name))

    def unpersist_prior(self, var: VarRef, lag: int = 1) -> None:
        """Unpersist the RDD ``var`` held ``lag`` reassignments ago (the
        GraphX release-the-old-graph pattern)."""
        self._append(UnpersistStmt(var.name, prior=True, lag=lag))

    def driver(self, fn: Callable[[Dict[str, Any]], None]) -> None:
        """Run driver-side Python between jobs (ignored by the analysis)."""
        self._append(DriverStmt(fn))

    # -- introspection --------------------------------------------------------------

    def statements(self) -> List[Stmt]:
        """Top-level statements."""
        return list(self.body)


def execute_program(
    program: Program,
    ctx,
    tags: Dict[str, Any],
    lifetimes: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Run a program against a SparkContext.

    Args:
        program: the IR to execute.
        tags: variable -> :class:`~repro.core.tags.MemoryTag` map from the
            static analysis (empty for non-Panthera runs).
        lifetimes: variable -> lifetime class map from the Deca
            lifetime analysis (None for tracing policies); annotated
            onto each materialised RDD the same way tags are.

    Returns:
        Action results keyed by ``result_key`` (or ``action<N>``).
    """
    env: Dict[str, Any] = {}
    history: Dict[str, List[Any]] = {}
    results: Dict[str, Any] = {}
    counter = {"n": 0}

    def eval_expr(expr: Expr, var: Optional[str]):
        if isinstance(expr, VarRef):
            if expr.name not in env:
                raise AnalysisError(f"use of undefined variable {expr.name!r}")
            return env[expr.name]
        if isinstance(expr, SourceExpr):
            return ctx.source_rdd(expr.dataset)
        if isinstance(expr, TransformExpr):
            inputs = [eval_expr(child, var) for child in expr.inputs]
            rdd = _apply_op(expr.op, inputs, expr.kwargs)
            if expr.persist_level is not None:
                rdd.persist(expr.persist_level)
                rdd.memory_tag = tags.get(var) if var is not None else None
                if lifetimes is not None and var is not None:
                    rdd.lifetime = lifetimes.get(var)
            return rdd
        raise AnalysisError(f"unknown expression type {type(expr).__name__}")

    def run_block(stmts: List[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, AssignStmt):
                if stmt.var in env:
                    history.setdefault(stmt.var, []).append(env[stmt.var])
                env[stmt.var] = eval_expr(stmt.expr, stmt.var)
            elif isinstance(stmt, LoopStmt):
                for _ in range(stmt.iterations):
                    run_block(stmt.body)
            elif isinstance(stmt, ActionStmt):
                var = stmt.expr.name if isinstance(stmt.expr, VarRef) else None
                rdd = eval_expr(stmt.expr, var)
                if var is not None and rdd.memory_tag is None:
                    rdd.memory_tag = tags.get(var)
                if (
                    lifetimes is not None
                    and var is not None
                    and rdd.lifetime is None
                ):
                    rdd.lifetime = lifetimes.get(var)
                key = stmt.result_key or f"action{counter['n']}"
                counter["n"] += 1
                results[key] = ctx.scheduler.run_action(rdd, stmt.action)
            elif isinstance(stmt, UnpersistStmt):
                if stmt.prior:
                    prior_versions = history.get(stmt.var, [])
                    if len(prior_versions) >= stmt.lag:
                        prior_versions[-stmt.lag].unpersist()
                else:
                    rdd = env.get(stmt.var)
                    if rdd is not None:
                        rdd.unpersist()
            elif isinstance(stmt, DriverStmt):
                stmt.fn(results)
            else:
                raise AnalysisError(f"unknown statement {type(stmt).__name__}")

    run_block(program.body)
    return results


def _apply_op(op: str, inputs, kwargs):
    """Dispatch an IR op to the RDD API."""
    first = inputs[0]
    if op == "map":
        return first.map(
            kwargs["fn"],
            kwargs.get("size_factor", 1.0),
            preserves_partitioning=kwargs.get("preserves_partitioning", False),
        )
    if op == "flat_map":
        return first.flat_map(kwargs["fn"], kwargs.get("size_factor", 1.0))
    if op == "filter":
        return first.filter(kwargs["predicate"])
    if op == "map_values":
        return first.map_values(kwargs["fn"], kwargs.get("size_factor", 1.0))
    if op == "values":
        return first.values()
    if op == "distinct":
        return first.distinct(kwargs.get("num_partitions"))
    if op == "group_by_key":
        return first.group_by_key(
            kwargs.get("num_partitions"),
            size_factor=kwargs.get("size_factor", 1.0),
        )
    if op == "reduce_by_key":
        return first.reduce_by_key(
            kwargs["fn"],
            kwargs.get("num_partitions"),
            size_factor=kwargs.get("size_factor", 1.0),
        )
    if op == "join":
        return first.join(inputs[1])
    if op == "union":
        return first.union(inputs[1])
    if op == "keys":
        return first.keys()
    if op == "sample":
        return first.sample(kwargs["fraction"], kwargs.get("seed", 17))
    if op == "sort_by_key":
        return first.sort_by_key(
            kwargs.get("ascending", True), kwargs.get("num_partitions")
        )
    if op == "aggregate_by_key":
        return first.aggregate_by_key(
            kwargs["zero"],
            kwargs["seq_fn"],
            kwargs["comb_fn"],
            kwargs.get("num_partitions"),
            size_factor=kwargs.get("size_factor", 1.0),
        )
    if op == "cogroup":
        return first.cogroup(inputs[1])
    if op == "subtract_by_key":
        return first.subtract_by_key(inputs[1])
    raise AnalysisError(f"unknown IR op {op!r}")
