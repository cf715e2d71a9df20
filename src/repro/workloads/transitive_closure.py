"""Spark Transitive Closure (the classic Spark example).

``edges`` is persisted once and only used inside the loop (DRAM tag);
the growing ``paths`` closure is redefined every iteration
(NVM tag) — the mixed-tag workload of the evaluation.
"""

from __future__ import annotations

from typing import Optional

from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, notre_dame_graph
from repro.workloads.pagerank import WorkloadSpec


def _same_pair(record):
    return record


def _swap(record):
    a, b = record
    return (b, a)


def _swap_kernel(batch):
    """``_swap`` over an int-key / int-value batch: the key and value
    columns trade places."""
    if (
        _columnar.int_array(batch.keys) is None
        or _columnar.int_array(batch.values) is None
    ):
        return None
    return _columnar.ColumnBatch(batch.values, batch.keys)


def _compose(record):
    """joined (mid, (src, dst)) -> new path (src, dst)."""
    _, (src, dst) = record
    return (src, dst)


def _compose_kernel(batch):
    """``_compose`` over a batch of ``(mid, (src, dst))`` join rows: the
    pair value's two columns become the key and value columns."""
    values = batch.values
    if type(values) is not _columnar.PairColumn:
        return None
    return _columnar.ColumnBatch(values.first, values.second)


_columnar.register_map_kernel(_same_pair, _columnar.identity_kernel)
_columnar.register_map_kernel(_swap, _swap_kernel)
_columnar.register_map_kernel(_compose, _compose_kernel)


def build_transitive_closure(
    scale: float = 1.0,
    iterations: int = 6,
    seed: int = 13,
    dataset: Optional[DatasetSpec] = None,
) -> WorkloadSpec:
    """Build the TC program: repeated self-join until (bounded) closure."""
    ds = dataset or notre_dame_graph(scale=scale, seed=seed)

    p = Program()
    lines = p.let("lines", p.source(ds))
    edges = p.let(
        "edges",
        lines.map(_same_pair).distinct().persist(StorageLevel.MEMORY_ONLY),
    )
    paths = p.let("paths", edges.map(_same_pair).persist(StorageLevel.MEMORY_ONLY))
    with p.loop(iterations):
        # paths.map(swap).join(edges): (mid, src) x (mid, dst) -> (src, dst)
        paths = p.let(
            "paths",
            paths.map(_swap)
            .join(edges)
            .map(_compose)
            .union(paths)
            .distinct()
            .persist(StorageLevel.MEMORY_ONLY),
        )
        p.unpersist_prior(paths)
    p.action(paths, "count", result_key="closure_size")
    return WorkloadSpec(
        name="TC",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="Transitive closure by iterated self-join",
    )
