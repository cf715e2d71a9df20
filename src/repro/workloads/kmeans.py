"""Spark K-Means: cached points, per-iteration assign + aggregate.

The ``points`` RDD is persisted before the loop and only *used* inside
it, so the static analysis tags it DRAM — the canonical
frequently-accessed long-lived RDD of the paper's first category (§1.2).
Per-iteration assignments are streaming intermediates that die young.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.floats import left_sum
from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, ml_points
from repro.workloads.pagerank import WorkloadSpec

Vector = Tuple[float, ...]


def _sq_dist(a: Vector, b: Vector) -> float:
    # Squares via multiplication, not ``** 2``: the columnar assign
    # kernel computes ``d * d`` with numpy, and plain multiplication is
    # the one spelling both planes are guaranteed to round identically.
    return left_sum((x - y) * (x - y) for x, y in zip(a, b))


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def _vec_scale(a: Vector, s: float) -> Vector:
    return tuple(x * s for x in a)


def closest_center(vec: Vector, centers: List[Vector]) -> int:
    """Index of the nearest centre."""
    best, best_d = 0, float("inf")
    for idx, center in enumerate(centers):
        d = _sq_dist(vec, center)
        if d < best_d:
            best, best_d = idx, d
    return best


def build_kmeans(
    scale: float = 1.0,
    iterations: int = 10,
    k: int = 4,
    seed: int = 11,
    dataset: Optional[DatasetSpec] = None,
    persist_level: StorageLevel = StorageLevel.MEMORY_ONLY,
) -> WorkloadSpec:
    """Build the K-Means program (Lloyd's algorithm).

    ``persist_level`` selects how the cached ``points`` RDD is stored —
    the GC-vs-serialization experiment flips it between ``MEMORY_ONLY``
    (object heap) and ``MEMORY_ONLY_SER`` (serialized off-heap tier).
    """
    ds = dataset or ml_points(scale=scale, seed=seed)
    dim = len(ds.records[0][1])
    rng = random.Random(seed)
    state = {
        "centers": [
            tuple(rng.uniform(-10.0, 10.0) for _ in range(dim)) for _ in range(k)
        ]
    }

    def identity(record):
        return record

    def assign(record):
        _, vec = record
        return (closest_center(vec, state["centers"]), (vec, 1))

    def merge(a, b):
        return (_vec_add(a[0], b[0]), a[1] + b[1])

    if _columnar.columnar_active():
        import numpy as np

        def assign_kernel(batch):
            # inf/NaN coordinates compute silently, as the UDF does.
            with np.errstate(all="ignore"):
                mat = _columnar.vec_matrix(batch.values)
                if mat is None:
                    return None
                centers = np.asarray(state["centers"])
                n, dim = mat.shape
                # All (k, n) distances at once, as a left fold from 0.0 one
                # dimension at a time — _sq_dist's left_sum replayed exactly
                # (never np.sum: pairwise summation reorders the float
                # additions).
                dists = np.zeros((len(centers), n))
                cols = mat.T
                for j in range(dim):
                    diff = cols[j] - centers[:, j, None]
                    dists += diff * diff
                # closest_center's strict `<` scan keeps the first minimum
                # and never picks a NaN distance; argmin keeps the first
                # minimum but returns the first NaN, so NaN reads as +inf
                # (an all-NaN or all-inf column then picks centre 0 on both).
                nan = np.isnan(dists)
                if nan.any():
                    dists[nan] = np.inf
                clusters = np.argmin(dists, axis=0).astype(np.int64)
                return _columnar.ColumnBatch(
                    _columnar.int_column(clusters),
                    _columnar.PairColumn(
                        _columnar.VecColumn(mat), _columnar.ones_int(n)
                    ),
                )

        _columnar.register_map_kernel(identity, _columnar.identity_kernel)
        _columnar.register_map_kernel(assign, assign_kernel)
        _columnar.register_reduce_kernel(
            merge, _columnar.make_vec_count_merge_kernel()
        )

    def update_centers(results) -> None:
        stats = results.get("stats")
        if not stats:
            return
        centers = list(state["centers"])
        for cluster, (vec_sum, count) in stats:
            if count > 0:
                centers[cluster] = _vec_scale(vec_sum, 1.0 / count)
        state["centers"] = centers

    p = Program()
    lines = p.let("lines", p.source(ds))
    points = p.let(
        "points",
        lines.map(identity).persist(persist_level),
    )
    with p.loop(iterations):
        closest = p.let("closest", points.map(assign, size_factor=1.0))
        stats = p.let(
            "stats", closest.reduce_by_key(merge, size_factor=0.05)
        )
        p.action(stats, "collect", result_key="stats")
        p.driver(update_centers)
    p.action(points, "count", result_key="n_points")
    return WorkloadSpec(
        name="KM",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="K-Means clustering over cached feature vectors",
    )
