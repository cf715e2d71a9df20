"""Spark Logistic Regression: cached points, per-iteration gradient.

Identical memory shape to K-Means: the training set is persisted before
the loop and used-only inside it (DRAM tag); gradients are tiny driver-
side aggregates.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Tuple

from repro.floats import left_sum
from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, ml_points
from repro.workloads.pagerank import WorkloadSpec

Vector = Tuple[float, ...]


def _dot(a: Vector, b: Vector) -> float:
    return left_sum(x * y for x, y in zip(a, b))


def build_logistic_regression(
    scale: float = 1.0,
    iterations: int = 10,
    learning_rate: float = 0.1,
    seed: int = 11,
    dataset: Optional[DatasetSpec] = None,
    persist_level: StorageLevel = StorageLevel.MEMORY_ONLY,
) -> WorkloadSpec:
    """Build the LR program (batch gradient descent, binary labels).

    ``persist_level`` selects how the cached ``points`` RDD is stored —
    the GC-vs-serialization experiment flips it between ``MEMORY_ONLY``
    (object heap) and ``MEMORY_ONLY_SER`` (serialized off-heap tier).
    """
    ds = dataset or ml_points(scale=scale, seed=seed)
    dim = len(ds.records[0][1])
    rng = random.Random(seed + 1)
    state = {"weights": tuple(rng.uniform(-0.1, 0.1) for _ in range(dim))}

    def identity(record):
        return record

    def gradient(record):
        label, vec = record
        y = 1.0 if (label % 2 == 1) else -1.0
        margin = y * _dot(state["weights"], vec)
        # Clamp to keep exp() finite on far-out points.
        margin = max(-30.0, min(30.0, margin))
        coeff = (1.0 / (1.0 + math.exp(-margin)) - 1.0) * y
        return ("grad", (tuple(coeff * x for x in vec), 1))

    def merge(a, b):
        return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1])

    if _columnar.columnar_active():
        import numpy as np

        def gradient_kernel(batch):
            # inf/NaN coordinates compute silently, as the UDF does.
            with np.errstate(all="ignore"):
                mat = _columnar.vec_matrix(batch.values)
                labels = _columnar.int_array(batch.keys)
                if mat is None or labels is None:
                    return None
                w = state["weights"]
                n, dim = mat.shape
                ys = np.where(labels % 2 == 1, 1.0, -1.0)
                # _dot's left_sum replayed: left fold from 0.0, one dimension
                # at a time (never np.dot/np.sum — pairwise summation).
                dots = np.zeros(n)
                for j in range(dim):
                    dots += w[j] * mat[:, j]
                # fmin/fmax drop a NaN margin to the bound, as Python's
                # min(30.0, nan) returns 30.0 (np.minimum would keep NaN).
                margins = np.fmax(-30.0, np.fmin(30.0, ys * dots))
                # numpy's exp is not bit-identical to math.exp, so exp runs
                # per element; negation and the elementwise float64
                # + - * / round exactly as the Python floats do.
                e = np.fromiter(map(math.exp, (-margins).tolist()), float, n)
                coeffs = (1.0 / (1.0 + e) - 1.0) * ys
                grads = coeffs[:, None] * mat
                return _columnar.ColumnBatch(
                    _columnar.ConstColumn("grad", n),
                    _columnar.PairColumn(
                        _columnar.VecColumn(grads), _columnar.ones_int(n)
                    ),
                )

        _columnar.register_map_kernel(identity, _columnar.identity_kernel)
        _columnar.register_map_kernel(gradient, gradient_kernel)
        _columnar.register_reduce_kernel(
            merge, _columnar.make_vec_count_merge_kernel()
        )

    def update_weights(results) -> None:
        grads = results.get("gradient")
        if not grads:
            return
        (_, (grad_sum, count)), = grads
        step = learning_rate / max(1, count)
        state["weights"] = tuple(
            w - step * g for w, g in zip(state["weights"], grad_sum)
        )

    p = Program()
    lines = p.let("lines", p.source(ds))
    points = p.let(
        "points", lines.map(identity).persist(persist_level)
    )
    with p.loop(iterations):
        grads = p.let("grads", points.map(gradient, size_factor=1.0))
        total = p.let("total", grads.reduce_by_key(merge, size_factor=0.02))
        p.action(total, "collect", result_key="gradient")
        p.driver(update_weights)
    p.action(points, "count", result_key="n_points")
    return WorkloadSpec(
        name="LR",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="Logistic regression via batch gradient descent",
    )
