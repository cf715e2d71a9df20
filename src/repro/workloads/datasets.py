"""Synthetic dataset generators standing in for the paper's inputs.

The paper's datasets (Wikipedia link dumps, the Notre Dame web graph,
KDD 2012; Table 4) are not available offline, so we generate synthetic
equivalents with matching *shape*: power-law-ish degree graphs for the
graph workloads and labelled dense feature vectors for the ML workloads.

Byte weights are the paper's on-disk sizes multiplied by a Java
memory-bloat factor — a 1.2 GB text dump becomes roughly 10 GB of Java
objects once parsed into boxed tuples and strings, which is exactly why
the paper observes "a regular RDD consumes 10-30 GB" (§5.2).  The
simulated record count stays in the thousands; each record's byte weight
is ``total_bytes / n_records``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Tuple

from repro.config import GiB, MiB
from repro.spark.partition import Record


@dataclass(frozen=True)
class DatasetSpec:
    """One input dataset.

    Attributes:
        name: the source RDD's name.
        records: the data plane.
        num_partitions: input split count.
        total_bytes: in-memory byte weight of the whole dataset.
    """

    name: str
    records: Tuple[Record, ...]
    num_partitions: int
    total_bytes: float

    @property
    def bytes_per_record(self) -> float:
        """Average byte weight of one record."""
        return self.total_bytes / max(1, len(self.records))

    # Edge datasets only.  Memoised on the instance: the dataset
    # factories are memoised, so every program built over one dataset
    # shares a single count.

    @cached_property
    def n_sources(self) -> int:
        """Distinct source vertices of an edge dataset."""
        return len({src for src, _ in self.records})

    @cached_property
    def n_vertices(self) -> int:
        """Distinct vertices (sources or destinations) of an edge
        dataset."""
        return len({v for edge in self.records for v in edge})


def powerlaw_graph(
    name: str,
    n_vertices: int,
    n_edges: int,
    total_bytes: float,
    num_partitions: int = 4,
    seed: int = 7,
) -> DatasetSpec:
    """A directed graph with skewed (preferential-attachment-ish) in-degrees.

    Every vertex gets at least one outgoing edge so iterative graph
    algorithms reach the whole graph; remaining edges prefer low vertex
    ids, giving the heavy-hitter keys real web graphs have.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    rng = random.Random(seed)
    edges: List[Record] = []
    for src in range(n_vertices):
        dst = rng.randrange(n_vertices - 1)
        if dst >= src:
            dst += 1
        edges.append((src, dst))
    while len(edges) < n_edges:
        src = rng.randrange(n_vertices)
        # Preferential-ish target: squaring biases towards low ids.
        dst = int(rng.random() ** 2 * n_vertices)
        if dst != src:
            edges.append((src, dst))
    return DatasetSpec(
        name=name,
        records=tuple(edges),
        num_partitions=num_partitions,
        total_bytes=total_bytes,
    )


def labeled_points(
    name: str,
    n_points: int,
    dim: int,
    n_classes: int,
    total_bytes: float,
    num_partitions: int = 4,
    seed: int = 11,
) -> DatasetSpec:
    """Labelled dense feature vectors (K-Means / LR / Naive Bayes input).

    Points cluster around ``n_classes`` separated centres so clustering
    and classification actually have structure to find.
    """
    rng = random.Random(seed)
    centers = [
        tuple(rng.uniform(-10.0, 10.0) for _ in range(dim))
        for _ in range(n_classes)
    ]
    records: List[Record] = []
    for i in range(n_points):
        label = i % n_classes
        center = centers[label]
        vec = tuple(c + rng.gauss(0.0, 1.0) for c in center)
        records.append((label, vec))
    return DatasetSpec(
        name=name,
        records=tuple(records),
        num_partitions=num_partitions,
        total_bytes=total_bytes,
    )


def from_edge_list(
    path,
    total_bytes: float,
    name: Optional[str] = None,
    num_partitions: int = 4,
    comment_prefix: str = "#",
) -> DatasetSpec:
    """Load a whitespace-separated edge-list file as a graph dataset.

    This is how real inputs (SNAP/KONECT dumps like the paper's
    Notre Dame webgraph) plug into the workloads: parse the edges, assign
    the in-memory byte weight, and hand the spec to any graph workload's
    ``dataset=`` parameter.  A small example graph ships in
    ``data/karate.edges``.

    Args:
        path: file with one ``src dst`` pair per line.
        total_bytes: the in-memory byte weight to assign the dataset.
        name: dataset name (defaults to the file name).
        num_partitions: input split count.
        comment_prefix: lines starting with this are skipped.
    """
    import os

    records: List[Record] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(comment_prefix):
                continue
            src_text, dst_text, *_ = line.split()
            records.append((int(src_text), int(dst_text)))
    if not records:
        raise ValueError(f"no edges found in {path}")
    return DatasetSpec(
        name=name or os.path.basename(str(path)),
        records=tuple(records),
        num_partitions=num_partitions,
        total_bytes=total_bytes,
    )


# -- paper-shaped dataset factories (Table 4 x Java bloat) -----------------
#
# Each factory is memoised per process on its exact (scale, seed)
# arguments — the same key the dataset *name* embeds — so a matrix of N
# policy cells generates each input once instead of N times.  This is
# safe to share because DatasetSpec is frozen and its records tuple is
# immutable, and it cannot go stale because generation is a pure
# function of (scale, seed).  ``typed=True`` keeps ``scale=1`` and
# ``scale=1.0`` distinct: the name embeds ``repr(scale)``, and the
# name-keyed source-RDD cache in SparkContext must see the same name the
# uncached factory would have produced.  The memo key never needs to
# reach the experiment-engine fingerprint separately: ExperimentPoint
# already fingerprints (workload, scale, workload_kwargs), which
# determines it.

_FACTORY_CACHES: Dict[str, "lru_cache"] = {}


def _memoised(factory):
    cached = lru_cache(maxsize=None, typed=True)(factory)
    _FACTORY_CACHES[factory.__name__] = cached
    return cached


def dataset_cache_info() -> Dict[str, Tuple[int, int]]:
    """Per-factory ``(hits, misses)`` of the dataset memo caches."""
    return {
        name: (cached.cache_info().hits, cached.cache_info().misses)
        for name, cached in _FACTORY_CACHES.items()
    }


def clear_dataset_caches() -> None:
    """Drop every memoised dataset (tests and memory-pressure escape)."""
    for cached in _FACTORY_CACHES.values():
        cached.cache_clear()


@_memoised
def pagerank_graph(scale: float = 1.0, seed: int = 7) -> DatasetSpec:
    """Wikipedia-German-shaped graph: 1.2 GB on disk, ~10 GB in memory."""
    return powerlaw_graph(
        name=f"wiki-de-{scale}-{seed}",
        n_vertices=max(40, int(1_200 * scale)),
        n_edges=max(120, int(4_800 * scale)),
        total_bytes=1.2 * GiB * 8 * scale,
        seed=seed,
    )


@_memoised
def wiki_en_graph(scale: float = 1.0, seed: int = 9) -> DatasetSpec:
    """Wikipedia-English-shaped graph for the GraphX programs: 5.7 GB on
    disk, ~14 GB in memory (GraphX's columnar vertex/edge storage bloats
    less than boxed tuples)."""
    return powerlaw_graph(
        name=f"wiki-en-{scale}-{seed}",
        n_vertices=max(40, int(1_500 * scale)),
        n_edges=max(150, int(6_000 * scale)),
        total_bytes=5.7 * GiB * 2.5 * scale,
        seed=seed,
    )


@_memoised
def notre_dame_graph(scale: float = 1.0, seed: int = 13) -> DatasetSpec:
    """Notre-Dame-webgraph-shaped input for Transitive Closure: 21 MB on
    disk.  TC's memory pressure comes from the closure itself.

    Unlike the other datasets, the *vertex count stays fixed* under
    scaling and only byte weights shrink: the closure's record count is
    quadratic in vertices, so scaling vertices down would deflate the
    closure-to-heap ratio superlinearly and lose the workload's memory
    pressure entirely.  With fixed structure, closure bytes scale
    linearly with the heap — the ratio the experiments depend on.
    """
    return powerlaw_graph(
        name=f"notre-dame-{scale}-{seed}",
        n_vertices=150,
        n_edges=400,
        total_bytes=21 * MiB * 40 * scale,
        seed=seed,
    )


@_memoised
def ml_points(scale: float = 1.0, seed: int = 11) -> DatasetSpec:
    """Wikipedia-English-derived feature vectors for K-Means/LR: 5.7 GB on
    disk, ~28 GB in memory."""
    return labeled_points(
        name=f"ml-points-{scale}-{seed}",
        n_points=max(60, int(2_000 * scale)),
        dim=8,
        n_classes=4,
        total_bytes=5.7 * GiB * 5 * scale,
        seed=seed,
    )


@_memoised
def kdd_points(scale: float = 1.0, seed: int = 17) -> DatasetSpec:
    """KDD-2012-shaped classification input for Naive Bayes: 10.1 GB on
    disk, ~30 GB in memory."""
    return labeled_points(
        name=f"kdd12-{scale}-{seed}",
        n_points=max(60, int(2_500 * scale)),
        dim=8,
        n_classes=2,
        total_bytes=10.1 * GiB * 3 * scale,
        seed=seed,
    )
