"""Spark PageRank, transcribed from Figure 2(a) of the paper.

``links`` is built once (map -> distinct -> groupByKey), persisted
MEMORY_ONLY and joined against every iteration — the static analysis
tags it DRAM.  ``contribs`` is rebuilt and persisted
MEMORY_AND_DISK_SER every iteration — tagged NVM.  ``ranks`` is only
materialised by the final ``count()`` after the loop — tagged NVM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, pagerank_graph

DAMPING = 0.85


@dataclass
class WorkloadSpec:
    """A runnable benchmark: its program plus metadata for reports."""

    name: str
    program: Program
    dataset: DatasetSpec
    iterations: int
    description: str


def _contribs_record(record):
    """join output (src, (neighbour_lists, rank)) -> contributions."""
    _, (urls_groups, rank) = record
    # `urls` is the groupByKey value: a list of destination vertices.
    urls = urls_groups
    size = max(1, len(urls))
    return [(url, rank / size) for url in urls]


def _contribs_kernel(batch):
    values = batch.values
    if type(values) is not _columnar.PairColumn:
        return None
    urls = values.first
    ranks = _columnar.float_array(values.second)
    if type(urls) is not _columnar.ListColumn or ranks is None:
        return None
    # rank / max(1, len(urls)) per row, one record per url: float64
    # division by the (exactly converted) int degree is the same
    # correctly-rounded division Python's float / int performs.
    return _columnar.csr_spread(urls, ranks / urls.lengths().clip(1))


def _initial_rank(_links):
    return 1.0


def _initial_rank_kernel(batch):
    return _columnar.ColumnBatch(batch.keys, _columnar.ones_float(len(batch)))


def _edge(record):
    """(src, dst) -> (src, dst): identity over the 2-tuple edge records
    (named so the columnar plane can register a whole-batch kernel)."""
    return (record[0], record[1])


def _add(a, b):
    return a + b


def _damp(s):
    return 0.15 + DAMPING * s


def _damp_kernel(batch):
    ranks = _columnar.float_array(batch.values)
    if ranks is None:
        return None
    # 0.15 + DAMPING * s per element: the same two correctly-rounded
    # float64 operations _damp performs.
    return _columnar.ColumnBatch(
        batch.keys, _columnar.float_column(0.15 + DAMPING * ranks)
    )


_columnar.register_map_kernel(_edge, _columnar.identity_kernel)
_columnar.register_reduce_kernel(
    _add, _columnar.make_scalar_add_reduce_kernel()
)
_columnar.register_map_values_kernel(_damp, _damp_kernel)
_columnar.register_map_values_kernel(_initial_rank, _initial_rank_kernel)
_columnar.register_flat_map_kernel(_contribs_record, _contribs_kernel)


def build_pagerank(
    scale: float = 1.0,
    iterations: int = 15,
    seed: int = 7,
    dataset: Optional[DatasetSpec] = None,
    persist_level: StorageLevel = StorageLevel.MEMORY_AND_DISK_SER,
) -> WorkloadSpec:
    """Build the PageRank program of Figure 2(a).

    ``persist_level`` selects how the per-iteration ``contribs`` RDD is
    stored — the GC-vs-serialization experiment flips it between the
    default object-heap form and ``MEMORY_ONLY_SER`` (serialized tier).
    """
    ds = dataset or pagerank_graph(scale=scale, seed=seed)
    fanout = max(1.0, ds.n_records / max(1, ds.n_sources))

    p = Program()
    lines = p.let("lines", p.source(ds))
    links = p.let(
        "links",
        lines.map(_edge)
        .distinct()
        .group_by_key(size_factor=fanout)
        .persist(StorageLevel.MEMORY_ONLY),
    )
    ranks = p.let("ranks", links.map_values(_initial_rank, size_factor=0.1))
    with p.loop(iterations):
        contribs = p.let(
            "contribs",
            links.join(ranks)
            .values()
            .flat_map(_contribs_record, size_factor=0.8)
            .persist(persist_level),
        )
        ranks = p.let(
            "ranks",
            contribs.reduce_by_key(_add).map_values(_damp),
        )
    p.action(ranks, "collect", result_key="ranks")
    return WorkloadSpec(
        name="PR",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="PageRank over a Wikipedia-shaped link graph",
    )
