"""GraphX-style Pregel programs: Connected Components and SSSP.

Each iteration builds a *new* graph RDD (vertices carry their state plus
their adjacency) and unpersists an old generation — the pattern §5.5
describes: the static analysis, lacking unpersist support, sees every
persisted variable defined-and-used in the loop, tags them all NVM, and
the all-NVM rule flips them all to DRAM.  Stale graph versions that
survive into a major GC with zero monitored calls are then dynamically
migrated to NVM — the one-RDD migrations of Table 5.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.spark import columnar as _columnar
from repro.spark.program import Program
from repro.spark.storage import StorageLevel
from repro.workloads.datasets import DatasetSpec, wiki_en_graph
from repro.workloads.pagerank import WorkloadSpec

#: How many stale graph generations linger before unpersist — GraphX's
#: materialisation pattern keeps the previous graph alive while the new
#: one is built on top of it.
UNPERSIST_LAG = 2


def _same_edge(record):
    return record


def _both_directions(record):
    """An edge in both directions (the undirected view)."""
    return [(record[0], record[1]), (record[1], record[0])]


def _both_directions_kernel(batch):
    src = _columnar.int_array(batch.keys)
    dst = _columnar.int_array(batch.values)
    if src is None or dst is None:
        return None
    return _columnar.ColumnBatch(
        _columnar.int_column(_columnar.interleave(src, dst)),
        _columnar.int_column(_columnar.interleave(dst, src)),
    )


def _graph_rows(batch):
    """``(vids, states, neighbour lists)`` of a batch of graph rows
    ``(vid, (state, [nbr…]))``, or None for any other schema."""
    values = batch.values
    vids = _columnar.int_array(batch.keys)
    if (
        vids is None
        or type(values) is not _columnar.PairColumn
        or type(values.first) is not _columnar.ScalarColumn
        or type(values.second) is not _columnar.ListColumn
    ):
        return None
    return vids, values.first.arr, values.second


def _send_labels(record):
    """CC message: the row's label to every neighbour, then to itself."""
    vid, (label, nbrs) = record
    out = [(nbr, label) for nbr in nbrs]
    out.append((vid, label))  # self-message keeps isolated paths alive
    return out


def _send_labels_kernel(batch):
    rows = _graph_rows(batch)
    if rows is None:
        return None
    vids, labels, nbrs = rows
    return _columnar.csr_fan_out(nbrs, labels, vids, labels, own_first=False)


def _relax(record):
    """SSSP message: the row's own distance, then ``dist + 1`` to every
    neighbour when the row is reached."""
    vid, (dist, nbrs) = record
    out = [(vid, dist)]  # self-message: keep own distance in play
    if not math.isinf(dist):
        out.extend((nbr, dist + 1.0) for nbr in nbrs)
    return out


def _relax_kernel(batch):
    import numpy as np

    rows = _graph_rows(batch)
    if rows is None or rows[1].dtype != np.float64:
        return None
    vids, dists, nbrs = rows
    return _columnar.csr_fan_out(
        nbrs.emptied(~np.isinf(dists)), dists + 1.0, vids, dists, own_first=True
    )


def _update_state(value):
    """Joined ``((state, nbrs), incoming)`` -> ``(min(state, incoming),
    nbrs)``: the Pregel vertex program of both CC and SSSP."""
    (state, nbrs), incoming = value
    return (min(state, incoming), nbrs)


def _update_state_kernel(batch):
    import numpy as np

    values = batch.values
    if type(values) is not _columnar.PairColumn:
        return None
    graph, incoming = values.first, values.second
    if (
        type(graph) is not _columnar.PairColumn
        or type(graph.first) is not _columnar.ScalarColumn
        or type(incoming) is not _columnar.ScalarColumn
        or graph.first.arr.dtype != incoming.arr.dtype
    ):
        return None
    a, b = graph.first.arr, incoming.arr
    # min(a, b) is b if b < a else a — NaN and signed zeros included.
    return _columnar.ColumnBatch(
        batch.keys,
        _columnar.PairColumn(
            _columnar.ScalarColumn(np.where(b < a, b, a)), graph.second
        ),
    )


_columnar.register_map_kernel(_same_edge, _columnar.identity_kernel)
_columnar.register_flat_map_kernel(_both_directions, _both_directions_kernel)
_columnar.register_flat_map_kernel(_send_labels, _send_labels_kernel)
_columnar.register_flat_map_kernel(_relax, _relax_kernel)
_columnar.register_map_values_kernel(_update_state, _update_state_kernel)


def _adjacency_program(
    p: Program,
    ds: DatasetSpec,
    init_state_fn,
    init_state_column,
    undirected: bool = False,
):
    """Shared prologue: build the initial graph (vid, (state, neighbours)).

    ``init_state_column`` is ``init_state_fn`` over an int64 vid array,
    returning the state column.  Connected components works on the
    undirected view of the graph (as GraphX's ``connectedComponents``
    does); SSSP follows edge direction.
    """
    fanout = max(1.0, ds.n_records / max(1, ds.n_vertices))
    lines = p.let("lines", p.source(ds))
    if undirected:
        edges_expr = lines.flat_map(_both_directions, size_factor=0.5)
        fanout *= 2
    else:
        edges_expr = lines.map(_same_edge)

    def attach_state(r):
        return (r[0], (init_state_fn(r[0]), r[1]))

    def attach_state_kernel(batch):
        vids = _columnar.int_array(batch.keys)
        if vids is None or type(batch.values) is not _columnar.ListColumn:
            return None
        return _columnar.ColumnBatch(
            batch.keys,
            _columnar.PairColumn(init_state_column(vids), batch.values),
        )

    _columnar.register_map_kernel(attach_state, attach_state_kernel)
    g = p.let(
        "g",
        edges_expr.group_by_key(size_factor=fanout)
        .map(attach_state, preserves_partitioning=True)
        .persist(StorageLevel.MEMORY_ONLY),
    )
    return g


def build_connected_components(
    scale: float = 1.0,
    iterations: int = 6,
    seed: int = 9,
    dataset: Optional[DatasetSpec] = None,
) -> WorkloadSpec:
    """GraphX-CC: label propagation of the minimum vertex id."""
    ds = dataset or wiki_en_graph(scale=scale, seed=seed)

    p = Program()
    g = _adjacency_program(
        p,
        ds,
        init_state_fn=lambda vid: vid,
        init_state_column=_columnar.int_column,
        undirected=True,
    )
    with p.loop(iterations):
        msgs = p.let(
            "msgs",
            g.flat_map(_send_labels, size_factor=0.1)
            .reduce_by_key(min)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        g = p.let(
            "g",
            g.join(msgs)
            .map_values(_update_state)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        # Pregel checks the active-message count every superstep, which
        # is what actually drives per-iteration execution in GraphX.
        p.action(msgs, "count", result_key="active_messages")
        p.unpersist_prior(g, lag=UNPERSIST_LAG)
        p.unpersist_prior(msgs, lag=UNPERSIST_LAG)
    p.action(g, "collect", result_key="components")
    return WorkloadSpec(
        name="CC",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="GraphX connected components (Pregel label propagation)",
    )


def build_sssp(
    scale: float = 1.0,
    iterations: int = 6,
    source_vertex: int = 0,
    seed: int = 9,
    dataset: Optional[DatasetSpec] = None,
) -> WorkloadSpec:
    """GraphX-SSSP: unit-weight shortest paths from one source."""
    ds = dataset or wiki_en_graph(scale=scale, seed=seed)

    def init_dist(vid: int) -> float:
        return 0.0 if vid == source_vertex else math.inf

    def init_dist_column(vids):
        import numpy as np

        return _columnar.float_column(
            np.where(vids == source_vertex, 0.0, math.inf)
        )

    p = Program()
    g = _adjacency_program(
        p, ds, init_state_fn=init_dist, init_state_column=init_dist_column
    )
    with p.loop(iterations):
        msgs = p.let(
            "msgs",
            g.flat_map(_relax, size_factor=0.1)
            .reduce_by_key(min)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        g = p.let(
            "g",
            g.join(msgs)
            .map_values(_update_state)
            .persist(StorageLevel.MEMORY_ONLY),
        )
        p.action(msgs, "count", result_key="active_messages")
        p.unpersist_prior(g, lag=UNPERSIST_LAG)
        p.unpersist_prior(msgs, lag=UNPERSIST_LAG)
    p.action(g, "collect", result_key="distances")
    return WorkloadSpec(
        name="SSSP",
        program=p,
        dataset=ds,
        iterations=iterations,
        description="GraphX single-source shortest paths",
    )
