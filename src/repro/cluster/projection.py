"""Projecting single-node pause behaviour onto a synchronised cluster.

Model: a data-parallel job is a sequence of synchronisation windows
(stages end at shuffles; every node must finish before any node starts
the next stage).  Each node does the same mutator work per window but
collects independently — pauses land in random windows.  A window's
cluster-wide duration is the *maximum* over nodes, so pause variance
amplifies with node count: with K nodes the expected excess grows like
the expected maximum of K sums of randomly scattered pauses.

The projection bootstraps from a measured single-node run: the observed
pause durations are scattered over windows independently per node (with
a deterministic RNG), and the cluster time is the sum over windows of
the per-window maxima.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ReproError
from repro.floats import left_sum
from repro.harness.experiment import ExperimentResult


@dataclass(frozen=True)
class ClusterProjection:
    """Result of one cluster projection.

    Attributes:
        nodes: cluster size.
        single_node_s: the measured single-node run time.
        cluster_s: projected synchronised-cluster run time.
        slowdown: ``cluster_s / single_node_s``.
        gc_amplification: projected cluster GC wait divided by the
            single node's own GC time (1.0 = no amplification).
    """

    nodes: int
    single_node_s: float
    cluster_s: float
    slowdown: float
    gc_amplification: float


def project_pauses(
    mutator_s: float,
    pause_durations_s: Sequence[float],
    nodes: int,
    sync_windows: int = 20,
    seed: int = 1234,
) -> ClusterProjection:
    """Project a pause profile onto a K-node synchronised cluster.

    Args:
        mutator_s: single-node mutator (non-GC) time.
        pause_durations_s: the node's individual GC pause durations.
        nodes: cluster size (>= 1).
        sync_windows: synchronisation windows (stage barriers) per run.
        seed: RNG seed for the per-node pause scattering.
    """
    if nodes < 1:
        raise ReproError("a cluster needs at least one node")
    if sync_windows < 1:
        raise ReproError("need at least one synchronisation window")
    gc_s = left_sum(pause_durations_s)
    single = mutator_s + gc_s
    if nodes == 1 or not pause_durations_s:
        return ClusterProjection(
            nodes=nodes,
            single_node_s=single,
            cluster_s=single,
            slowdown=1.0,
            gc_amplification=1.0,
        )
    rng = random.Random(seed)
    work_per_window = mutator_s / sync_windows
    cluster_total = 0.0
    cluster_gc_wait = 0.0
    # Pause-per-window accumulation, one layout per node.
    per_node_windows: List[List[float]] = []
    for _ in range(nodes):
        windows = [0.0] * sync_windows
        for pause in pause_durations_s:
            windows[rng.randrange(sync_windows)] += pause
        per_node_windows.append(windows)
    for w in range(sync_windows):
        worst_pause = max(per_node_windows[n][w] for n in range(nodes))
        cluster_total += work_per_window + worst_pause
        cluster_gc_wait += worst_pause
    return ClusterProjection(
        nodes=nodes,
        single_node_s=single,
        cluster_s=cluster_total,
        slowdown=cluster_total / single if single else 1.0,
        gc_amplification=(cluster_gc_wait / gc_s) if gc_s else 1.0,
    )


def project_cluster(
    result: ExperimentResult,
    nodes: int,
    sync_windows: int = 20,
    seed: int = 1234,
) -> ClusterProjection:
    """Project a kept-context experiment result onto a K-node cluster.

    Requires ``keep_context=True`` so the individual pause durations are
    available.
    """
    if result.context is None:
        raise ReproError("cluster projection needs keep_context=True")
    pauses = [
        duration_ns / 1e9
        for _, _, duration_ns in result.context.collector.stats.pauses
    ]
    return project_pauses(
        result.mutator_s, pauses, nodes, sync_windows=sync_windows, seed=seed
    )
