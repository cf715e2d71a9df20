"""Gang-scheduled cluster runs: the simulator behind the projection.

:func:`~repro.cluster.projection.project_pauses` estimates how a
synchronised (gang-scheduled) cluster amplifies GC pauses by scattering
one measured pause profile over synthetic stage windows.  This module
computes the same quantity *from real simulated nodes*: K full
single-node simulations (one per cluster node, with per-node dataset
seed jitter), their pause streams laid into synchronisation windows,
and the gang time summed as max-over-nodes per window — the
simulation-backed answer the analytical projection approximates.

Two placement modes:

* ``"scattered"`` — each node's *real* pauses are scattered over
  windows with the projection's RNG discipline.  This isolates the one
  assumption the cross-check wants to validate (window-max composition
  over K independent nodes) from pause *timing*, and is what the
  pinned cross-check test uses.
* ``"measured"`` — each pause lands in the window its own node's
  mutator progress had reached when the pause started.  This keeps the
  simulated timing correlation the projection throws away; comparing
  the two modes measures exactly how much that assumption costs (see
  docs/CLUSTER.md, "Residual").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import SystemConfig
from repro.errors import ReproError
from repro.floats import left_sum
from repro.harness.experiment import run_experiment

#: Seed jitter base for per-node dataset variation: node *i* builds its
#: dataset with ``seed_base + i``, so the gang's nodes are statistically
#: identical but not clones.
DEFAULT_SEED_BASE = 101


@dataclass(frozen=True)
class GangResult:
    """One gang-scheduled cluster run.

    Attributes:
        nodes: cluster size.
        sync_windows: synchronisation windows per run.
        placement: ``"measured"`` or ``"scattered"``.
        single_node_s: mean single-node run time across the gang.
        cluster_s: gang time (sum over windows of per-window maxima).
        slowdown: ``cluster_s / single_node_s``.
        gc_amplification: gang GC wait over the mean per-node GC time.
        node_elapsed_s: each node's own run time.
        node_gc_s: each node's own GC pause time.
    """

    nodes: int
    sync_windows: int
    placement: str
    single_node_s: float
    cluster_s: float
    slowdown: float
    gc_amplification: float
    node_elapsed_s: List[float] = field(default_factory=list)
    node_gc_s: List[float] = field(default_factory=list)


def gang_run(
    workload: str,
    nodes: int,
    config: SystemConfig,
    scale: float = 1.0,
    sync_windows: int = 20,
    seed_base: int = DEFAULT_SEED_BASE,
    placement: str = "scattered",
    scatter_seed: int = 1234,
    workload_kwargs: Optional[Dict[str, Any]] = None,
) -> GangResult:
    """Run one workload gang-scheduled across K simulated nodes.

    Each node is a full single-node simulation of the same workload
    with dataset seed ``seed_base + node``.  The gang time composes the
    nodes' pause profiles over ``sync_windows`` barriers:

    * mutator work per window is the gang-mean mutator time divided by
      the window count (all nodes do the same work per stage);
    * each window's pause cost is the max over nodes of the pauses that
      window absorbed, under the chosen ``placement``.

    Args:
        workload: Table 4 abbreviation.
        nodes: cluster size (>= 1).
        config: per-node configuration (same on every node).
        scale: data-scale factor.
        sync_windows: stage barriers per run.
        seed_base: per-node dataset seed jitter base.
        placement: ``"measured"`` (pauses land where their node's
            mutator progress put them) or ``"scattered"`` (the
            projection's RNG discipline over real pause sets).
        scatter_seed: RNG seed for ``"scattered"`` placement.
        workload_kwargs: extra builder arguments (merged with the
            per-node seed).
    """
    if nodes < 1:
        raise ReproError("a gang needs at least one node")
    if sync_windows < 1:
        raise ReproError("need at least one synchronisation window")
    if placement not in ("measured", "scattered"):
        raise ReproError(f"unknown placement {placement!r}")
    node_pauses: List[List[tuple]] = []
    node_elapsed: List[float] = []
    node_gc: List[float] = []
    node_mutator: List[float] = []
    for node in range(nodes):
        kwargs = dict(workload_kwargs or {})
        kwargs["seed"] = seed_base + node
        result = run_experiment(
            workload,
            config,
            scale=scale,
            workload_kwargs=kwargs,
            keep_context=True,
        )
        node_pauses.append(list(result.context.collector.stats.pauses))
        node_elapsed.append(result.elapsed_s)
        node_gc.append(result.gc_s)
        node_mutator.append(result.mutator_s)
    mean_mutator = left_sum(node_mutator) / nodes
    mean_gc = left_sum(node_gc) / nodes
    mean_single = left_sum(node_elapsed) / nodes
    per_node_windows = _window_layout(
        node_pauses,
        node_elapsed,
        node_gc,
        sync_windows,
        placement,
        scatter_seed,
    )
    work_per_window = mean_mutator / sync_windows
    cluster_total = 0.0
    gc_wait = 0.0
    for w in range(sync_windows):
        worst = max(per_node_windows[n][w] for n in range(nodes))
        cluster_total += work_per_window + worst
        gc_wait += worst
    return GangResult(
        nodes=nodes,
        sync_windows=sync_windows,
        placement=placement,
        single_node_s=mean_single,
        cluster_s=cluster_total,
        slowdown=cluster_total / mean_single if mean_single else 1.0,
        gc_amplification=gc_wait / mean_gc if mean_gc else 1.0,
        node_elapsed_s=node_elapsed,
        node_gc_s=node_gc,
    )


def _window_layout(
    node_pauses: List[List[tuple]],
    node_elapsed: List[float],
    node_gc: List[float],
    sync_windows: int,
    placement: str,
    scatter_seed: int,
) -> List[List[float]]:
    """Per-node pause mass per window under the chosen placement."""
    layouts: List[List[float]] = []
    if placement == "scattered":
        # One shared RNG consumed node by node — the exact discipline
        # of project_pauses, over each node's own real pause set.
        rng = random.Random(scatter_seed)
        for pauses in node_pauses:
            windows = [0.0] * sync_windows
            for _, _, duration_ns in pauses:
                windows[rng.randrange(sync_windows)] += duration_ns / 1e9
            layouts.append(windows)
        return layouts
    for node, pauses in enumerate(node_pauses):
        # Window = how far through its own mutator work the node was
        # when the pause started (elapsed-minus-GC-so-far over the
        # node's total mutator time).
        windows = [0.0] * sync_windows
        mutator_total = max(node_elapsed[node] - node_gc[node], 1e-12)
        gc_so_far = 0.0
        for _, start_ns, duration_ns in pauses:
            progress = (start_ns / 1e9 - gc_so_far) / mutator_total
            idx = min(int(progress * sync_windows), sync_windows - 1)
            windows[max(idx, 0)] += duration_ns / 1e9
            gc_so_far += duration_ns / 1e9
        layouts.append(windows)
    return layouts
