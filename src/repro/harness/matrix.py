"""The full workload x policy matrix in one call.

``run_matrix`` is the "give me everything" entry point: every Table 4
program under every requested policy at one configuration point,
returned as a nested dict and renderable as one markdown report — the
programmatic equivalent of running the whole benchmark suite.  Since
every cell is an independent deterministic simulation, the matrix runs
through :class:`~repro.harness.engine.ExperimentEngine`: ``jobs=N`` fans
cells across a process pool (bit-identical to the serial run) and
``cache_dir`` skips cells already computed by a previous sweep.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.config import PolicyName
from repro.harness.configs import paper_config
from repro.harness.engine import EventCallback, ExperimentEngine, ExperimentPoint
from repro.harness.experiment import ExperimentResult
from repro.harness.report import format_markdown_table, normalize_results
from repro.workloads.registry import WORKLOADS

DEFAULT_POLICIES = (
    PolicyName.DRAM_ONLY,
    PolicyName.UNMANAGED,
    PolicyName.PANTHERA,
)


def run_matrix(
    scale: float = 0.1,
    heap_gb: float = 64,
    dram_ratio: float = 1 / 3,
    workloads: Optional[Iterable[str]] = None,
    policies: Iterable[PolicyName] = DEFAULT_POLICIES,
    jobs: int = 1,
    cache_dir: Optional[os.PathLike] = None,
    on_event: Optional[EventCallback] = None,
    trace: bool = False,
    workload_kwargs: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Dict[str, ExperimentResult]]:
    """Run every (workload, policy) combination.

    Args:
        scale: joint data/heap scale.
        heap_gb / dram_ratio: the configuration point.
        workloads: Table 4 abbreviations (default: all seven).
        policies: placement policies to compare.
        jobs: worker processes; ``jobs=1`` runs serially in-process and
            returns bit-identical results to any parallel run.
        cache_dir: content-addressed result cache directory (None
            disables caching).
        on_event: structured :class:`~repro.harness.engine.EngineEvent`
            callback for live status rendering.
        trace: record each cell's heap event stream (attached to the
            results as ``trace_events``; identical for any ``jobs``).
        workload_kwargs: forwarded to every cell's workload builder
            (e.g. ``{"iterations": 3}``).

    Returns:
        ``{workload: {policy value: result}}``.
    """
    chosen = list(workloads) if workloads else sorted(WORKLOADS)
    policy_list = list(policies)
    engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir, on_event=on_event)
    points = [
        ExperimentPoint(
            workload,
            paper_config(heap_gb, dram_ratio, policy, scale),
            scale,
            workload_kwargs=dict(workload_kwargs or {}),
            trace=trace,
        )
        for workload in chosen
        for policy in policy_list
    ]
    flat = engine.run(points)

    out: Dict[str, Dict[str, ExperimentResult]] = {}
    cursor = iter(flat)
    for workload in chosen:
        out[workload] = {policy.value: next(cursor) for policy in policy_list}
    return out


def matrix_report(
    matrix: Dict[str, Dict[str, ExperimentResult]],
    baseline: str = PolicyName.DRAM_ONLY.value,
) -> str:
    """Render a matrix as one normalised markdown table."""
    headers = ["program"]
    sample = next(iter(matrix.values()))
    policies = [p for p in sample if p != baseline]
    for policy in policies:
        headers.extend([f"{policy} time", f"{policy} energy", f"{policy} GC"])
    rows: List[List[object]] = []
    for workload, results in matrix.items():
        normalized = normalize_results(results, baseline)
        row: List[object] = [workload]
        for policy in policies:
            ratios = normalized[policy]
            row.extend([ratios["time"], ratios["energy"], ratios["gc"]])
        rows.append(row)
    return format_markdown_table(headers, rows)
