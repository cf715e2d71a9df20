"""Report helpers: normalised tables in the shape the paper's figures use."""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.harness.experiment import ExperimentResult


def normalize_results(
    results: Mapping[str, ExperimentResult], baseline: str
) -> Dict[str, Dict[str, float]]:
    """Normalise elapsed time and energy against a baseline run.

    This is how every figure in the paper reports: "normalised to
    N GB DRAM-only".

    Returns:
        key -> {"time": t, "energy": e, "gc": g} with the baseline at
        1.0; the GC ratio reads 0.0 when the baseline paused for no GC.
    """
    if baseline not in results:
        raise KeyError(f"baseline {baseline!r} missing from results")
    base = results[baseline]
    if base.elapsed_s <= 0 or base.energy_j <= 0:
        raise ValueError("baseline run has zero time or energy")
    return {
        key: {
            "time": r.elapsed_s / base.elapsed_s,
            "energy": r.energy_j / base.energy_j,
            "gc": r.gc_s / base.gc_s if base.gc_s else 0.0,
        }
        for key, r in results.items()
    }


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a compact GitHub-flavoured markdown table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    lines: List[str] = []
    lines.append("| " + " | ".join(headers) + " |")
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return "\n".join(lines)


def summarize(result: ExperimentResult) -> str:
    """One-line human summary of a run."""
    return (
        f"{result.workload} [{result.policy.value}] "
        f"heap={result.heap_gb:.1f}GB dram={result.dram_ratio:.2f}: "
        f"{result.elapsed_s:.1f}s total ({result.gc_s:.1f}s GC, "
        f"{result.minor_gcs} minor / {result.major_gcs} major), "
        f"{result.energy_j:.0f}J"
    )
