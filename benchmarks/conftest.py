"""Shared benchmark infrastructure.

Every figure/table of the paper's evaluation (§5) has one benchmark file
here.  Each runs its experiment grid once (wrapped in
``benchmark.pedantic`` so ``pytest benchmarks/ --benchmark-only`` both
times the simulator and regenerates the figure), prints the reproduced
rows next to the paper's numbers, and writes a markdown report under
``benchmarks/results/``.

``REPRO_BENCH_SCALE`` (default 0.1) jointly scales heaps and datasets;
shapes are scale-invariant by design (see DESIGN.md).
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Mapping, Sequence, Tuple

import pytest

from repro.config import SystemConfig
from repro.harness.engine import run_points
from repro.harness.experiment import ExperimentResult

#: Joint data/heap scale for benchmark runs.
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))

#: Worker processes for the experiment grids (1 = serial; results are
#: bit-identical either way, so crank this up freely).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Optional content-addressed result cache shared by all grids; re-runs
#: at the same scale and code version skip finished cells.
BENCH_CACHE = os.environ.get("REPRO_BENCH_CACHE") or None

#: All seven Table 4 programs.
ALL_WORKLOADS = ("PR", "KM", "LR", "TC", "CC", "SSSP", "BC")

#: The four programs used by Figures 6 and 7.
GRID_WORKLOADS = ("PR", "LR", "CC", "BC")

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def run_grid(
    cells: Mapping[object, Tuple[str, SystemConfig]],
    scale: float = BENCH_SCALE,
) -> Dict[object, ExperimentResult]:
    """Run a keyed ``{key: (workload, config)}`` grid through the engine.

    One flat engine call per figure: ``REPRO_BENCH_JOBS`` fans the cells
    across worker processes and ``REPRO_BENCH_CACHE`` lets repeated runs
    (CI retries, report tweaking) skip completed cells.
    """
    return run_points(cells, scale, jobs=BENCH_JOBS, cache_dir=BENCH_CACHE)


def write_report(name: str, title: str, lines: Sequence[str]) -> pathlib.Path:
    """Persist one reproduced figure/table as markdown."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.md"
    body = [f"# {title}", "", f"(scale = {BENCH_SCALE})", ""]
    body.extend(lines)
    path.write_text("\n".join(body) + "\n")
    return path


def print_and_report(name: str, title: str, lines: List[str]) -> None:
    """Print a reproduced figure and persist it."""
    print()
    print(f"=== {title} ===")
    for line in lines:
        print(line)
    write_report(name, title, lines)


@pytest.fixture(scope="session")
def bench_scale() -> float:
    """The session's joint scale factor."""
    return BENCH_SCALE
