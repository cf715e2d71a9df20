"""Panthera (PLDI 2019) reproduction: holistic memory management for Big
Data processing over hybrid DRAM/NVM memories, as a discrete-cost
simulation.

Quickstart::

    from repro import PolicyName, paper_config, run_experiment

    config = paper_config(64, 1/3, PolicyName.PANTHERA, scale=0.2)
    result = run_experiment("PR", config, scale=0.2)
    print(result.elapsed_s, result.energy_j)

The package layers are:

* :mod:`repro.memory` — the hybrid-memory machine (devices, clock,
  energy, bandwidth traces).
* :mod:`repro.heap` / :mod:`repro.gc` — the generational heap and the
  Parallel Scavenge-style collector with pluggable placement policies.
* :mod:`repro.core` — Panthera proper: static tag inference, lineage tag
  propagation, the runtime API, the access monitor.
* :mod:`repro.spark` — the mini-Spark (RDDs, stages, shuffles, blocks).
* :mod:`repro.workloads` — the seven Table 4 benchmarks.
* :mod:`repro.harness` — experiment runner and paper configurations.
"""

from repro.config import (
    DeviceKind,
    GiB,
    MiB,
    PolicyName,
    SystemConfig,
    dram_only_config,
    hybrid_config,
)
from repro.core.static_analysis import StaticAnalysis, analyze_program
from repro.core.tags import MemoryTag
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultReport,
    KillSpec,
    ThrottleSpec,
    action_checksums,
)
from repro.harness.configs import (
    fig2c_configs,
    fig4_configs,
    grid_configs,
    paper_config,
    write_rationing_configs,
)
from repro.harness.engine import (
    ExperimentEngine,
    ExperimentPoint,
    run_points,
)
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.report import (
    format_markdown_table,
    normalize_results,
    summarize,
)
from repro.gc.gclog import render_log
from repro.harness.export import (
    bandwidth_series_to_csv,
    results_to_json,
)
from repro.heap.verify import verify_heap
from repro.spark.context import SparkContext
from repro.spark.lineage import build_stages, lineage_string, stage_summary
from repro.spark.program import Program, execute_program
from repro.spark.storage import StorageLevel
from repro.workloads.registry import WORKLOADS, build_workload

__version__ = "1.0.0"

__all__ = [
    "DeviceKind",
    "ExperimentEngine",
    "ExperimentPoint",
    "ExperimentResult",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "GiB",
    "KillSpec",
    "ThrottleSpec",
    "action_checksums",
    "MemoryTag",
    "MiB",
    "PolicyName",
    "Program",
    "SparkContext",
    "StaticAnalysis",
    "StorageLevel",
    "SystemConfig",
    "WORKLOADS",
    "analyze_program",
    "bandwidth_series_to_csv",
    "build_stages",
    "build_workload",
    "dram_only_config",
    "execute_program",
    "lineage_string",
    "render_log",
    "results_to_json",
    "stage_summary",
    "verify_heap",
    "fig2c_configs",
    "fig4_configs",
    "format_markdown_table",
    "grid_configs",
    "hybrid_config",
    "normalize_results",
    "paper_config",
    "run_experiment",
    "run_points",
    "summarize",
    "write_rationing_configs",
]
