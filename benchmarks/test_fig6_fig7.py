"""Figures 6 and 7: two heaps (64/120 GB) x two DRAM ratios (1/4, 1/3),
time and energy, for PR, LR, CC and BC.

Paper averages:
  time overhead (Panthera):  9.5% (64GB,1/4), 3.4% (64GB,1/3),
                             2.1% (120GB,1/4), 0% (120GB,1/3)
  time overhead (unmanaged): 25.9%, 20.9%, 23.9%, 19.3%
  energy (Panthera):   0.583 (64,1/4), 0.620 (64,1/3),
                       0.430 (120,1/4), 0.483 (120,1/3)
  energy (unmanaged):  0.633, 0.693, 0.498, 0.565
Shapes: Panthera is more sensitive to the DRAM ratio than to heap size;
unmanaged barely improves with more DRAM; the 120 GB heap saves more
energy than the 64 GB heap.
"""

import statistics

from repro.harness.configs import grid_configs
from repro.harness.report import normalize_results

from benchmarks.conftest import (
    BENCH_SCALE,
    GRID_WORKLOADS,
    print_and_report,
    run_grid,
)


def _run_grid():
    configs = grid_configs(BENCH_SCALE)
    flat = run_grid(
        {
            (workload, key): (workload, cfg)
            for workload in GRID_WORKLOADS
            for key, cfg in configs.items()
        }
    )
    out = {workload: {} for workload in GRID_WORKLOADS}
    for (workload, key), result in flat.items():
        out[workload][key] = result
    return out


def _cell(results, workload, heap, ratio, policy, metric):
    normalized = normalize_results(results[workload], f"{heap}gb-dram-only")
    return normalized[f"{heap}gb-{ratio}-{policy}"][metric]


def test_fig6_time_and_fig7_energy_grid(benchmark):
    results = benchmark.pedantic(_run_grid, rounds=1, iterations=1)

    time_lines = [
        "| program | 1/4 unmanaged | 1/4 panthera | 1/3 unmanaged | 1/3 panthera | heap |",
        "|---|---|---|---|---|---|",
    ]
    energy_lines = list(time_lines)
    cells = {"time": {}, "energy": {}}
    for heap in (64, 120):
        for workload in GRID_WORKLOADS:
            for metric, lines in (("time", time_lines), ("energy", energy_lines)):
                row = [f"| {workload} "]
                for ratio in ("quarter", "third"):
                    for policy in ("unmanaged", "panthera"):
                        value = _cell(results, workload, heap, ratio, policy, metric)
                        cells[metric][(heap, ratio, policy, workload)] = value
                        row.append(f"| {value:.2f} ")
                row.append(f"| {heap} GB |")
                lines.append("".join(row))
    print_and_report("fig6", "Figure 6: normalised time grid", time_lines)
    print_and_report("fig7", "Figure 7: normalised energy grid", energy_lines)

    def mean(metric, heap, ratio, policy):
        return statistics.mean(
            cells[metric][(heap, ratio, policy, w)] for w in GRID_WORKLOADS
        )

    # Panthera's DRAM-ratio sensitivity (§5.3): 1/3 DRAM is at least as
    # fast as 1/4 DRAM on both heaps.
    for heap in (64, 120):
        assert mean("time", heap, "third", "panthera") <= mean(
            "time", heap, "quarter", "panthera"
        ) + 0.02
    # Panthera beats unmanaged everywhere.
    for heap in (64, 120):
        for ratio in ("quarter", "third"):
            assert mean("time", heap, ratio, "panthera") < mean(
                "time", heap, ratio, "unmanaged"
            )
    # Smaller DRAM ratio saves more energy (less DRAM static power).
    for heap in (64, 120):
        for policy in ("unmanaged", "panthera"):
            assert mean("energy", heap, "quarter", policy) <= mean(
                "energy", heap, "third", policy
            ) + 0.02
    # Hybrid memory always saves energy.
    for key, value in cells["energy"].items():
        assert value < 1.0, key
