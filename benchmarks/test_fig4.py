"""Figure 4: overall performance and energy, 64 GB heap, 1/3 DRAM.

Paper shape (normalised to 64 GB DRAM-only, averaged over 7 programs):
  unmanaged: 1.21x time, 0.69x energy
  Panthera:  1.04x time, 0.63x energy
Per-benchmark paper rows are embedded below for side-by-side reporting.
"""

import statistics

from repro.harness.configs import fig4_configs
from repro.harness.report import normalize_results

from benchmarks.conftest import (
    ALL_WORKLOADS,
    BENCH_SCALE,
    print_and_report,
    run_grid,
)

#: Figure 4's bar values: workload -> (unmanaged time, panthera time,
#: unmanaged energy, panthera energy).
PAPER = {
    "PR": (1.25, 1.11, 0.71, 0.66),
    "KM": (1.15, 0.91, 0.66, 0.56),
    "LR": (1.15, 0.99, 0.68, 0.61),
    "TC": (1.37, 1.24, 0.74, 0.70),
    "CC": (1.18, 0.96, 0.69, 0.61),
    "SSSP": (1.15, 1.01, 0.66, 0.64),
    "BC": (1.25, 1.08, 0.69, 0.60),
}


def _run_all():
    configs = fig4_configs(BENCH_SCALE)
    flat = run_grid(
        {
            (workload, key): (workload, cfg)
            for workload in ALL_WORKLOADS
            for key, cfg in configs.items()
        }
    )
    out = {workload: {} for workload in ALL_WORKLOADS}
    for (workload, key), result in flat.items():
        out[workload][key] = result
    return out


def test_fig4_time_and_energy(benchmark):
    all_results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = [
        "| program | unmanaged time (meas/paper) | panthera time (meas/paper) "
        "| unmanaged energy (meas/paper) | panthera energy (meas/paper) |",
        "|---|---|---|---|---|",
    ]
    unmanaged_times, panthera_times = [], []
    unmanaged_energy, panthera_energy = [], []
    for workload in ALL_WORKLOADS:
        n = normalize_results(all_results[workload], "dram-only")
        p = PAPER[workload]
        lines.append(
            f"| {workload} "
            f"| {n['unmanaged']['time']:.2f} / {p[0]:.2f} "
            f"| {n['panthera']['time']:.2f} / {p[1]:.2f} "
            f"| {n['unmanaged']['energy']:.2f} / {p[2]:.2f} "
            f"| {n['panthera']['energy']:.2f} / {p[3]:.2f} |"
        )
        unmanaged_times.append(n["unmanaged"]["time"])
        panthera_times.append(n["panthera"]["time"])
        unmanaged_energy.append(n["unmanaged"]["energy"])
        panthera_energy.append(n["panthera"]["energy"])
    lines.append("")
    lines.append(
        f"measured averages: unmanaged {statistics.mean(unmanaged_times):.3f}x time / "
        f"{statistics.mean(unmanaged_energy):.3f}x energy; panthera "
        f"{statistics.mean(panthera_times):.3f}x time / "
        f"{statistics.mean(panthera_energy):.3f}x energy"
    )
    lines.append("paper averages: unmanaged 1.214x / 0.690x; panthera 1.043x / 0.626x")
    print_and_report("fig4", "Figure 4: 64 GB heap, 1/3 DRAM", lines)

    # Shape assertions per program: unmanaged slower than DRAM-only,
    # Panthera at most unmanaged; both save energy.
    for workload in ALL_WORKLOADS:
        n = normalize_results(all_results[workload], "dram-only")
        assert n["unmanaged"]["time"] >= 0.99, workload
        assert n["panthera"]["time"] <= n["unmanaged"]["time"] + 0.02, workload
        assert n["unmanaged"]["energy"] < 1.0, workload
        assert n["panthera"]["energy"] <= n["unmanaged"]["energy"] + 0.02, workload
    assert statistics.mean(unmanaged_times) > 1.0
    assert statistics.mean(panthera_energy) < 0.75
