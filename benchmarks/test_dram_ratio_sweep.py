"""DRAM-ratio sweep beyond the paper's two points.

The paper evaluates 1/4 and 1/3 DRAM; this sweep extends the axis from
1/6 to 1/2 to expose the trade-off curve: energy savings shrink as DRAM
grows, while Panthera's time overhead melts away once the DRAM component
of the old generation can hold the hot working set.  ("Panthera is more
sensitive to the DRAM ratio than the heap size", §5.3.)

1/8 is deliberately absent: with a 1/6-heap nursery that must live in
DRAM, a 1/8 DRAM share is physically impossible — the same constraint
that kept the paper from using "a very small DRAM ratio" (§5.2).
"""

from repro.config import PolicyName
from repro.harness.configs import paper_config
from repro.harness.report import normalize_results

from benchmarks.conftest import BENCH_SCALE, print_and_report, run_grid

RATIOS = (1 / 6, 1 / 4, 1 / 3, 1 / 2)


def _run_sweep():
    cells = {
        "baseline": ("KM", paper_config(64, 1.0, PolicyName.DRAM_ONLY, BENCH_SCALE))
    }
    for ratio in RATIOS:
        for policy in (PolicyName.UNMANAGED, PolicyName.PANTHERA):
            cells[(ratio, policy.value)] = (
                "KM",
                paper_config(64, ratio, policy, BENCH_SCALE),
            )
    return run_grid(cells)


def test_dram_ratio_sweep(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    normalized = normalize_results(results, "baseline")
    lines = [
        "| DRAM ratio | unmanaged time | panthera time | unmanaged energy | panthera energy |",
        "|---|---|---|---|---|",
    ]
    table = {}
    for ratio in RATIOS:
        row = [f"| 1/{round(1 / ratio)} "]
        for policy in ("unmanaged", "panthera"):
            ratios = normalized[(ratio, policy)]
            table[(ratio, policy)] = (ratios["time"], ratios["energy"])
        row.append(f"| {table[(ratio, 'unmanaged')][0]:.3f} ")
        row.append(f"| {table[(ratio, 'panthera')][0]:.3f} ")
        row.append(f"| {table[(ratio, 'unmanaged')][1]:.3f} ")
        row.append(f"| {table[(ratio, 'panthera')][1]:.3f} |")
        lines.append("".join(row))
    print_and_report("dram_ratio_sweep", "DRAM-ratio sweep (K-Means)", lines)

    # Energy: more DRAM = less saving, monotonically, for both policies.
    for policy in ("unmanaged", "panthera"):
        energies = [table[(r, policy)][1] for r in RATIOS]
        assert all(b >= a - 0.02 for a, b in zip(energies, energies[1:])), policy
        assert energies[0] < 1.0 and energies[-1] < 1.0
    # Time: Panthera at or below unmanaged at every ratio.
    for ratio in RATIOS:
        assert table[(ratio, "panthera")][0] <= table[(ratio, "unmanaged")][0] + 0.02
    # Panthera's time improves (or holds) as DRAM grows.
    panthera_times = [table[(r, "panthera")][0] for r in RATIOS]
    assert panthera_times[-1] <= panthera_times[0] + 0.02
