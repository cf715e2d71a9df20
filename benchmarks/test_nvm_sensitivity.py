"""Sensitivity to the NVM technology point.

The paper's introduction quotes a *range* for emerging NVMs — read
latency "2-4x larger" than DRAM, bandwidth "about 1/8-1/3" of DRAM —
and evaluates one point (2.5x / 1/3).  This sweep moves the emulated
device across that range and checks the conclusion is robust: Panthera
dominates the unmanaged layout everywhere, and its *advantage widens*
as NVM gets worse (the slower the NVM, the more semantics-aware
placement matters).
"""

from repro.config import PolicyName
from repro.harness.configs import paper_config
from repro.harness.report import normalize_results

from benchmarks.conftest import BENCH_SCALE, print_and_report, run_grid

#: (label, latency factor, bandwidth factor) — relative to Table 2's
#: 300 ns / 10 GB/s point.
TECH_POINTS = [
    ("optimistic (2x lat, 1/3 bw)", 0.8, 1.0),
    ("paper (2.5x lat, 1/3 bw)", 1.0, 1.0),
    ("pessimistic (4x lat, 1/6 bw)", 1.6, 0.5),
    ("worst-case (4x lat, 1/8 bw)", 1.6, 0.375),
]


def _run_sweep():
    cells = {}
    for label, lat, bw in TECH_POINTS:
        for policy in (
            PolicyName.DRAM_ONLY,
            PolicyName.UNMANAGED,
            PolicyName.PANTHERA,
        ):
            cfg = paper_config(
                64,
                1 / 3,
                policy,
                BENCH_SCALE,
                nvm_latency_factor=lat,
                nvm_bandwidth_factor=bw,
            )
            cells[(label, policy.value)] = ("PR", cfg)
    flat = run_grid(cells)
    out = {label: {} for label, _, _ in TECH_POINTS}
    for (label, policy), result in flat.items():
        out[label][policy] = result
    return out


def test_nvm_technology_sweep(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    lines = [
        "| NVM point | unmanaged time | panthera time | unmanaged energy | panthera energy |",
        "|---|---|---|---|---|",
    ]
    advantage = []
    for label, row in results.items():
        normalized = normalize_results(row, "dram-only")
        unmanaged, panthera = normalized["unmanaged"], normalized["panthera"]
        unmanaged_t, panthera_t = unmanaged["time"], panthera["time"]
        lines.append(
            f"| {label} | {unmanaged_t:.3f} | {panthera_t:.3f} "
            f"| {unmanaged['energy']:.3f} | {panthera['energy']:.3f} |"
        )
        advantage.append(unmanaged_t - panthera_t)
    lines.append("")
    lines.append(
        "Panthera's time advantage over the unmanaged layout per point: "
        + ", ".join(f"{a:.3f}" for a in advantage)
    )
    print_and_report(
        "nvm_sensitivity", "NVM technology sensitivity sweep (PageRank)", lines
    )

    # Panthera beats unmanaged at every technology point...
    assert all(a > 0 for a in advantage)
    # ...and the advantage at the worst-case NVM exceeds the optimistic one.
    assert advantage[-1] > advantage[0]
    # Hybrid still saves energy even at the worst point.
    worst = results[TECH_POINTS[-1][0]]
    assert (
        worst["panthera"].energy_j < worst["dram-only"].energy_j
    )
