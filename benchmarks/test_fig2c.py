"""Figure 2(c): PageRank on 32 GB DRAM vs 32+88 GB hybrid (unmanaged and
Panthera), normalised to 120 GB DRAM-only.

Paper series (time / energy, normalised to 120 GB DRAM):
  32 GB DRAM-only:      1.42 / 0.55
  hybrid, unmanaged:    1.23 / 0.81
  hybrid, Panthera:     1.00 / 0.60
Shape: the small-DRAM machine is slowest but cheapest in energy; adding
NVM unmanaged helps time but wastes energy; Panthera restores 120 GB-DRAM
performance at near-32 GB energy.
"""

from repro.harness.configs import fig2c_configs
from repro.harness.report import normalize_results

from benchmarks.conftest import BENCH_SCALE, print_and_report, run_grid

PAPER = {
    "120gb-dram": (1.00, 1.00),
    "32gb-dram": (1.42, 0.55),
    "hybrid-unmanaged": (1.23, 0.81),
    "hybrid-panthera": (1.00, 0.60),
}


def _run_grid():
    return run_grid(
        {key: ("PR", cfg) for key, cfg in fig2c_configs(BENCH_SCALE).items()}
    )


def test_fig2c_pagerank_motivating_example(benchmark):
    results = benchmark.pedantic(_run_grid, rounds=1, iterations=1)
    normalized = normalize_results(results, "120gb-dram")
    lines = [
        "| configuration | time (measured) | time (paper) | energy (measured) | energy (paper) |",
        "|---|---|---|---|---|",
    ]
    for key, (paper_t, paper_e) in PAPER.items():
        row = normalized[key]
        lines.append(
            f"| {key} | {row['time']:.2f} | {paper_t:.2f} "
            f"| {row['energy']:.2f} | {paper_e:.2f} |"
        )
    print_and_report("fig2c", "Figure 2(c): PageRank over hybrid memory", lines)

    # Shape assertions: the orderings that are robust in the simulator.
    # (The 32 GB machine's *large* time penalty — 1.42x in the paper —
    # is under-reproduced: our block manager spills/evicts too gracefully
    # compared with real Spark's thrash; see EXPERIMENTS.md.)
    assert normalized["32gb-dram"]["time"] >= 0.98  # never meaningfully faster
    assert (
        normalized["hybrid-panthera"]["time"]
        <= normalized["hybrid-unmanaged"]["time"]
    )
    assert normalized["hybrid-panthera"]["time"] <= normalized["32gb-dram"]["time"]
    assert normalized["hybrid-unmanaged"]["time"] > 1.02  # unmanaged pays time
    assert normalized["32gb-dram"]["energy"] < 0.7  # least memory = least energy
    assert (
        normalized["32gb-dram"]["energy"]
        < normalized["hybrid-panthera"]["energy"]
        < 1.0
    )
