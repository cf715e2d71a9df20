"""§5.2's nursery-size experiment.

"We have experimented with several different sizes (1/4, 1/5, 1/6, and
1/7 of the heap size) for the nursery space. The performance differences
between the 1/4, 1/5, and 1/6 configurations were marginal ... while the
configuration of 1/7 led to worse performance. We ended up using 1/6."

A smaller nursery means more frequent scavenges (and less DRAM left for
the old generation under Panthera); a larger one steals DRAM from the
old generation's hot data. The sweep below reproduces the flat 1/4-1/6
region with degradation at 1/7.
"""

from repro.config import PolicyName
from repro.harness.configs import paper_config
from repro.harness.report import normalize_results

from benchmarks.conftest import BENCH_SCALE, print_and_report, run_grid

FRACTIONS = [1 / 4, 1 / 5, 1 / 6, 1 / 7]


def _run_sweep():
    return run_grid(
        {
            fraction: (
                "PR",
                paper_config(
                    64,
                    1 / 3,
                    PolicyName.PANTHERA,
                    BENCH_SCALE,
                    nursery_fraction=fraction,
                ),
            )
            for fraction in FRACTIONS
        }
    )


def test_nursery_fraction_sweep(benchmark):
    results = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    normalized = normalize_results(results, 1 / 6)
    lines = [
        "| nursery fraction | time (s) | vs 1/6 | GC (s) | minor GCs |",
        "|---|---|---|---|---|",
    ]
    for fraction in FRACTIONS:
        r = results[fraction]
        lines.append(
            f"| 1/{round(1 / fraction)} | {r.elapsed_s:.1f} "
            f"| {normalized[fraction]['time']:.3f} | {r.gc_s:.1f} "
            f"| {r.minor_gcs} |"
        )
    lines.append("")
    lines.append(
        "paper: 1/4, 1/5, 1/6 marginal differences; 1/7 worse; 1/6 chosen "
        "to leave more DRAM for the old generation."
    )
    print_and_report("nursery_sweep", "§5.2 nursery-size sweep", lines)

    # Smaller nurseries scavenge more often.
    assert results[1 / 7].minor_gcs > results[1 / 4].minor_gcs
    # The 1/4-1/6 plateau is flat (within a few percent).
    plateau = [results[f].elapsed_s for f in (1 / 4, 1 / 5, 1 / 6)]
    assert max(plateau) / min(plateau) < 1.08
    # 1/7 is no better than the chosen 1/6.
    assert results[1 / 7].elapsed_s >= results[1 / 6].elapsed_s * 0.99
