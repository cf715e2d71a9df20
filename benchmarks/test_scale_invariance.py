"""Scale-invariance validation.

DESIGN.md claims the *normalised* results (every figure's unit) are
invariant under joint heap + dataset scaling — that is what justifies
running the paper's 64/120 GB experiments at laptop scale.  This
benchmark runs Figure 4's PageRank comparison at two different scales
and checks the normalised time/energy ratios agree.
"""

from repro.harness.configs import fig4_configs
from repro.harness.experiment import run_experiment
from repro.harness.report import normalize_results

from benchmarks.conftest import print_and_report

SCALES = (0.05, 0.15)


def _run(scale):
    return {
        key: run_experiment("PR", cfg, scale=scale)
        for key, cfg in fig4_configs(scale).items()
    }


def _normalized(results):
    return {
        key: (ratios["time"], ratios["energy"])
        for key, ratios in normalize_results(results, "dram-only").items()
    }


def test_normalized_shapes_scale_invariant(benchmark):
    per_scale = benchmark.pedantic(
        lambda: {scale: _normalized(_run(scale)) for scale in SCALES},
        rounds=1,
        iterations=1,
    )
    lines = [
        "| scale | unmanaged time | panthera time | unmanaged energy | panthera energy |",
        "|---|---|---|---|---|",
    ]
    for scale, rows in per_scale.items():
        lines.append(
            f"| {scale} | {rows['unmanaged'][0]:.3f} | {rows['panthera'][0]:.3f} "
            f"| {rows['unmanaged'][1]:.3f} | {rows['panthera'][1]:.3f} |"
        )
    print_and_report(
        "scale_invariance", "Scale invariance of normalised results", lines
    )

    small, large = (per_scale[s] for s in SCALES)
    for key in ("unmanaged", "panthera"):
        # Time ratios agree within 6 %, energy within 10 %.
        assert abs(small[key][0] - large[key][0]) < 0.06, key
        assert abs(small[key][1] - large[key][1]) < 0.10, key
