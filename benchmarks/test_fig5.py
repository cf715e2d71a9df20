"""Figure 5: computation vs GC time breakdown, 64 GB heap.

Paper rows (seconds, DRAM-only / Panthera / unmanaged):
  PR:   comp 786/787/913,  GC 174/279/284
  KM:   comp 792/819/798,  GC 220/106/361
  LR:   comp 550/511/527,  GC 293/324/445
  TC:   comp 207/226/253,  GC  72/119/130
  CC:   comp 283/303/294,  GC 115/ 77/177
  SSSP: comp 339/382/363,  GC 120/ 84/163
  BC:   comp 216/230/222,  GC 102/113/176
Shape: unmanaged GC is ~1.6x DRAM-only while its computation grows only
a few percent; Panthera's GC is near (sometimes below) DRAM-only.
"""

from repro.harness.configs import fig4_configs
from repro.harness.report import normalize_results

from benchmarks.conftest import (
    ALL_WORKLOADS,
    BENCH_SCALE,
    print_and_report,
    run_grid,
)

PAPER_GC = {  # workload -> (dram-only, panthera, unmanaged) GC seconds
    "PR": (174, 279, 284),
    "KM": (220, 106, 361),
    "LR": (293, 324, 445),
    "TC": (72, 119, 130),
    "CC": (115, 77, 177),
    "SSSP": (120, 84, 163),
    "BC": (102, 113, 176),
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


def test_fig5_gc_breakdown(benchmark):
    all_results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = [
        "| program | config | computation (s) | GC (s) | GC share "
        "| paper GC ratio vs DRAM-only | measured GC ratio |",
        "|---|---|---|---|---|---|---|",
    ]
    order = ["dram-only", "panthera", "unmanaged"]
    for workload in ALL_WORKLOADS:
        results = all_results[workload]
        normalized = normalize_results(results, "dram-only")
        for idx, key in enumerate(order):
            r = results[key]
            paper_ratio = PAPER_GC[workload][idx] / PAPER_GC[workload][0]
            measured_ratio = normalized[key]["gc"]
            lines.append(
                f"| {workload} | {key} | {r.mutator_s:.1f} | {r.gc_s:.1f} "
                f"| {100 * r.gc_s / r.elapsed_s:.1f}% "
                f"| {paper_ratio:.2f} | {measured_ratio:.2f} |"
            )
    print_and_report("fig5", "Figure 5: computation vs GC time", lines)

    for workload in ALL_WORKLOADS:
        results = all_results[workload]
        # GC is a real share of the run for the GC-pressured workloads.
        if workload != "TC":
            assert results["dram-only"].gc_s / results["dram-only"].elapsed_s > 0.05
            # The unmanaged GC penalty dominates its computation penalty (§5.3).
            gc_overhead = results["unmanaged"].gc_s / results["dram-only"].gc_s
            comp_overhead = (
                results["unmanaged"].mutator_s / results["dram-only"].mutator_s
            )
            assert gc_overhead > comp_overhead, workload
        assert results["panthera"].gc_s <= results["unmanaged"].gc_s, workload
