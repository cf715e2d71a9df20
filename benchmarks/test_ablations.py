"""Section 5.3's ablations and the Write Rationing comparison (§5.2).

Paper claims reproduced here:
  * Card padding: "without this optimization, the GC time increases by
    60%" — disabling padding must raise Panthera's GC time substantially.
  * Eager promotion "contributes an average of 9% of the total GC
    performance improvement" — a smaller but positive effect.
  * Write Rationing (Kingsguard) "incurred an average of 41% performance
    overhead" — both KN and KW are far worse than Panthera on Spark.
  * Disabling dynamic monitoring/migration barely changes performance
    ("the performance difference was not noticeable", §5.5), since most
    of Panthera's benefit stems from pretenuring.
"""

import statistics

from repro.config import PolicyName
from repro.harness.configs import paper_config, write_rationing_configs
from repro.harness.report import normalize_results

from benchmarks.conftest import BENCH_SCALE, print_and_report, run_grid

ABLATION_WORKLOADS = ("PR", "KM", "CC")


def _regroup(flat, workloads):
    """Regroup a flat {(workload, key): result} grid into nested rows."""
    out = {workload: {} for workload in workloads}
    for (workload, key), result in flat.items():
        out[workload][key] = result
    return out


def _run_ablations():
    base = paper_config(64, 1 / 3, PolicyName.PANTHERA, BENCH_SCALE)
    variants = {
        "panthera": base,
        "no-card-padding": base.replace(card_padding=False),
        "no-eager-promotion": base.replace(eager_promotion=False),
        "no-dynamic-migration": base.replace(dynamic_migration=False),
    }
    flat = run_grid(
        {
            (workload, key): (workload, cfg)
            for workload in ABLATION_WORKLOADS
            for key, cfg in variants.items()
        }
    )
    return _regroup(flat, ABLATION_WORKLOADS)


def test_panthera_feature_ablations(benchmark):
    results = benchmark.pedantic(_run_ablations, rounds=1, iterations=1)
    lines = [
        "| program | variant | time (s) | GC (s) | GC vs full Panthera |",
        "|---|---|---|---|---|",
    ]
    padding_ratios, eager_ratios, migration_ratios = [], [], []
    for workload in ABLATION_WORKLOADS:
        rows = results[workload]
        normalized = normalize_results(rows, "panthera")
        for key, r in rows.items():
            lines.append(
                f"| {workload} | {key} | {r.elapsed_s:.1f} | {r.gc_s:.1f} "
                f"| {normalized[key]['gc']:.2f} |"
            )
        padding_ratios.append(normalized["no-card-padding"]["gc"])
        eager_ratios.append(normalized["no-eager-promotion"]["gc"])
        migration_ratios.append(normalized["no-dynamic-migration"]["time"])
    lines.append("")
    lines.append(
        f"GC time without card padding: {statistics.mean(padding_ratios):.2f}x "
        "(paper: +60%)"
    )
    lines.append(
        f"GC time without eager promotion: {statistics.mean(eager_ratios):.2f}x "
        "(paper: eager promotion ~9% of the GC improvement)"
    )
    lines.append(
        f"time without dynamic migration: {statistics.mean(migration_ratios):.3f}x "
        "(paper: not noticeable)"
    )
    print_and_report("ablations", "§5.3/§5.5 ablations", lines)

    # Card padding is the dominant optimisation.
    assert statistics.mean(padding_ratios) > 1.3
    # Eager promotion helps, by less than padding.
    assert 0.95 <= statistics.mean(eager_ratios) <= statistics.mean(padding_ratios)
    # Dynamic migration is about generality, not raw speed.
    assert 0.9 <= statistics.mean(migration_ratios) <= 1.1


def _run_write_rationing():
    configs = write_rationing_configs(BENCH_SCALE)
    flat = run_grid(
        {
            (workload, key): (workload, cfg)
            for workload in ("PR", "KM")
            for key, cfg in configs.items()
        }
    )
    return _regroup(flat, ("PR", "KM"))


def test_write_rationing_baselines(benchmark):
    results = benchmark.pedantic(_run_write_rationing, rounds=1, iterations=1)
    lines = [
        "| program | config | time vs DRAM-only | GC vs DRAM-only |",
        "|---|---|---|---|",
    ]
    for workload, rows in results.items():
        for key, ratios in normalize_results(rows, "dram-only").items():
            lines.append(
                f"| {workload} | {key} | {ratios['time']:.2f} "
                f"| {ratios['gc']:.2f} |"
            )
    lines.append("")
    lines.append(
        "paper: Kingsguard-Writes averaged a 41% overhead on these "
        "workloads; Panthera 1-4%."
    )
    print_and_report("write_rationing", "§5.2 Write Rationing comparison", lines)

    for workload, rows in results.items():
        base = rows["dram-only"].elapsed_s
        # Kingsguard places all persisted RDDs in NVM: large overheads.
        assert rows["kingsguard-nursery"].elapsed_s > base * 1.08, workload
        assert rows["kingsguard-writes"].elapsed_s > base * 1.05, workload
        # Panthera beats both Write Rationing variants.
        assert rows["panthera"].elapsed_s < rows["kingsguard-nursery"].elapsed_s
        assert rows["panthera"].elapsed_s < rows["kingsguard-writes"].elapsed_s
