"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro run PR --policy panthera --heap 64 --ratio 0.333 --scale 0.1
    python -m repro compare KM --scale 0.1
    python -m repro analyze PR
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import PolicyName
from repro.core.static_analysis import analyze_program
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.harness.report import format_markdown_table, normalize_results, summarize
from repro.spark.storage import StorageLevel
from repro.workloads.registry import WORKLOADS, build_workload

_POLICY_CHOICES = {p.value: p for p in PolicyName}


def _positive_int(text: str) -> int:
    """argparse type for --jobs: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", help="PR, KM, LR, TC, CC, SSSP or BC")
    parser.add_argument("--heap", type=float, default=64.0, help="heap size in GB")
    parser.add_argument(
        "--ratio", type=float, default=1 / 3, help="DRAM share of physical memory"
    )
    parser.add_argument(
        "--scale", type=float, default=0.1, help="joint data/heap scale factor"
    )
    parser.add_argument(
        "--iterations", type=int, default=None, help="override workload iterations"
    )
    parser.add_argument(
        "--persist",
        choices=sorted(level.value for level in StorageLevel),
        default=None,
        metavar="LEVEL",
        help="override the workload's main persist level (PR and KM; "
        "e.g. MEMORY_ONLY_SER routes to the serialized off-heap tier)",
    )


def _workload_kwargs(args) -> dict:
    kwargs = {}
    if args.iterations:
        kwargs["iterations"] = args.iterations
    if getattr(args, "persist", None):
        kwargs["persist_level"] = StorageLevel(args.persist)
    return kwargs


def _print_trace_report(result, top_n: int = 10) -> None:
    """Render one result's recorded trace (timeline + residency table)."""
    from repro.trace import render_trace_report

    print(
        render_trace_report(
            result.trace_events or [], end_ns=result.elapsed_s * 1e9, top_n=top_n
        )
    )


def cmd_run(args) -> int:
    """``repro run``: one workload under one configuration."""
    policy = _POLICY_CHOICES[args.policy]
    config = paper_config(args.heap, args.ratio, policy, args.scale)
    keep = bool(args.gclog or args.export_bandwidth or args.verify)
    result = run_experiment(
        args.workload,
        config,
        scale=args.scale,
        workload_kwargs=_workload_kwargs(args),
        keep_context=keep,
    )
    print(summarize(result))
    print(f"  mutator: {result.mutator_s:.1f}s  GC: {result.gc_s:.1f}s "
          f"({result.minor_gcs} minor / {result.major_gcs} major)")
    for device, parts in result.energy_by_device.items():
        print(f"  {device} energy: static {parts['static_j']:.1f} J, "
              f"dynamic {parts['dynamic_j']:.1f} J")
    if result.analysis is not None:
        print("  static tags: " + ", ".join(
            f"{var}={tag.value if tag else 'untagged'}"
            for var, tag in result.analysis.tags.items()
        ))
    print(f"  migrated RDDs: {result.migrated_rdds}, "
          f"monitored calls: {result.monitored_calls}")
    if args.gclog:
        from repro.gc.gclog import render_log

        for line in render_log(
            result.context.collector.stats, result.elapsed_s, tail=args.gclog
        ):
            print("  " + line)
    if args.export_json:
        from repro.harness.export import results_to_json

        with open(args.export_json, "w") as fh:
            fh.write(results_to_json({args.workload: result}))
        print(f"  wrote {args.export_json}")
    if args.export_bandwidth:
        from repro.harness.export import bandwidth_series_to_csv

        with open(args.export_bandwidth, "w") as fh:
            fh.write(bandwidth_series_to_csv(result))
        print(f"  wrote {args.export_bandwidth}")
    if args.verify:
        from repro.heap.verify import verify_heap

        problems = verify_heap(result.context.heap)
        print(
            "  heap verification: "
            + ("consistent" if not problems else "; ".join(problems))
        )
        return 1 if problems else 0
    return 0


def cmd_compare(args) -> int:
    """``repro compare``: selected policies side by side."""
    from repro.harness.engine import ExperimentEngine, ExperimentPoint

    names = getattr(args, "policies", None) or [
        "dram-only",
        "unmanaged",
        "panthera",
    ]
    policies = {name: _POLICY_CHOICES[name] for name in names}
    baseline = names[0]
    engine = ExperimentEngine(jobs=getattr(args, "jobs", 1))
    points = [
        ExperimentPoint(
            args.workload,
            paper_config(args.heap, args.ratio, policy, args.scale),
            args.scale,
            workload_kwargs=_workload_kwargs(args),
            trace=bool(getattr(args, "trace", False)),
        )
        for policy in policies.values()
    ]
    results = dict(zip(policies.keys(), engine.run(points)))
    for result in results.values():
        print(summarize(result))
    normalized = normalize_results(results, baseline)
    rows = [
        [name, values["time"], values["energy"]]
        for name, values in normalized.items()
    ]
    print()
    print(
        format_markdown_table(
            ["configuration", "time (norm.)", "energy (norm.)"], rows
        )
    )
    if getattr(args, "trace", False):
        for name, result in results.items():
            print()
            print(f"### trace: {args.workload} [{name}]")
            _print_trace_report(result)
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: record, check and render one run's heap trace."""
    from repro.trace import oracle_check, write_events_jsonl

    policy = _POLICY_CHOICES[args.policy]
    config = paper_config(args.heap, args.ratio, policy, args.scale)
    result = run_experiment(
        args.workload,
        config,
        scale=args.scale,
        workload_kwargs=_workload_kwargs(args),
        keep_context=True,
        trace=True,
    )
    events = result.trace_events or []
    print(summarize(result))
    print()
    _print_trace_report(result, top_n=args.top)
    if args.export_jsonl:
        write_events_jsonl(events, args.export_jsonl)
        print(f"  wrote {args.export_jsonl} ({len(events)} events)")
    if args.check:
        problems = oracle_check(
            result.context.heap, result.context.collector.stats, events
        )
        print(
            "  replay oracle: "
            + ("consistent" if not problems else "; ".join(problems))
        )
        return 1 if problems else 0
    return 0


def _parse_kill(text: str):
    """argparse type for --kill: ``KIND:BOUNDARY[:PARTITION]``."""
    from repro.errors import FaultError
    from repro.faults import KILL_KINDS, KillSpec

    parts = text.split(":")
    if len(parts) not in (2, 3) or parts[0] not in KILL_KINDS:
        raise argparse.ArgumentTypeError(
            f"expected KIND:BOUNDARY[:PARTITION] with KIND in {KILL_KINDS}"
        )
    try:
        boundary = int(parts[1])
        partition = int(parts[2]) if len(parts) == 3 else 0
        return KillSpec(parts[0], boundary, partition)
    except (ValueError, FaultError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_throttle(text: str):
    """argparse type for --throttle: ``START_S:DURATION_S:FACTOR``."""
    from repro.errors import FaultError
    from repro.faults import ThrottleSpec

    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected START_S:DURATION_S:FACTOR")
    try:
        start_s, duration_s, factor = (float(p) for p in parts)
        return ThrottleSpec(start_s * 1e9, duration_s * 1e9, factor)
    except (ValueError, FaultError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_executor_kill(text: str):
    """argparse type for --kill-executor: ``EXECUTOR:BOUNDARY[:JOB]``."""
    from repro.cluster import ExecutorKill
    from repro.errors import FaultError

    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError("expected EXECUTOR:BOUNDARY[:JOB]")
    try:
        return ExecutorKill(
            executor=int(parts[0]),
            at_boundary=int(parts[1]),
            job_id=int(parts[2]) if len(parts) == 3 else None,
        )
    except (ValueError, FaultError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def cmd_cluster(args) -> int:
    """``repro cluster``: replay seeded traffic on a simulated cluster.

    Generates a traffic plan from the seed and knobs, replays it across
    N executors (optionally under a cluster fault plan), and prints the
    throughput / latency / per-tenant utilisation report.
    """
    import json as _json

    from repro.cluster import Cluster, ClusterFaultPlan, generate_traffic

    policy = _POLICY_CHOICES[args.policy]
    plan = generate_traffic(
        seed=args.seed,
        duration_s=args.duration,
        rate_jobs_per_s=args.rate,
        workloads=args.workloads,
        process=args.process,
        tenants=args.tenants,
        base_scale=args.scale,
        diurnal_period_s=args.diurnal_period,
        diurnal_amplitude=args.diurnal_amplitude,
        iterations=args.iterations,
        max_jobs=args.max_jobs,
    )
    if plan.is_empty:
        print("traffic plan is empty; raise --rate or --duration")
        return 2
    print(f"traffic: {plan.describe()}")
    if args.random_kills:
        faults = ClusterFaultPlan.random(
            args.seed,
            executors=args.executors,
            max_boundary=args.max_kill_boundary,
            kills=args.random_kills,
            jobs=len(plan.jobs),
            max_recovery_attempts=args.attempts,
        )
    else:
        faults = ClusterFaultPlan(
            kills=list(args.kill_executor or []),
            max_recovery_attempts=args.attempts,
            seed=args.seed,
        )
    for kill in faults.kills:
        scope = f"job {kill.job_id}" if kill.job_id is not None else "every job"
        print(f"  plan: kill executor {kill.executor} at boundary "
              f"{kill.at_boundary} ({scope})")
    cluster = Cluster(
        args.executors,
        heap_gb=args.heap,
        dram_ratio=args.ratio,
        policy=policy,
    )
    report, _ = cluster.run(plan, faults=faults, jobs=args.jobs)
    for line in report.summary_lines():
        print(line)
    if args.export_json:
        with open(args.export_json, "w") as fh:
            fh.write(report.to_json(indent=2))
            fh.write("\n")
        print(f"  wrote {args.export_json}")
    return 0


def cmd_faults(args) -> int:
    """``repro faults``: inject a fault plan and check convergence.

    Runs the workload twice through one engine — once fault-free, once
    under the plan — and verifies the faulted run's action checksums
    match the clean run's (lineage recovery converged).  Prints the
    measured :class:`~repro.faults.report.FaultReport`.
    """
    import dataclasses
    import json as _json

    from repro.faults import FaultPlan, action_checksums
    from repro.harness.engine import ExperimentEngine, ExperimentPoint

    policy = _POLICY_CHOICES[args.policy]
    config = paper_config(args.heap, args.ratio, policy, args.scale)
    engine = ExperimentEngine(jobs=args.jobs, cache_dir=args.cache_dir)

    def point(plan):
        return ExperimentPoint(
            args.workload,
            config,
            args.scale,
            workload_kwargs=_workload_kwargs(args),
            trace=bool(args.trace),
            faults=plan,
        )

    # Fault-free reference run.  It carries an *empty* plan so the
    # injector counts stage boundaries for us (needed to place random
    # kills) without perturbing anything.
    baseline = engine.run([point(FaultPlan(seed=args.seed))])[0]
    boundaries = baseline.fault_report.boundaries_seen
    print(f"baseline: {summarize(baseline)}")
    print(f"  stage boundaries: {boundaries}")

    if args.random:
        plan = FaultPlan.random(
            args.seed,
            max_boundary=boundaries,
            kills=args.random,
            max_recovery_attempts=args.attempts,
        )
        plan = dataclasses.replace(
            plan,
            throttles=list(args.throttle or []),
            nvm_balloon_fraction=args.balloon,
        )
    else:
        plan = FaultPlan(
            kills=list(args.kill or []),
            throttles=list(args.throttle or []),
            nvm_balloon_fraction=args.balloon,
            max_recovery_attempts=args.attempts,
            seed=args.seed,
        )
    if plan.is_empty:
        print("fault plan is empty; nothing to inject "
              "(use --kill / --throttle / --balloon / --random)")
        return 2
    for kill in plan.kills:
        print(f"  plan: kill {kill.kind} at boundary {kill.at_boundary} "
              f"(partition {kill.partition})")
    for window in plan.throttles:
        print(f"  plan: throttle NVM x{window.factor:g} from "
              f"{window.start_ns / 1e9:.2f}s for "
              f"{window.duration_ns / 1e9:.2f}s")
    if plan.nvm_balloon_fraction:
        print(f"  plan: balloon {plan.nvm_balloon_fraction:.0%} of free NVM")

    faulted = engine.run([point(plan)])[0]
    print(f"faulted:  {summarize(faulted)}")
    report = faulted.fault_report
    for line in report.summary_lines():
        print("  " + line)

    clean_sums = action_checksums(baseline.action_results)
    fault_sums = action_checksums(faulted.action_results)
    diverged = sorted(
        name
        for name in set(clean_sums) | set(fault_sums)
        if clean_sums.get(name) != fault_sums.get(name)
    )
    if diverged:
        print(f"  DIVERGED actions: {', '.join(diverged)}")
    else:
        print(f"  converged: all {len(clean_sums)} action checksums match "
              "the fault-free run")
    if args.trace:
        print()
        _print_trace_report(faulted)
    if args.export_report:
        payload = {
            "workload": args.workload,
            "policy": args.policy,
            "scale": args.scale,
            "plan": plan.to_dict(),
            "report": report.to_dict(),
            "converged": not diverged,
            "diverged_actions": diverged,
            "checksums": fault_sums,
        }
        with open(args.export_report, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"  wrote {args.export_report}")
    return 1 if diverged else 0


def cmd_analyze(args) -> int:
    """``repro analyze``: show the §3 static analysis for a workload."""
    spec = build_workload(args.workload, scale=args.scale, **_workload_kwargs(args))
    analysis = analyze_program(spec.program)
    print(f"{spec.name}: {spec.description}")
    for var, tag in analysis.tags.items():
        label = tag.value.upper() if tag else "untagged"
        placement = analysis.placement_of(var).value
        print(
            f"  {var:12s} -> {label:8s} [{placement}] "
            f"{analysis.rationale[var]}"
        )
    if analysis.flipped:
        print("  (all persisted RDDs were NVM: every tag flipped to DRAM)")
    if analysis.ser_candidates:
        names = ", ".join(sorted(analysis.ser_candidates))
        print(f"  serialization candidates (NVM-tagged persists): {names}")
    if getattr(args, "lifetimes", False):
        from repro.core.static_analysis import classify_lifetimes

        lifetime = classify_lifetimes(spec.program)
        print("  Deca lifetime classes:")
        for var, cls in lifetime.classes.items():
            print(
                f"  {var:12s} -> {cls.value:13s} {lifetime.rationale[var]}"
            )
    return 0


def cmd_matrix(args) -> int:
    """``repro matrix``: the full workload x policy matrix."""
    from repro.harness.matrix import matrix_report, run_matrix

    def on_event(event):
        tick = f"[{event.completed}/{event.total}]"
        if event.kind == "start":
            print(f"  {tick} running {event.point.label} ...", flush=True)
        elif event.kind == "cached":
            print(f"  {tick} cached  {event.point.label}", flush=True)
        else:
            print(
                f"  {tick} done    {event.point.label} "
                f"({event.seconds:.1f}s)",
                flush=True,
            )

    from repro.harness.matrix import DEFAULT_POLICIES

    policies = (
        tuple(_POLICY_CHOICES[name] for name in args.policies)
        if getattr(args, "policies", None)
        else DEFAULT_POLICIES
    )
    matrix = run_matrix(
        scale=args.scale,
        heap_gb=args.heap,
        dram_ratio=args.ratio,
        workloads=args.workloads,
        policies=policies,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        on_event=on_event,
        trace=args.trace,
    )
    print()
    print(matrix_report(matrix, baseline=policies[0].value))
    if args.trace:
        for workload, results in matrix.items():
            for policy, result in results.items():
                print()
                print(f"### trace: {workload} [{policy}]")
                _print_trace_report(result)
    if args.export_json:
        from repro.harness.export import matrix_to_json

        with open(args.export_json, "w") as fh:
            fh.write(matrix_to_json(matrix))
        print(f"  wrote {args.export_json}")
    return 0


def cmd_bench(args) -> int:
    """``repro bench``: run the benchmark suite, write ``BENCH_<date>.json``."""
    from repro import bench

    mode = "quick" if args.quick else "full"
    if args.scale_sweep:
        mode += " + scale-sweep"
    if args.profile:
        mode += " + profile"
    print(f"running the {mode} benchmark suite ...")
    document = bench.run_bench_suite(
        quick=args.quick,
        rounds=args.rounds,
        log=print,
        scale_sweep=args.scale_sweep,
        profile=args.profile,
    )
    path = args.out or bench.default_output_path()
    bench.write_bench_report(document, path)
    print(f"  peak RSS: {document['peak_rss_kb']} KiB")
    print(f"  wrote {path}")
    if args.profile:
        import os as _os

        profile_dir = args.profile_dir
        _os.makedirs(profile_dir, exist_ok=True)
        for suite, report in document.get("profiles", {}).items():
            profile_path = _os.path.join(profile_dir, f"{suite}.txt")
            with open(profile_path, "w") as fh:
                fh.write(report)
            print(f"  wrote {profile_path}")
    non_linear = [
        r["name"]
        for r in document["benchmarks"]
        if r.get("kind") == "sweep_summary" and not r.get("linear", True)
    ]
    if non_linear:
        print(f"  NON-LINEAR scale sweep: {', '.join(non_linear)}")
        return 1
    return 0


def cmd_list(_args) -> int:
    """``repro list``: the Table 4 workloads."""
    for name in sorted(WORKLOADS):
        spec = build_workload(name, scale=0.02)
        print(f"  {name:5s} {spec.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Panthera (PLDI 2019) reproduction: run simulated "
        "hybrid-memory experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one workload/configuration")
    _add_common(run_parser)
    run_parser.add_argument(
        "--policy",
        choices=sorted(_POLICY_CHOICES),
        default="panthera",
        help="placement policy",
    )
    run_parser.add_argument(
        "--gclog",
        type=int,
        default=0,
        metavar="N",
        help="print the last N GC log lines",
    )
    run_parser.add_argument(
        "--export-json", metavar="PATH", help="write the result as JSON"
    )
    run_parser.add_argument(
        "--export-bandwidth",
        metavar="PATH",
        help="write the Figure 8 bandwidth series as CSV",
    )
    run_parser.add_argument(
        "--verify",
        action="store_true",
        help="verify heap invariants after the run",
    )
    run_parser.set_defaults(fn=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="run DRAM-only / unmanaged / Panthera side by side"
    )
    _add_common(compare_parser)
    compare_parser.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(_POLICY_CHOICES),
        default=None,
        metavar="POLICY",
        help="policies to compare, first is the normalisation baseline "
        "(default: dram-only unmanaged panthera; e.g. "
        "--policies panthera deca for the rival-policy ablation)",
    )
    compare_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (results identical to serial)",
    )
    compare_parser.add_argument(
        "--trace",
        action="store_true",
        help="record heap traces and print a report per policy",
    )
    compare_parser.set_defaults(fn=cmd_compare)

    trace_parser = sub.add_parser(
        "trace", help="record and render one run's heap event trace"
    )
    _add_common(trace_parser)
    trace_parser.add_argument(
        "--policy",
        choices=sorted(_POLICY_CHOICES),
        default="panthera",
        help="placement policy",
    )
    trace_parser.add_argument(
        "--top",
        type=_positive_int,
        default=10,
        metavar="N",
        help="RDD rows in the residency table",
    )
    trace_parser.add_argument(
        "--export-jsonl",
        metavar="PATH",
        help="write the raw event stream as JSON lines",
    )
    trace_parser.add_argument(
        "--check",
        action="store_true",
        help="run the trace-replay oracle against the final heap state",
    )
    trace_parser.set_defaults(fn=cmd_trace)

    faults_parser = sub.add_parser(
        "faults",
        help="inject faults, check lineage recovery converges, "
        "report the cost",
    )
    _add_common(faults_parser)
    faults_parser.add_argument(
        "--policy",
        choices=sorted(_POLICY_CHOICES),
        default="panthera",
        help="placement policy",
    )
    faults_parser.add_argument(
        "--kill",
        type=_parse_kill,
        action="append",
        metavar="KIND:BOUNDARY[:PARTITION]",
        help="kill at a stage boundary (KIND: shuffle or block); repeatable",
    )
    faults_parser.add_argument(
        "--throttle",
        type=_parse_throttle,
        action="append",
        metavar="START_S:DURATION_S:FACTOR",
        help="NVM bandwidth-throttle window on the simulated clock; "
        "repeatable",
    )
    faults_parser.add_argument(
        "--balloon",
        type=float,
        default=0.0,
        metavar="FRACTION",
        help="pre-fill this fraction of free NVM old space (degradation "
        "ladder: NVM->DRAM fallback, spill, abort)",
    )
    faults_parser.add_argument(
        "--random",
        type=_positive_int,
        default=0,
        metavar="N",
        help="generate N seeded random kills instead of --kill specs",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=0, help="seed for --random plans"
    )
    faults_parser.add_argument(
        "--attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="bounded recovery attempts per lost partition",
    )
    faults_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (results identical to serial)",
    )
    faults_parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache",
    )
    faults_parser.add_argument(
        "--trace",
        action="store_true",
        help="record the faulted run's heap trace and print a report",
    )
    faults_parser.add_argument(
        "--export-report",
        metavar="PATH",
        help="write plan + FaultReport + checksums as JSON",
    )
    faults_parser.set_defaults(fn=cmd_faults)

    cluster_parser = sub.add_parser(
        "cluster",
        help="replay seeded traffic on a multi-executor cluster simulator",
    )
    cluster_parser.add_argument(
        "--executors",
        type=_positive_int,
        default=4,
        metavar="N",
        help="cluster size (each executor is a full hybrid-memory node)",
    )
    cluster_parser.add_argument(
        "--seed", type=int, default=0, help="traffic (and fault) plan seed"
    )
    cluster_parser.add_argument(
        "--duration",
        type=float,
        default=60.0,
        metavar="S",
        help="arrival horizon in simulated seconds",
    )
    cluster_parser.add_argument(
        "--rate",
        type=float,
        default=0.2,
        metavar="JOBS_PER_S",
        help="mean arrival rate",
    )
    cluster_parser.add_argument(
        "--process",
        choices=("poisson", "diurnal"),
        default="poisson",
        help="arrival process",
    )
    cluster_parser.add_argument(
        "--diurnal-period",
        type=float,
        default=None,
        metavar="S",
        help="diurnal sinusoid period (default: the horizon)",
    )
    cluster_parser.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.8,
        metavar="FRAC",
        help="relative swing of the diurnal rate, in [0, 1)",
    )
    cluster_parser.add_argument(
        "--tenants",
        type=_positive_int,
        default=4,
        metavar="N",
        help="tenant count (skewed submission shares and data scales)",
    )
    cluster_parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="workload mix (default: all of PR KM LR TC CC SSSP BC)",
    )
    cluster_parser.add_argument(
        "--scale",
        type=float,
        default=0.02,
        metavar="FRAC",
        help="base data scale before per-tenant multipliers",
    )
    cluster_parser.add_argument(
        "--iterations", type=int, default=None, help="override workload iterations"
    )
    cluster_parser.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cap on generated jobs",
    )
    cluster_parser.add_argument(
        "--heap", type=float, default=64.0, help="per-executor heap GB"
    )
    cluster_parser.add_argument(
        "--ratio", type=float, default=1 / 3, help="DRAM share of physical memory"
    )
    cluster_parser.add_argument(
        "--policy",
        choices=sorted(_POLICY_CHOICES),
        default="panthera",
        help="placement policy",
    )
    cluster_parser.add_argument(
        "--kill-executor",
        type=_parse_executor_kill,
        action="append",
        metavar="EXECUTOR:BOUNDARY[:JOB]",
        help="kill an executor at a per-job stage boundary; repeatable",
    )
    cluster_parser.add_argument(
        "--random-kills",
        type=_positive_int,
        default=0,
        metavar="N",
        help="generate N seeded random executor kills instead",
    )
    cluster_parser.add_argument(
        "--max-kill-boundary",
        type=_positive_int,
        default=6,
        metavar="N",
        help="random kills fire at boundaries in [1, N]",
    )
    cluster_parser.add_argument(
        "--attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="bounded recovery attempts per lost partition",
    )
    cluster_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes for the lane fan-out "
        "(report identical to serial)",
    )
    cluster_parser.add_argument(
        "--export-json", metavar="PATH", help="write the full report as JSON"
    )
    cluster_parser.set_defaults(fn=cmd_cluster)

    analyze_parser = sub.add_parser(
        "analyze", help="show the §3 static analysis for a workload"
    )
    _add_common(analyze_parser)
    analyze_parser.add_argument(
        "--lifetimes",
        action="store_true",
        help="also show the Deca lifetime classification (arXiv 1602.01959)",
    )
    analyze_parser.set_defaults(fn=cmd_analyze)

    bench_parser = sub.add_parser(
        "bench",
        help="run the simulator benchmark suite, write BENCH_<date>.json",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="fewer rounds and experiment cells (CI smoke mode)",
    )
    bench_parser.add_argument(
        "--scale-sweep",
        action="store_true",
        help="also run PR and CC cells across scales (0.02..100, or "
        "0.02..5 with --quick) and assert near-linear wall-time growth",
    )
    bench_parser.add_argument(
        "--rounds",
        type=_positive_int,
        default=None,
        metavar="N",
        help="rounds per microbenchmark (default: 5, or 3 with --quick)",
    )
    bench_parser.add_argument(
        "--out", metavar="PATH", help="output path (default: BENCH_<date>.json)"
    )
    bench_parser.add_argument(
        "--profile",
        action="store_true",
        help="run each suite under cProfile and write the top-20 tottime "
        "report per suite (timings inflate; do not compare a profiled "
        "run against an unprofiled baseline)",
    )
    bench_parser.add_argument(
        "--profile-dir",
        metavar="DIR",
        default="bench_profiles",
        help="directory for --profile reports (default: bench_profiles/)",
    )
    bench_parser.set_defaults(fn=cmd_bench)

    list_parser = sub.add_parser("list", help="list the Table 4 workloads")
    list_parser.set_defaults(fn=cmd_list)

    matrix_parser = sub.add_parser(
        "matrix", help="run the full workload x policy matrix"
    )
    matrix_parser.add_argument("--heap", type=float, default=64.0)
    matrix_parser.add_argument("--ratio", type=float, default=1 / 3)
    matrix_parser.add_argument("--scale", type=float, default=0.1)
    matrix_parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="subset of PR KM LR TC CC SSSP BC (default: all)",
    )
    matrix_parser.add_argument(
        "--policies",
        nargs="+",
        choices=sorted(_POLICY_CHOICES),
        default=None,
        metavar="POLICY",
        help="policies to run, first is the normalisation baseline "
        "(default: dram-only unmanaged panthera)",
    )
    matrix_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (results identical to serial)",
    )
    matrix_parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="content-addressed result cache (re-runs skip finished cells)",
    )
    matrix_parser.add_argument(
        "--export-json", metavar="PATH", help="write the matrix as JSON"
    )
    matrix_parser.add_argument(
        "--trace",
        action="store_true",
        help="record heap traces and print a report per cell",
    )
    matrix_parser.set_defaults(fn=cmd_matrix)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
