#!/usr/bin/env python
"""Cluster traffic smoke across the workloads (the CI ``cluster-smoke`` job).

For every requested workload the script replays a short seeded
single-workload traffic plan on a multi-executor cluster — executor
kills included — and checks three invariants:

* the run completes and reports sane throughput / latency metrics;
* a same-seed replay is byte-identical (``ClusterReport.to_json``);
* the injected executor kill converges — every job's action checksums
  match the fault-free replay's;
* the kill actually fired and recovery ran (``kills_fired`` and
  ``partitions_recomputed`` both non-zero), so a kill that silently
  stops firing cannot pass as converged.

The per-workload :class:`~repro.cluster.simulator.ClusterReport` is
written as a JSON artifact.  Exits non-zero on any divergence.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py --scale 0.02 --out cluster/
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cluster import Cluster, ClusterFaultPlan, ExecutorKill, generate_traffic

DEFAULT_WORKLOADS = ["PR", "KM", "LR", "TC", "CC", "SSSP", "BC"]


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=DEFAULT_WORKLOADS,
        help="Table 4 abbreviations to check (default: all seven)",
    )
    parser.add_argument(
        "--executors", type=int, default=2, help="cluster size"
    )
    parser.add_argument(
        "--scale", type=float, default=0.02, help="base data scale"
    )
    parser.add_argument(
        "--max-jobs", type=int, default=3, help="jobs per workload plan"
    )
    parser.add_argument(
        "--seed", type=int, default=11, help="traffic plan seed"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="lane worker processes"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory to write per-workload ClusterReport JSON into",
    )
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    kill_plan = ClusterFaultPlan(
        kills=[ExecutorKill(executor=1, at_boundary=2)]
    )
    failures = 0
    for workload in args.workloads:
        plan = generate_traffic(
            seed=args.seed,
            duration_s=30.0,
            rate_jobs_per_s=0.3,
            workloads=[workload],
            base_scale=args.scale,
            max_jobs=args.max_jobs,
        )
        cluster = Cluster(args.executors)
        clean, _ = cluster.run(plan, jobs=args.jobs)
        repeat, _ = cluster.run(plan, jobs=args.jobs)
        deterministic = clean.to_json() == repeat.to_json()
        faulted, _ = cluster.run(plan, faults=kill_plan, jobs=args.jobs)
        diverged = sorted(
            str(job.job_id)
            for job, fjob in zip(clean.jobs, faulted.jobs)
            if job.checksums != fjob.checksums
        )
        kills = faulted.faults["kills_fired"]
        fired = kills > 0 and faulted.faults["partitions_recomputed"] > 0
        ok = deterministic and not diverged and fired
        status = "ok" if ok else "FAIL"
        print(
            f"{workload:5s} {clean.n_jobs} jobs on {args.executors} "
            f"executors: {clean.throughput_jobs_per_s:.4f} jobs/sim-s, "
            f"p99 {clean.latency_p99_s:.2f}s; {kills} kills fired, "
            f"{faulted.faults['partitions_recomputed']} partitions "
            f"recomputed; deterministic: {deterministic}  "
            f"convergence: {status}"
        )
        if diverged:
            print(f"      DIVERGED jobs: {', '.join(diverged)}")
        if not fired:
            print("      NO KILL FIRED: the faulted replay recovered nothing")
        if not ok:
            failures += 1
        if out_dir is not None:
            path = out_dir / f"{workload.lower()}-cluster.json"
            payload = {
                "workload": workload,
                "deterministic": deterministic,
                "converged": not diverged,
                "fired": fired,
                "diverged_jobs": diverged,
                "clean": clean.to_dict(),
                "faulted": faulted.to_dict(),
            }
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"      wrote {path}")
    if failures:
        print(f"cluster smoke: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
