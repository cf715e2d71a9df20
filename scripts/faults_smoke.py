#!/usr/bin/env python
"""Kill-and-recover smoke across the workloads (the CI ``faults-smoke`` job).

For every requested workload the script runs one fault-free reference
and one injected run — an executor kill at an early stage boundary plus
a transient NVM bandwidth-throttle window — and checks that lineage
recovery converged: every action checksum of the faulted run matches
the clean run's — and that the kill actually fired and recovery ran
(``kills_fired`` and ``partitions_recomputed`` both non-zero), so a
kill that silently stops firing cannot pass as converged.  The
per-workload :class:`~repro.faults.report.FaultReport` (plan, measured
recovery cost, convergence verdict) is written as a JSON artifact.
Exits non-zero on any divergence or on a kill that did not fire.

Usage::

    PYTHONPATH=src python scripts/faults_smoke.py --scale 0.02 --out faults/
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.config import PolicyName
from repro.faults import FaultPlan, KillSpec, ThrottleSpec, action_checksums
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint

DEFAULT_WORKLOADS = ["PR", "KM", "LR", "TC", "CC", "SSSP", "BC"]

#: The standard smoke plan: lose a reduce partition just after the
#: second stage boundary, and collapse NVM bandwidth 4x for the first
#: two simulated seconds.
SMOKE_PLAN = FaultPlan(
    kills=[KillSpec("shuffle", 2, partition=1)],
    throttles=[ThrottleSpec(0, 2e9, 4.0)],
)


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
        "--scale", type=float, default=0.02, help="joint data/heap scale"
    )
    parser.add_argument(
        "--heap", type=float, default=64.0, help="heap size in GB"
    )
    parser.add_argument(
        "--ratio", type=float, default=1 / 3, help="DRAM share of memory"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="engine worker processes"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory to write per-workload FaultReport JSON into",
    )
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    engine = ExperimentEngine(jobs=args.jobs)
    points = []
    for workload in args.workloads:
        config = paper_config(
            args.heap, args.ratio, PolicyName.PANTHERA, args.scale
        )
        for plan in (FaultPlan(), SMOKE_PLAN):
            points.append(
                ExperimentPoint(workload, config, args.scale, faults=plan)
            )
    results = engine.run(points)

    failures = 0
    for i, workload in enumerate(args.workloads):
        clean, faulted = results[2 * i], results[2 * i + 1]
        clean_sums = action_checksums(clean.action_results)
        fault_sums = action_checksums(faulted.action_results)
        diverged = sorted(
            name
            for name in set(clean_sums) | set(fault_sums)
            if clean_sums.get(name) != fault_sums.get(name)
        )
        report = faulted.fault_report
        fired = report.kills_fired > 0 and report.partitions_recomputed > 0
        status = "ok" if not diverged else "FAIL"
        print(
            f"{workload:5s} kill+throttle: {report.kills_fired} fired, "
            f"{report.partitions_recomputed} partitions recomputed "
            f"({report.recompute_s:.2f}s), "
            f"{report.throttled_batches} throttled batches "
            f"(+{report.throttle_extra_s:.2f}s)  convergence: {status}"
        )
        if diverged:
            print(f"      DIVERGED actions: {', '.join(diverged)}")
        if not fired:
            print("      NO KILL FIRED: the faulted run recovered nothing")
        if diverged or not fired:
            failures += 1
        if out_dir is not None:
            path = out_dir / f"{workload.lower()}-faults.json"
            payload = {
                "workload": workload,
                "scale": args.scale,
                "plan": SMOKE_PLAN.to_dict(),
                "report": report.to_dict(),
                "converged": not diverged,
                "fired": fired,
                "diverged_actions": diverged,
                "checksums": fault_sums,
            }
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"      wrote {path}")
    if failures:
        print(f"faults smoke: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
