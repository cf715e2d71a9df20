#!/usr/bin/env python
"""Policy-matrix smoke (the CI ``policy-matrix`` job).

Runs PR and KM under every policy of :class:`~repro.config.PolicyName`
and checks two properties end to end:

* **Determinism** — every cell runs twice (serial engine, then a
  worker pool) and the action checksums must be byte-identical across
  ``--jobs``.
* **Convergence** — the placement policy must never change computed
  answers: for each workload, every policy's checksums must equal the
  DRAM-only checksums action for action.  The Deca cells additionally
  assert the zero-pause acceptance criterion (region-managed classes
  are never traced).

Per-workload verdicts are written as JSON artifacts.  Exits non-zero
on any divergence.

Usage::

    PYTHONPATH=src python scripts/policy_matrix_smoke.py --scale 0.02 --out policies/
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.config import PolicyName
from repro.faults import action_checksums
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint

DEFAULT_WORKLOADS = ["PR", "KM"]
#: Every policy, so a new one is checked without editing this script.
POLICIES = tuple(PolicyName)
BASELINE = PolicyName.DRAM_ONLY


def _points(workloads, heap, ratio, scale):
    return [
        ExperimentPoint(
            workload, paper_config(heap, ratio, policy, scale), scale
        )
        for workload in workloads
        for policy in POLICIES
    ]


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=DEFAULT_WORKLOADS,
        help="Table 4 abbreviations to check (default: PR KM)",
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
        "--jobs",
        type=int,
        default=4,
        help="worker processes for the second (parallel) pass",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="directory to write per-workload verdict JSON into",
    )
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    serial = ExperimentEngine(jobs=1).run(
        _points(args.workloads, args.heap, args.ratio, args.scale)
    )
    parallel = ExperimentEngine(jobs=args.jobs).run(
        _points(args.workloads, args.heap, args.ratio, args.scale)
    )

    failures = 0
    cells = {}
    for result_1, result_n in zip(serial, parallel):
        key = (result_1.workload, result_1.policy.value)
        cells[key] = (
            result_1,
            action_checksums(result_1.action_results),
            action_checksums(result_n.action_results),
        )

    for workload in args.workloads:
        problems = []
        base_sums = cells[(workload, BASELINE.value)][1]
        for policy in POLICIES:
            result, sums_1, sums_n = cells[(workload, policy.value)]
            if sums_1 != sums_n:
                problems.append(
                    f"{policy.value}: checksums differ across --jobs"
                )
            diverged = sorted(
                name
                for name in set(base_sums) | set(sums_1)
                if base_sums.get(name) != sums_1.get(name)
            )
            if diverged:
                problems.append(
                    f"{BASELINE.value} vs {policy.value} diverged: "
                    + ", ".join(diverged)
                )
        deca_result = cells[(workload, PolicyName.DECA.value)][0]
        if deca_result.minor_gcs or deca_result.major_gcs:
            problems.append(
                f"deca paused: {deca_result.minor_gcs} minor / "
                f"{deca_result.major_gcs} major GCs"
            )
        status = "ok" if not problems else "FAIL"
        gc_times = "  ".join(
            f"{policy.value} gc={cells[(workload, policy.value)][0].gc_s:.2f}s"
            for policy in POLICIES
        )
        print(f"{workload:5s} {gc_times}  determinism+convergence: {status}")
        for problem in problems:
            print(f"      {problem}")
        failures += bool(problems)
        if out_dir is not None:
            path = out_dir / f"{workload.lower()}-policies.json"
            payload = {
                "workload": workload,
                "scale": args.scale,
                "policies": [p.value for p in POLICIES],
                "checksums": {
                    policy.value: cells[(workload, policy.value)][1]
                    for policy in POLICIES
                },
                "deca_gc_s": deca_result.gc_s,
                "deca_minor_gcs": deca_result.minor_gcs,
                "deca_major_gcs": deca_result.major_gcs,
                "ok": not problems,
                "problems": problems,
            }
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"      wrote {path}")
    if failures:
        print(f"policy matrix smoke: {failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
