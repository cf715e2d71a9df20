"""Compare two sets of benchmark reports, metric by metric.

Usage::

    python bench/compare.py BASE HEAD

BASE and HEAD are each a report written by ``bench/run.py --out`` or a
directory of such reports (several runs of one side).  For every
(end-to-end metric, workload) pair the medians of the two sides are
compared against the metric's bound and direction from
``BENCHMARK.json``:

* ``regressed`` — HEAD is worse than BASE by more than the bound;
* ``improved`` — HEAD is better by more than the bound;
* ``unchanged`` — neither;
* ``unresolved`` — BASE's own runs spread (quartile distance over
  median) wider than the bound, unless every HEAD run beats every BASE
  run, which counts as improved.

The two sides must have run under the same conditions: the same
``--seconds`` and the same seeds (one report per seed on each side).
The run length sets the sample counts and the tail's q, and the seed
sets the inputs, so reports that differ in either are refused.

The exit status is 2 when the sides' conditions differ, 1 when any pair
regressed or any run had a failed op, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_reports(path: Path) -> List[dict]:
    """One report, or every ``*.json`` report in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"compare: no reports in {path}")
    return [json.loads(f.read_text()) for f in files]


def spread(values: List[float]) -> float:
    """Quartile distance over median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def classify(base: List[float], head: List[float], bound: float, better: str) -> str:
    """The verdict for one (metric, workload) pair."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    worse = sign * (statistics.median(head) - base_median) / base_median
    if spread(base) > bound:
        beats = all(sign * h < sign * b for h in head for b in base)
        return "improved" if beats else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def conditions(reports: List[dict]) -> List[Tuple[float, int]]:
    """The sorted ``(seconds, seed)`` of each report."""
    return sorted((r["seconds"], r["seed"]) for r in reports)


def values(reports: List[dict], workload: str, metric: str) -> List[float]:
    return [
        r["workloads"][workload]["metrics"][metric]
        for r in reports
        if metric in r["workloads"].get(workload, {}).get("metrics", {})
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    base, head = load_reports(args.base), load_reports(args.head)
    if conditions(base) != conditions(head):
        print(
            "compare: BASE and HEAD ran with different --seconds or seeds: "
            f"{conditions(base)} vs {conditions(head)}",
            file=sys.stderr,
        )
        return 2

    status = 0
    for side, reports in (("base", base), ("head", head)):
        for report in reports:
            for name, entry in report["workloads"].items():
                if entry["failed"] or entry["mismatched"]:
                    print(f"{side}: {name}: {entry['failed']} failed ops")
                    status = 1
    counts: Dict[str, int] = {}
    print(
        f"{'workload':18} {'metric':18} {'base':>12} {'head':>12} "
        f"{'change':>8}  verdict"
    )
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, h = values(base, workload, name), values(head, workload, name)
            if not b or not h:
                continue
            verdict = classify(b, h, metric["bound"], metric["better"])
            counts[verdict] = counts.get(verdict, 0) + 1
            change = statistics.median(h) / statistics.median(b) - 1
            print(
                f"{workload:18} {name:18} {statistics.median(b):12.5g} "
                f"{statistics.median(h):12.5g} {change:+8.1%}  {verdict}"
                f" (bound {metric['bound']:.0%}, {metric['better']} is better)"
            )
            if verdict == "regressed":
                status = 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return status


if __name__ == "__main__":
    sys.exit(main())
