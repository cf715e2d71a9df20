"""Run the repository benchmark.

Usage, from the repository root::

    python bench/run.py                           # every workload, both passes
    python bench/run.py --workload graph --trace 0 --seconds 10 --seed 3
    python bench/run.py --out result.json         # keep a report for compare.py
    python bench/run.py --accept [--workload W]   # re-accept digests of W (all)

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``; the
sample counts, and so the tail's q, depend on it.

Each workload is measured in fresh processes (``bench/measure.py``)
with one client and no threads, running ops back to back (a closed
loop).  The untraced pass (``--trace 0``) sets up three times, reports
the median set-up time, and measures the end-to-end metrics in the
third process.  The traced pass (``--trace 1``) reports the per-layer
metrics.  Without ``--trace`` both passes run.

Every line but the last is for people: each metric by name, value and
unit.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when
every op was correct, 1 when any op failed, and 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Seed whose cluster plan ``bench/expected.json`` pins.
DEFAULT_SEED = 7
#: Set-ups per untraced pass; ``setup_s`` is their median.
SETUPS = 3
#: Host seconds one (workload, pass) may take, set-ups included.
PASS_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op failing)."""


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    mode: str,
    deadline: float,
    extra: Sequence[str] = (),
) -> Dict[str, Any]:
    """Run one ``measure.py`` process to completion; returns its result.

    The child sees the repository's ``src`` first on its path and no
    ``REPRO_*`` overrides, so it measures the default configuration of
    the code in this checkout.  Numeric libraries get one thread, so
    the child runs no thread pool beside the op loop.  ``extra`` holds
    further arguments.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator source under {ROOT / 'src'}")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
        "--mode", mode,
        *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload} {mode}: out of time")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode}: timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode}: exit status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode}: no result")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, Any]:
    """One pass over one workload: metrics, op counts and mismatches."""
    deadline = time.monotonic() + PASS_BUDGET_S
    if traced:
        runs = [spawn(workload, seed, seconds, "trace", deadline)]
        metrics = runs[0]["metrics"]
    else:
        runs = [
            spawn(workload, seed, seconds, "setup", deadline)
            for _ in range(SETUPS - 1)
        ]
        runs.append(spawn(workload, seed, seconds, "run", deadline))
        metrics = dict(runs[-1]["metrics"])
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in runs)
    return {
        "metrics": metrics,
        "host_speed": runs[-1]["host_speed"],
        "ops": runs[-1]["ops"],
        "tail_q": runs[-1]["tail_q"],
        "attempted": runs[-1]["attempted"],
        "failed": sum(r["failed"] for r in runs),
        "mismatched": [m for r in runs for m in r["mismatched"]],
    }


def accept(workloads: List[str]) -> None:
    """Replace the ``bench/expected.json`` digests of ``workloads`` with
    those of set-up passes at the default seed; other workloads' entries
    stay as they are.  Only a change meant to alter simulated behaviour
    may do this.

    Nothing is written unless every warm-up op of every workload ran
    and agreed with the other ops on its input: the digests of a run
    that failed are not accepted.
    """
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.is_file() else {}
    for name in workloads:
        run = spawn(
            name,
            DEFAULT_SEED,
            1.0,
            "setup",
            time.monotonic() + PASS_BUDGET_S,
            ["--ignore-expected"],
        )
        if run["failed"] or run["mismatched"]:
            shown = ", ".join(run["mismatched"][:5])
            raise BenchError(
                f"{name}: {run['failed']} failed ops ({shown}); nothing accepted"
            )
        expected[name] = dict(sorted(run["refs"].items()))
        print(f"{name}: {len(expected[name])} digests", flush=True)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    try:
        spec = json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see bench/README.md)."
    )
    parser.add_argument(
        "--workload", action="append", choices=names,
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="host seconds of ops per pass (default: run_seconds of "
        "BENCHMARK.json; compare.py only compares reports of equal length)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end pass only; 1: traced pass only (default: both)",
    )
    parser.add_argument("--out", type=Path, help="write the full report as JSON")
    parser.add_argument(
        "--accept", action="store_true",
        help="replace the workloads' digests in bench/expected.json with "
        "those of the default seed and exit",
    )
    args = parser.parse_args(argv)
    workloads = args.workload or names

    try:
        if args.accept:
            accept(workloads)
            return 0
        passes = [args.trace == 1] if args.trace is not None else [False, True]
        units = {
            m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
        }
        wanted = {
            False: [m["name"] for m in spec["end_to_end"]],
            True: [m["name"] for m in spec["per_layer"]],
        }
        report: Dict[str, Any] = {
            "seed": args.seed, "seconds": args.seconds, "workloads": {}
        }
        for name in workloads:
            entry = report["workloads"].setdefault(
                name, {"metrics": {}, "attempted": 0, "failed": 0, "mismatched": []}
            )
            for traced in passes:
                result = measure(name, args.seed, args.seconds, traced)
                missing = [m for m in wanted[traced] if m not in result["metrics"]]
                if missing:
                    raise BenchError(f"{name}: no value for {', '.join(missing)}")
                for metric in wanted[traced]:
                    value = result["metrics"][metric]
                    entry["metrics"][metric] = value
                    print(
                        f"{name:16} {metric:44} {value:14.6g} {units[metric]}",
                        flush=True,
                    )
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["mismatched"] += result["mismatched"]
                if not traced:
                    entry["ops"] = result["ops"]
                    entry["tail_q"] = result["tail_q"]
                    entry["host_speed"] = result["host_speed"]
                    print(
                        f"{name:16} {'ops':44} {result['ops']:14d} "
                        f"(tail q {entry['tail_q']:.4f}, host speed "
                        f"{result['host_speed']:.3f})"
                    )
            for key in entry["mismatched"][:5]:
                print(f"{name:16} MISMATCH {key}", flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    entries = report["workloads"]
    attempted = sum(e["attempted"] for e in entries.values())
    failed = sum(e["failed"] for e in entries.values())
    correct = failed == 0 and not any(e["mismatched"] for e in entries.values())
    single = len(entries) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {
            "value": value,
            "unit": units[metric],
        }
        for name, entry in entries.items()
        for metric, value in entry["metrics"].items()
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # On SIGTERM, unwind like SIGINT so the running child is killed and
    # reaped before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
