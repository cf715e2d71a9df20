#!/usr/bin/env python3
"""List the functions under ``src/repro`` that no program runs.

A program caller is code outside ``tests/``: the CLI, the examples, the
repository benchmark (``bench/``) and the figure benchmarks
(``benchmarks/``).  The script runs each caller of :data:`SAMPLE` as a
subprocess whose ``sitecustomize`` installs a ``sys.setprofile`` hook
that records every function called; the whole sample runs twice, with
numpy and with numpy blocked.  A function is a ``def`` (lambdas and
comprehensions are not counted) named by its module path under
``src/repro`` and its qualified name, as in
``spark/lineage.py::lineage_string``.

Every unrun function must be on the keep list beside this script
(:data:`KEEP_PATH`), one line each::

    <module path>::<qualified name>  <reason>  <note>

with one reason of :data:`REASONS`.  ``#`` starts a comment.

Usage::

    python scripts/unrun.py            # list unrun functions not kept
    python scripts/unrun.py --check    # exit 1 on any problem

``--check`` fails on an unrun function the keep list does not name, on
a keep-list line whose function ran, and on one naming a function that
no longer exists.  The script needs nothing but the standard library
(numpy, pytest and pytest-benchmark only for the callers it runs).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
KEEP_PATH = Path(__file__).with_name("unrun_keep.txt")

#: Why a function no program runs stays.
REASONS = {
    "api": "public API for user programs, or an accessor tests read state through",
    "reference": "a second model tests check the program's implementation against",
    "condition": "runs only on a path the sample cannot reach (an error, a platform)",
    "interface": "fills a protocol that Python or a base class calls",
}

#: The program callers, each an argument list for ``python``, run in a
#: scratch directory.  ``{root}`` is the repository, ``{tmp}`` the
#: scratch directory (one per pass).  Worker processes of a pool leave
#: through ``os._exit`` and record nothing, so the sample runs one job;
#: one ``--jobs 2`` run covers the parent's side of the pool.  Each
#: ``bench/`` workload runs its set-up pass, which plays every distinct
#: op once, so the sample does not depend on host speed.  cProfile
#: and pytest-benchmark's timer replace the profile hook, so the
#: profiled suite runs alone and the figures run with
#: ``--benchmark-disable``.
SAMPLE: Tuple[Tuple[str, ...], ...] = (
    ("-m", "repro", "list"),
    ("-m", "repro", "run", "PR", "--scale", "0.05", "--gclog", "5", "--verify",
     "--export-json", "{tmp}/run.json", "--export-bandwidth", "{tmp}/bw.csv"),
    ("-m", "repro", "run", "PR", "--scale", "0.05", "--policy", "deca",
     "--verify"),
    ("-m", "repro", "run", "SSSP", "--scale", "1"),
    ("-m", "repro", "matrix", "--workloads", "CC", "--scale", "0.05", "--jobs",
     "2"),
    ("-m", "repro", "matrix", "--workloads", "LR", "--scale", "0.05",
     "--trace", "--policies", "panthera", "deca"),
    ("-m", "repro", "run", "TC", "--scale", "0.02", "--trace", "--check",
     "--export-jsonl", "{tmp}/trace.jsonl"),
    ("-m", "repro", "run", "PR", "--scale", "0.05", "--persist",
     "MEMORY_ONLY_SER", "--iterations", "3", "--trace", "--check"),
    ("-m", "repro", "analyze", "BC", "--lifetimes"),
    ("-m", "repro", "faults", "KM", "--scale", "0.05", "--persist",
     "MEMORY_ONLY_SER", "--random", "3", "--seed", "1", "--balloon", "0.5",
     "--throttle", "0:2:4", "--trace", "--cache-dir", "{tmp}/faults-cache",
     "--export-report", "{tmp}/faults.json"),
    ("-m", "repro", "faults", "KM", "--scale", "0.05", "--persist",
     "MEMORY_ONLY_SER", "--random", "3", "--seed", "1", "--balloon", "0.5",
     "--throttle", "0:2:4", "--cache-dir", "{tmp}/faults-cache"),
    ("-m", "repro", "faults", "PR", "--scale", "0.05", "--kill", "shuffle:1",
     "--kill", "block:2:0"),
    ("-m", "repro", "cluster", "--executors", "2", "--max-jobs", "8",
     "--random-kills", "2", "--policy", "deca", "--export-json",
     "{tmp}/cluster.json"),
    ("-m", "repro", "cluster", "--executors", "3", "--process", "diurnal",
     "--max-jobs", "8", "--kill-executor", "1:2"),
    ("-m", "repro", "matrix", "--scale", "0.02", "--policies", "dram-only",
     "unmanaged", "panthera", "deca", "kingsguard-nursery",
     "kingsguard-writes", "--trace", "--cache-dir", "{tmp}/matrix-cache",
     "--export-json", "{tmp}/matrix.json"),
    ("-m", "repro", "matrix", "--scale", "0.02", "--workloads", "PR",
     "--cache-dir", "{tmp}/matrix-cache"),
    ("-m", "repro", "bench", "--quick", "--scale-sweep"),
    ("-m", "repro", "bench", "--quick", "--rounds", "1", "--profile", "--out",
     "{tmp}/bench.json"),
    ("{root}/scripts/bench_compare.py", "{tmp}/bench.json", "{tmp}/bench.json"),
    *((f"{{root}}/examples/{path.name}",)
      for path in sorted((ROOT / "examples").glob("*.py"))),
    *(("{root}/bench/measure.py", "--workload", name, "--seed", "7",
       "--seconds", "1", "--mode", "setup")
      for name in ("graph", "ml", "policy-matrix", "storage-pressure", "cluster")),
    ("-m", "pytest", "{root}/benchmarks", "-q", "--benchmark-disable",
     "-p", "no:cacheprovider"),
)

#: The ``sitecustomize`` each caller starts with.  It records the
#: ``(file, first line)`` of every code object called under the package
#: and writes them, one process per file, to ``{out}`` at exit.
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

if {block_numpy!r}:
    sys.modules["numpy"] = None
_called = set()


def _profile(frame, event, arg, _add=_called.add):
    if event == "call":
        _add(frame.f_code)


def _write():
    sys.setprofile(None)
    rows = sorted({{
        f"{{code.co_firstlineno}} {{os.path.realpath(code.co_filename)}}\\n"
        for code in _called
        if code.co_filename.startswith({package!r})
    }})
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as fh:
        fh.writelines(rows)


atexit.register(_write)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def defined_functions(package: Path = PACKAGE) -> Dict[Tuple[str, int], str]:
    """Every ``def`` under ``package``: ``(file, first line)`` -> its
    name ``<module path>::<qualified name>``.  The first line is a
    code object's ``co_firstlineno``: the first decorator's, if any."""
    found: Dict[Tuple[str, int], str] = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        for qualname, node in _defs(tree.body, ""):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[(str(path.resolve()), first)] = f"{module}::{qualname}"
    return found


def _defs(body: Iterable[ast.stmt], prefix: str):
    """``(qualname, node)`` for each function under ``body``, as
    Python's ``__qualname__`` names it; a property's setter or deleter
    gets a ``.setter`` or ``.deleter`` suffix to tell it from the
    getter."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + node.name
            accessor = [
                d.attr
                for d in node.decorator_list
                if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
            ]
            yield qualname + "".join("." + a for a in accessor), node
            yield from _defs(node.body, qualname + ".<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + node.name + ".")
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _defs(getattr(node, field, ()), prefix)


def parse_keep(text: str) -> Dict[str, str]:
    """The keep list: function name -> reason.  Raises ``ValueError``
    on a line without a name and a reason of :data:`REASONS`, or on a
    name listed twice."""
    keep: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) < 2 or fields[1] not in REASONS:
            raise ValueError(
                f"keep list line {number}: expected '<name> <reason>' with a "
                f"reason of {', '.join(REASONS)}: {line.strip()!r}"
            )
        if fields[0] in keep:
            raise ValueError(f"keep list line {number}: {fields[0]} listed twice")
        keep[fields[0]] = fields[1]
    return keep


def problems(
    defined: Iterable[str], called: Set[str], keep: Dict[str, str]
) -> List[str]:
    """What ``--check`` fails on, one line each, sorted by function."""
    defined = set(defined)
    out = [f"{name}: no program runs it" for name in defined - called - set(keep)]
    out += [f"{name}: kept as {keep[name]}, but it ran" for name in set(keep) & called]
    out += [f"{name}: kept, but no such function" for name in set(keep) - defined]
    return sorted(out)


def run_sample(block_numpy: bool, out: Path, tmp: Path) -> List[str]:
    """Run every caller of :data:`SAMPLE` once, writing their called
    code to ``out``; returns a line per caller that failed."""
    site = tmp / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(
            block_numpy=block_numpy, package=str(PACKAGE.resolve()), out=str(out)
        )
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(site), str(ROOT / "src"), str(ROOT)])
    failed = []
    for caller in SAMPLE:
        argv = [sys.executable] + [a.format(root=ROOT, tmp=tmp) for a in caller]
        start = time.monotonic()
        proc = subprocess.run(
            argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        label = " ".join(caller)
        print(f"  {time.monotonic() - start:6.1f}s  {label}", file=sys.stderr)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            failed.append(f"caller failed ({proc.returncode}): {label}: {tail[0]}")
    return failed


def called_functions(
    defined: Dict[Tuple[str, int], str]
) -> Tuple[Set[str], List[str]]:
    """Run the sample with and without numpy; returns the names of the
    functions it ran and a line per caller that failed."""
    called: Set[str] = set()
    failed: List[str] = []
    for block_numpy in (False, True):
        label = "without" if block_numpy else "with"
        print(f"sample {label} numpy:", file=sys.stderr)
        with tempfile.TemporaryDirectory(prefix="unrun-") as tmp:
            out = Path(tmp) / "called"
            out.mkdir()
            failed += run_sample(block_numpy, out, Path(tmp))
            for path in out.iterdir():
                for row in path.read_text().splitlines():
                    line, filename = row.split(" ", 1)
                    name = defined.get((filename, int(line)))
                    if name is not None:
                        called.add(name)
    return called, failed


def report(names: Sequence[str]) -> List[str]:
    """``names`` grouped by module, one indented function per line."""
    lines: List[str] = []
    module = None
    for name in sorted(names):
        path, qualname = name.split("::", 1)
        if path != module:
            module = path
            lines.append(path)
        lines.append(f"    {qualname}")
    return lines


def main(argv: Sequence[str] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on an unrun function not kept, or a stale keep-list line",
    )
    args = parser.parse_args(argv)
    try:
        keep = parse_keep(KEEP_PATH.read_text())
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    defined = defined_functions()
    called, failed = called_functions(defined)
    names = set(defined.values())
    print(f"{len(names - called)} of {len(names)} functions did not run; "
          f"{len(keep)} are kept")
    if not args.check:
        print("\n".join(report(names - called - set(keep))))
        return 0
    found = failed + problems(names, called, keep)
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
