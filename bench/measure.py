"""One measuring process: set up one workload, then run its ops.

Run by ``bench/run.py`` in a fresh interpreter per pass::

    python bench/measure.py --workload graph --seed 7 --seconds 10 --mode run

Modes:

* ``setup`` — set up only (imports, inputs, warm-up pass) and report
  the set-up time;
* ``run`` — set up, then run ops back to back for ``--seconds`` with
  tracing off and report host-time statistics;
* ``trace`` — set up, then play each round twice, untraced and traced
  (alternating which goes first), for ``--seconds``, and report
  per-layer self times.

The result is one JSON object on the last line of standard output.
Host times come from ``time.perf_counter_ns``.  Every op runs with
CPython's cyclic GC paused; the full collection that follows it is
timed separately as the op's reclaim.

Reported times are at a reference host speed.  A shared machine's
speed swings by a third for seconds and by half or more for minutes,
and an op's host time moves with it.  So a fixed pure-Python loop that
allocates and frees small containers (the yardstick) is timed right
before and right after every op, and around set-up, and each time is
scaled by ``YARDSTICK_REF_NS`` over the yardstick's time next to it.

``host_speed`` in the result is the median scale: reported time over
raw time.

The scaling divides out a slowdown the code under test brings to the
whole interpreter (an import-time hook, a much larger heap, allocator
churn), since it slows the yardstick as much as the ops.  So a helper
process forked before the simulator is imported keeps a clean copy of
the interpreter, and the yardstick's time here over its time there is
taken before import and again after the ops.  How far it moved is the
``interpreter_drift`` metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Op wall samples the tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Containers the yardstick allocates and frees, and its time at the
#: reference host speed (about its time on an idle 2 GHz Xeon core).
YARDSTICK_ITEMS = 1500
YARDSTICK_REF_NS = 350_000


class Deadline(BaseException):
    """Raised by the op loop when the measuring time is up.  A
    ``BaseException`` so that no ``except Exception`` on the way out of
    the simulator swallows it."""


def yardstick_ns() -> int:
    """Host ns of one pass of the yardstick, run with the cyclic GC
    paused."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    items = [(i, [i], {i: i}) for i in range(YARDSTICK_ITEMS)]
    total = 0
    for a, b, _ in items:
        total += a + b[0]
    del items
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


class CleanYardstick:
    """The yardstick, timed on request in a forked helper process.

    Create it before importing ``repro``: the helper is a copy of this
    process as it is then, and the code under test never runs in it.
    Calling the object runs one pass in the helper and returns its host
    ns; this process waits meanwhile, so the two never run at once.
    The helper is pinned to one CPU, and :meth:`ratio` pins this
    process to the same one while it compares the two: across CPUs the
    comparison swings by half.  :meth:`close` ends and reaps the helper,
    which also exits on its own when this process dies.
    """

    def __init__(self) -> None:
        self._allowed = os.sched_getaffinity(0)
        self._cpu = {min(self._allowed)}
        request_r, self._request = os.pipe()
        self._reply, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.sched_setaffinity(0, self._cpu)
                os.close(self._request)
                os.close(self._reply)
                while os.read(request_r, 1):
                    os.write(reply_w, struct.pack("q", yardstick_ns()))
                status = 0
            finally:
                os._exit(status)
        os.close(request_r)
        os.close(reply_w)

    def __call__(self) -> int:
        os.write(self._request, b"y")
        reply = os.read(self._reply, 8)
        if len(reply) != 8:
            raise RuntimeError("the yardstick process has exited")
        return struct.unpack("q", reply)[0]

    def ratio(self, pairs: int = 40) -> float:
        """Median over interleaved pairs of the yardstick's time in
        this process over its time in the helper."""
        os.sched_setaffinity(0, self._cpu)
        try:
            ratios = []
            for i in range(pairs):
                if i % 2:
                    here, clean = yardstick_ns(), self()
                else:
                    clean, here = self(), yardstick_ns()
                ratios.append(here / clean)
        finally:
            os.sched_setaffinity(0, self._allowed)
        return statistics.median(ratios)

    def close(self) -> None:
        if self.pid:
            os.close(self._request)
            os.close(self._reply)
            os.waitpid(self.pid, 0)
            self.pid = 0

    def __enter__(self) -> "CleanYardstick":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def speed_scale(before_ns: float, after_ns: float) -> float:
    """Reference-speed time over raw time, from the yardstick's times
    before and after a span."""
    return YARDSTICK_REF_NS * 2 / (before_ns + after_ns)


def tail_index(n: int, beyond: int = TAIL_BEYOND) -> int:
    """0-based index, in ascending order, of the highest percentile that
    has at least ``beyond`` of ``n`` samples above it (q = 1 - beyond/n)."""
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return n - beyond - 1


def geomean(values) -> float:
    """Geometric mean of positive numbers."""
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Checker:
    """Reference digests and answers; judges every op.

    The first digest seen for a key becomes its reference, and the
    warm-up pass sees every key first.  A key listed in ``expected``
    must match that too.  Ops on the same input must compute the same
    answers.
    """

    def __init__(self, expected: Optional[Dict[str, str]] = None) -> None:
        self.expected = expected or {}
        self.refs: Dict[str, str] = {}
        self.answers: Dict[Tuple[Any, ...], str] = {}
        self.mismatched: List[str] = []

    def check_value(self, key: str, digest: str) -> bool:
        """Compare a digest with its reference and ``expected`` entry."""
        ref = self.refs.setdefault(key, digest)
        ok = digest == ref and self.expected.get(key, digest) == digest
        if not ok:
            self.mismatched.append(key)
        return ok

    def check(self, key: str, result) -> bool:
        """Judge one op's :class:`workloads.OpResult`."""
        ok = self.check_value(key, result.digest)
        if self.answers.setdefault(result.input, result.answers) != result.answers:
            self.mismatched.append(f"{key} answers")
            ok = False
        return ok


@dataclass
class OpRecord:
    """One completed op.  ``scale`` converts its raw host times to the
    reference speed.  The op is the ``index``-th of its play of
    ``round`` (in a paired run, of the part of a round played twice).
    Traced ops carry per-layer raw self ns, calls and direct child
    calls."""

    key: str
    wall_ns: int
    reclaim_ns: int
    scale: float
    ok: bool
    result: Any
    traced: bool = False
    round: int = 0
    index: int = 0
    layer_ns: Optional[List[int]] = None
    layer_calls: Optional[List[int]] = None
    layer_child_calls: Optional[List[int]] = None

    @property
    def cell(self) -> str:
        """The timing cell: ops in one cell do the same work, up to the
        state earlier ops left (the op's key unless its result names
        another)."""
        return self.result.cell or self.key

    @property
    def sim_s(self) -> float:
        return self.result.sim_s

    @property
    def wall_ms(self) -> float:
        return self.wall_ns * self.scale / 1e6

    @property
    def reclaim_ms(self) -> float:
        return self.reclaim_ns * self.scale / 1e6


class Loop:
    """Times ops, reclaims after each, and stops at the deadline.

    While ``tracing`` is set, the tracer's counters are diffed around
    each op, so wrapped calls outside ops (cluster start-up, say) are
    not counted.  Per-function calls and non-None results of traced ops
    add up in ``fn_calls`` / ``fn_some``.
    """

    def __init__(self, checker: Checker, tracer=None) -> None:
        self.checker = checker
        self.tracer = tracer
        self.deadline: Optional[float] = None
        self.records: List[OpRecord] = []
        self.raised = 0
        self.tracing = False
        self.round = 0
        self.index = 0
        self.fn_calls: List[int] = []
        self.fn_some: List[int] = []

    @property
    def attempted(self) -> int:
        return len(self.records) + self.raised

    @property
    def failed(self) -> int:
        return self.raised + sum(1 for r in self.records if not r.ok)

    def op(self, key: str, summarize: Callable, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one op and return its result;
        ``summarize`` reduces that result to a ``workloads.OpResult``."""
        if (
            self.deadline is not None
            and len(self.records) > TAIL_BEYOND
            and time.perf_counter() >= self.deadline
        ):
            raise Deadline()
        index = self.index
        self.index += 1
        yard_ns = yardstick_ns()
        before = self.tracer.snapshot() if self.tracing else None
        gc.disable()
        start = time.perf_counter_ns()
        try:
            returned = fn(*args, **kwargs)
        except Exception:
            self.raised += 1
            raise
        finally:
            wall_ns = time.perf_counter_ns() - start
            # Snapshot before the GC resumes: allocating with it on could
            # set off a collection of the op's garbage outside the timed
            # reclaim.
            after = self.tracer.snapshot() if before is not None else None
            gc.enable()
        start = time.perf_counter_ns()
        gc.collect()
        reclaim_ns = time.perf_counter_ns() - start
        layers = (None, None, None)
        if before is not None:
            layers = self._deltas(before, after)
        scale = speed_scale(yard_ns, yardstick_ns())
        result = summarize(returned)
        self.records.append(
            OpRecord(
                key,
                wall_ns,
                reclaim_ns,
                scale,
                self.checker.check(key, result),
                result,
                self.tracing,
                self.round,
                index,
                *layers,
            )
        )
        return returned

    def _deltas(self, before, after) -> Tuple[List[int], List[int], List[int]]:
        """One op's per-layer self ns, calls and child calls; adds its
        per-function counts to the loop totals."""
        layer_ns = [a - b for b, a in zip(before[0], after[0])]
        child_calls = [a - b for b, a in zip(before[1], after[1])]
        layer_calls = [0] * len(layer_ns)
        grown = len(after[2]) - len(self.fn_calls)
        self.fn_calls.extend([0] * grown)
        self.fn_some.extend([0] * grown)
        for fid, (calls, some) in enumerate(zip(after[2], after[3])):
            if fid < len(before[2]):
                calls -= before[2][fid]
                some -= before[3][fid]
            self.fn_calls[fid] += calls
            self.fn_some[fid] += some
            layer_calls[self.tracer.fn_layer[fid]] += calls
        return layer_ns, layer_calls, child_calls


def load_expected(workload: str) -> Dict[str, str]:
    """The accepted digests of one workload (empty if none)."""
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text()).get(workload, {})


def setup(workload_name: str, seed: int, tracer=None, expected: bool = True):
    """Imports, inputs and the warm-up pass.

    Returns ``(workload, loop, setup_s, scale)``: the set-up time at the
    reference speed and its ratio to the raw time.  Warm-up ops are
    scaled by their own yardsticks, the rest of set-up by the yardstick
    at its start and end.  Ops are checked against the accepted digests
    unless ``expected`` is false.  The state built here is frozen out
    of the cyclic collector's view before returning.
    """
    yard_ns = yardstick_ns()
    start = time.perf_counter()
    import workloads

    workload = workloads.make(workload_name, seed)
    workload.build_inputs()
    accepted = load_expected(workload_name) if expected else {}
    loop = Loop(Checker(accepted), tracer)
    workload.warm_up(loop)
    warm_up = loop.records
    loop.raised = loop.failed
    loop.records = []
    gc.collect()
    gc.freeze()
    raw_s = time.perf_counter() - start
    edge_scale = speed_scale(yard_ns, yardstick_ns())
    op_s = sum(r.wall_ns for r in warm_up) / 1e9
    setup_s = sum(r.wall_ms for r in warm_up) / 1e3 + (raw_s - op_s) * edge_scale
    return workload, loop, setup_s, setup_s / raw_s


def run_rounds(workload, loop: Loop, seed: int, seconds: float, paired: bool) -> None:
    """Play rounds until ``seconds`` have passed.

    With ``paired`` each part of a round the workload can repeat on its
    own (one cell, or one cluster replay) is played untraced and traced
    back to back, alternating which goes first, so that each traced op
    has an untraced twin run moments apart.  However short ``seconds``,
    the run has more ops than the tail leaves beyond it and, paired, one
    part played both ways.
    """
    deadline = time.perf_counter() + seconds
    loop.deadline = None if paired else deadline
    part = 0
    try:
        for cells in workload.rounds(seed):
            for cells_part in workload.parts(cells) if paired else [cells]:
                loop.round = part
                halves = (False,)
                if paired:
                    halves = (False, True) if part % 2 == 0 else (True, False)
                for traced in halves:
                    loop.tracing = traced
                    loop.index = 0
                    if traced:
                        with loop.tracer.installed():
                            workload.play(loop, cells_part)
                    else:
                        workload.play(loop, cells_part)
                part += 1
                loop.deadline = deadline
    except Deadline:
        pass
    finally:
        loop.tracing = False


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (``ru_maxrss`` is KiB on
    Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def by_cell(records: List[OpRecord]) -> Dict[str, List[OpRecord]]:
    cells: Dict[str, List[OpRecord]] = {}
    for r in records:
        cells.setdefault(r.cell, []).append(r)
    return cells


def cell_medians(records: List[OpRecord], attr: str = "wall_ms") -> Dict[str, float]:
    """Each cell's median of one per-op value."""
    return {
        cell: statistics.median(getattr(r, attr) for r in rs)
        for cell, rs in by_cell(records).items()
    }


def run_metrics(records: List[OpRecord]) -> Dict[str, float]:
    """End-to-end host-time statistics of an untraced run (``setup_s``
    is added by the caller).

    A workload mixes cells whose ops differ in size several-fold, and a
    plain median over such a mix jumps from one cell to another as the
    mix shifts by an op.  So the medians are taken per cell (a cell is
    one configuration, or one input of the cluster plan) and combined:
    ``op_ms_p50`` and ``reclaim_ms_p50`` are geometric means of per-cell
    medians, and ``sim_s_per_wall_s`` is one op of every cell at its
    median, simulated seconds over host seconds.

    The tail is the same combination taken at the highest percentile
    with ``TAIL_BEYOND`` ops above it, of each op's wall over its own
    cell's median: ``op_ms_p50`` times how far the slow ops run past
    their cells' typical time.  Intermittent slowness inside a cell
    (a periodic rebuild, ops growing slower as state piles up, a
    cluster job recovering from a kill) reaches it; a cell that is
    merely larger than the rest does not.
    """
    walls = cell_medians(records)
    p50 = geomean(walls.values())
    ratios = sorted(r.wall_ms / walls[r.cell] for r in records)
    return {
        "sim_s_per_wall_s": sum(cell_medians(records, "sim_s").values())
        / (sum(walls.values()) / 1e3),
        "op_ms_p50": p50,
        "op_ms_tail": p50 * ratios[tail_index(len(ratios))],
        "reclaim_ms_p50": geomean(cell_medians(records, "reclaim_ms").values()),
        "peak_rss_mb": peak_rss_mb(),
    }


def wrapper_cost_ns(pairs) -> float:
    """Host ns one wrapped call costs, from twin ops: traced wall less
    untraced wall, over the traced twin's wrapped calls."""
    calls = sum(sum(on.layer_calls) for on, _ in pairs)
    extra = sum(on.wall_ns * on.scale - off.wall_ns * off.scale for on, off in pairs)
    return max(0.0, extra / calls) if calls else 0.0


def trace_metrics(
    loop: Loop, empty_inner_ns: float, empty_outer_ns: float
) -> Dict[str, float]:
    """Per-layer statistics of a paired traced run.

    Every op of a round played both ways has a twin: the same op,
    untraced.  The wrappers' cost per call is measured on those twins
    (an empty wrapped call, timed at start-up, costs two to four times
    less than a wrapped call in the simulator's own code, so it cannot
    stand in for it) and split into inner and outer parts in the
    proportions of the empty call.  A layer's self time is its
    exclusive wrapped time less ``inner`` per call of its own and
    ``outer`` per wrapped call it made.  Shares divide by the traced op
    wall less every call's cost; ``unattributed`` is what the layers
    leave of it.  ``trace_calibration_error`` checks the per-call cost
    on held-out twins: measured on half the pairs, applied to the rest.
    """
    import layers

    tracer = loop.tracer
    records = loop.records
    twins: Dict[Tuple[int, int], Dict[bool, OpRecord]] = {}
    for r in records:
        twins.setdefault((r.round, r.index), {})[r.traced] = r
    pairs = [(t[True], t[False]) for t in twins.values() if len(t) == 2]
    cost = wrapper_cost_ns(pairs)
    inner = cost * empty_inner_ns / (empty_inner_ns + empty_outer_ns)
    outer = cost - inner

    traced = [r for r in records if r.traced]
    n = len(traced)
    self_ns = [0.0] * len(tracer.names)
    calls = [0] * len(tracer.names)
    calibrated_wall = 0.0
    for r in traced:
        for i, (ns, count, children) in enumerate(
            zip(r.layer_ns, r.layer_calls, r.layer_child_calls)
        ):
            self_ns[i] += ns * r.scale - count * inner - children * outer
            calls[i] += count
        calibrated_wall += r.wall_ns * r.scale - sum(r.layer_calls) * cost

    metrics: Dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.self_ms_per_op"] = self_ns[i] / n / 1e6
        metrics[f"{name}.calls_per_op"] = calls[i] / n
        metrics[f"{name}.share"] = self_ns[i] / calibrated_wall
    reclaim_ns = sum(r.reclaim_ns * r.scale for r in traced)
    for name, value in (
        (layers.RECLAIM, reclaim_ns),
        (layers.UNATTRIBUTED, calibrated_wall - sum(self_ns)),
    ):
        metrics[f"{name}.self_ms_per_op"] = value / n / 1e6
        metrics[f"{name}.share"] = value / calibrated_wall

    def per_op(field: str) -> float:
        return sum(getattr(r.result, field) for r in records) / len(records)

    fn_calls = dict(zip(tracer.labels, loop.fn_calls))
    fn_some = dict(zip(tracer.labels, loop.fn_some))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics["gc.minor.collections_per_op"] = per_op("minor_gcs")
    metrics["gc.major.collections_per_op"] = per_op("major_gcs")
    metrics["spark.block_manager.spills_per_op"] = per_op("spills")
    metrics["spark.block_manager.drops_per_op"] = per_op("drops")
    metrics["faults.partitions_recomputed_per_op"] = per_op("recomputed")
    metrics["spark.block_manager.hit_ratio"] = ratio(
        fn_some.get(layers.BLOCK_GET, 0), fn_calls.get(layers.BLOCK_GET, 0)
    )
    metrics["spark.columnar.pack_ratio"] = ratio(
        fn_some.get(layers.COLUMNAR_PACK, 0), fn_calls.get(layers.COLUMNAR_PACK, 0)
    )
    remote = fn_calls.get(layers.SERVICE_REMOTE, 0)
    metrics["cluster.service.remote_ratio"] = ratio(
        remote, remote + fn_calls.get(layers.SERVICE_LOCAL, 0)
    )

    on = [on for on, _ in pairs]
    off = [off for _, off in pairs]
    metrics["trace_overhead"] = (
        geomean(cell_medians(on).values()) / geomean(cell_medians(off).values()) - 1
    )
    # Consecutive pairs ran in opposite orders; keep both orders in each
    # half of the split.
    fit = wrapper_cost_ns([p for i, p in enumerate(pairs) if i // 2 % 2 == 0])
    held_out = [p for i, p in enumerate(pairs) if i // 2 % 2 == 1]
    calibrated = sum(
        on.wall_ns * on.scale - sum(on.layer_calls) * fit for on, _ in held_out
    )
    metrics["trace_calibration_error"] = abs(
        calibrated / sum(off.wall_ns * off.scale for _, off in held_out) - 1
    )
    metrics["trace_call_ns"] = cost
    metrics["trace_empty_call_ns"] = empty_inner_ns + empty_outer_ns
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument(
        "--ignore-expected", action="store_true",
        help="do not check ops against bench/expected.json",
    )
    args = parser.parse_args(argv)
    if args.mode != "run":
        out = measure(args)
    else:
        # Before anything imports the simulator: the helper must be a
        # copy of this interpreter as it is now.
        with CleanYardstick() as clean:
            start_ratio = clean.ratio()
            out = measure(args)
            # What the simulator did to this interpreter slowed the
            # yardstick as much as the ops, and the scaling divided it
            # out; this is where it shows.  The garbage of the op the
            # deadline cut off goes first: it moved the ratio by up to
            # a tenth, at random.
            gc.collect()
            out["metrics"]["interpreter_drift"] = clean.ratio() / start_ratio
    print(json.dumps(out, sort_keys=True))
    return 0


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    """Set up and (unless ``--mode setup``) run; returns the result."""
    tracer = None
    inner_ns = outer_ns = 0.0
    if args.mode == "trace":
        import layers

        yard_ns = yardstick_ns()
        inner_ns, outer_ns = layers.calibrate()
        scale = speed_scale(yard_ns, yardstick_ns())
        inner_ns, outer_ns = inner_ns * scale, outer_ns * scale
        tracer = layers.Tracer()
    workload, loop, setup_s, setup_scale = setup(
        args.workload, args.seed, tracer, not args.ignore_expected
    )
    out: Dict[str, Any] = {"setup_s": setup_s, "host_speed": setup_scale}
    if args.mode != "setup":
        run_rounds(workload, loop, args.seed, args.seconds, paired=args.mode == "trace")
        if args.mode == "run":
            out["metrics"] = run_metrics(loop.records)
        else:
            out["metrics"] = trace_metrics(loop, inner_ns, outer_ns)
        out["ops"] = len(loop.records)
        out["tail_q"] = 1 - TAIL_BEYOND / len(loop.records)
        out["host_speed"] = statistics.median(r.scale for r in loop.records)
    out["attempted"] = loop.attempted
    out["failed"] = loop.failed
    out["mismatched"] = loop.checker.mismatched[:20]
    out["refs"] = loop.checker.refs
    return out


if __name__ == "__main__":
    sys.exit(main())
