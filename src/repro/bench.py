"""``repro bench``: the simulator's wall-clock benchmark harness.

The pytest-benchmark suite under ``benchmarks/`` is great for interactive
work but awkward as a regression gate: its output is a terminal table and
its statistics vary with plugin versions.  This module runs the same
stack programmatically and writes one machine-readable JSON document —
``BENCH_<date>.json`` — with, per benchmark, the best-round wall time and,
per experiment, wall seconds, simulated seconds and the
simulated-seconds-per-wall-second throughput.  Peak RSS for the whole run
rides along.  ``scripts/bench_compare.py`` diffs two such documents and
fails on regressions beyond a tolerance.

Timing protocol: each microbenchmark runs ``rounds`` rounds of ``inner``
back-to-back calls and reports the *best* round (minimum is the standard
estimator for "how fast can this go" under scheduler noise).  The working
stack is rebuilt per round so GC state cannot accumulate across rounds.
"""

from __future__ import annotations

import datetime as _dt
import gc as _gc
import json
import platform
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.config import DeviceKind, MiB, PolicyName, SystemConfig
from repro.core.static_analysis import analyze_program
from repro.gc.charging import ChargeAccumulator
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.heap.object_model import ObjKind
from repro.spark.context import SparkContext
from repro.workloads.pagerank import build_pagerank

SCHEMA_VERSION = 1


def make_stack(policy: PolicyName) -> SparkContext:
    """One microbenchmark node: a 48 MiB heap, 1/3 DRAM unless
    DRAM-only, wired by :meth:`SparkContext.create` with whatever the
    policy attaches (Panthera's monitor, Deca's regions)."""
    heap = 48 * MiB
    dram = heap if policy is PolicyName.DRAM_ONLY else heap // 3
    config = SystemConfig(
        heap_bytes=heap,
        dram_bytes=dram,
        nvm_bytes=heap - dram,
        policy=policy,
        interleave_chunk_bytes=MiB,
        large_array_threshold=64 * 1024,
    )
    return SparkContext.create(config)


# -- microbenchmark bodies -------------------------------------------------
#
# Each setup returns a zero-argument callable; one call is one iteration.


def setup_ephemeral_churn() -> Callable[[], None]:
    """64 x 256 KiB short-lived allocations (drives minor-GC frequency)."""
    stack = make_stack(PolicyName.PANTHERA)

    def churn() -> None:
        for _ in range(64):
            stack.heap.allocate_ephemeral(256 * 1024)

    return churn


def setup_minor_gc() -> Callable[[], None]:
    """One scavenge over 32 rooted 64 KiB objects plus 1 MiB of churn."""
    stack = make_stack(PolicyName.PANTHERA)
    for _ in range(32):
        obj = stack.heap.new_object(ObjKind.DATA, 64 * 1024)
        stack.heap.add_root(obj)

    def collect() -> None:
        stack.heap.allocate_ephemeral(MiB)
        stack.collector.collect_minor()

    return collect


def setup_churn_scavenge() -> Callable[[], None]:
    """64 MiB streamed through eden on an unmanaged stack with three
    stuck arrays: about ten scavenges of an empty young generation, each
    rescanning the arrays across the chunk-mapped old space."""
    stack = make_stack(PolicyName.UNMANAGED)
    heap = stack.heap
    for i in range(3):
        array = heap.allocate_rdd_array(3 * MiB // 2 + 100 * (i + 1), rdd_id=i)
        heap.add_root(array)
        heap.card_table.mark_dirty(array)  # unpadded: stuck until a major GC

    def churn() -> None:
        # Through the stack: the heap holds its collector only weakly.
        stack.heap.allocate_streaming(64 * MiB)

    return churn


def setup_major_gc() -> Callable[[], None]:
    """One full GC over 16 x 256 KiB RDD arrays (half rooted)."""
    stack = make_stack(PolicyName.PANTHERA)
    for i in range(16):
        array = stack.heap.allocate_rdd_array(256 * 1024, rdd_id=i)
        if i % 2 == 0:
            stack.heap.add_root(array)

    return stack.collector.collect_major


def setup_charge_trace() -> Callable[[], None]:
    """Bulk visit charging over 4 096 eden objects plus 64 old-gen RDD
    arrays, then building the phase's batch rows — the mark/trace shape
    of the cost plane."""
    stack = make_stack(PolicyName.PANTHERA)
    objs = [stack.heap.new_object(ObjKind.DATA, 256) for _ in range(4096)]
    objs.extend(
        stack.heap.allocate_rdd_array(128 * 1024, rdd_id=i) for i in range(64)
    )

    def charge() -> None:
        charges = ChargeAccumulator()
        charges.visit_all(objs)
        charges.rows()

    return charge


def setup_charge_rows() -> Callable[[], None]:
    """Wave settling of 256 single-device accesses, one-row batches of
    one ``Machine.run_batch`` series — the shuffle-wave shape of the
    cost plane — queued and settled."""
    stack = make_stack(PolicyName.PANTHERA)
    machine = stack.machine
    batches = [
        (((DeviceKind.DISK, 64 * 1024.0, 0.0, 0, 0),), 500.0),
        (((DeviceKind.DRAM, 0.0, 48 * 1024.0, 0, 0),), 0.0),
        (((DeviceKind.DRAM, 0.0, 0.0, 24, 0),), 300.0),
        (((DeviceKind.NVM, 16 * 1024.0, 8 * 1024.0, 0, 4),), 200.0),
    ] * 64

    def settle() -> None:
        machine.run_batch(batches)
        machine.settle()

    return settle


def setup_static_analysis() -> Callable[[], None]:
    """The §3 static analysis over a small PageRank program."""
    spec = build_pagerank(scale=0.02, iterations=10)

    def analyze() -> None:
        analyze_program(spec.program)

    return analyze


def setup_columnar_kernel() -> Callable[[], None]:
    """The columnar plane's hot path over one 4096-record numeric
    partition: pack into a :class:`~repro.spark.columnar.ColumnBatch`,
    run the grouped vector+count fold kernel (the KM/LR/NB aggregation
    shape) and split the fold across shuffle buckets."""
    from repro.spark import columnar as _columnar
    from repro.spark.partition import HashPartitioner

    records = [
        (i % 64, ((0.5 * i, -0.25 * i, 1.0 + i), 1)) for i in range(4096)
    ]
    part = HashPartitioner(8)
    kernel = _columnar.make_vec_count_merge_kernel()

    def run() -> None:
        batch = _columnar.ColumnBatch.from_records(records)
        folded = kernel(batch)
        _columnar.split_batch(folded, part)

    return run


def setup_graph_kernel() -> Callable[[], None]:
    """The columnar graph plane's hot path over one 4096-edge
    partition: group the edges into CSR adjacency, fan out PageRank's
    contributions, fold them with the grouped ``min`` kernel (the
    CC/SSSP message combiner) and split the fold across shuffle
    buckets."""
    import random as _random

    from repro.spark import columnar as _columnar
    from repro.spark.partition import HashPartitioner

    rng = _random.Random(7)
    edges = _columnar.ColumnBatch.from_records(
        [(rng.randrange(512), rng.randrange(512)) for _ in range(4096)]
    )
    part = HashPartitioner(8)

    def run() -> None:
        links = _columnar.group_lists_kernel(edges).values
        ranks = _columnar.ones_float(len(links)).arr
        contribs = _columnar.csr_spread(links, ranks / links.lengths().clip(1))
        folded = _columnar.min_reduce_kernel(contribs)
        _columnar.split_batch(folded, part)

    return run


def setup_distinct_kernel() -> Callable[[], None]:
    """``distinct``'s columnar path over one 4096-edge partition (a
    quarter of the edges duplicated): key the edges as 2-int tuple
    keys, keep the first occurrence of each edge (the map-side
    combine) and split the survivors across shuffle buckets by the
    tuple hash."""
    import random as _random

    from repro.spark import columnar as _columnar
    from repro.spark.partition import HashPartitioner

    rng = _random.Random(7)
    unique = [(rng.randrange(512), rng.randrange(512)) for _ in range(3072)]
    edges = _columnar.ColumnBatch.from_records(
        unique + [rng.choice(unique) for _ in range(1024)]
    )
    part = HashPartitioner(8)

    def run() -> None:
        keyed = _columnar.distinct_key_kernel(edges)
        _columnar.split_batch(_columnar.keep_first_kernel(keyed), part)

    return run


def setup_shuffle_exchange() -> Callable[[], None]:
    """One shuffle map stage's bucketing, in two shapes: TC's (128 map
    outputs of 2-int tuple-key rows, about 17k rows, into 256 buckets)
    and ``graph``'s (4 map outputs of int-key / float-value rows, 26k
    rows, into 4 buckets).  Each stage splits once over the
    concatenation of its outputs."""
    import random as _random

    from repro.spark import columnar as _columnar
    from repro.spark.partition import HashPartitioner

    rng = _random.Random(7)

    def tc_output(n: int):
        keyed = _columnar.ColumnBatch.from_records(
            [(rng.randrange(4096), rng.randrange(4096)) for _ in range(n)]
        )
        return _columnar.distinct_key_kernel(keyed)

    def graph_output(n: int):
        return _columnar.ColumnBatch.from_records(
            [(rng.randrange(8192), rng.random()) for _ in range(n)]
        )

    stages = [
        ([tc_output(133) for _ in range(128)], HashPartitioner(256)),
        ([graph_output(6500) for _ in range(4)], HashPartitioner(4)),
    ]

    def run() -> None:
        for outputs, part in stages:
            buckets = [[] for _ in range(part.num_partitions)]
            _columnar.bucket_into_segments(part, outputs, buckets)

    return run


#: name -> (setup, inner iterations per round)
MICRO_BENCHES: Dict[str, Any] = {
    "micro.ephemeral_churn": (setup_ephemeral_churn, 20),
    "micro.minor_gc": (setup_minor_gc, 20),
    "micro.churn_scavenge": (setup_churn_scavenge, 20),
    "micro.major_gc": (setup_major_gc, 50),
    "micro.charge_trace": (setup_charge_trace, 50),
    "micro.charge_rows": (setup_charge_rows, 20),
    "micro.static_analysis": (setup_static_analysis, 20),
    "micro.columnar_kernel": (setup_columnar_kernel, 50),
    "micro.graph_kernel": (setup_graph_kernel, 50),
    "micro.distinct_kernel": (setup_distinct_kernel, 50),
    "micro.shuffle_exchange": (setup_shuffle_exchange, 20),
}

#: (workload, policy) cells measured as end-to-end experiments.  The
#: ``deca`` cells are newer than some committed baselines — the compare
#: gate reports them as advisory "new key" entries until the baseline
#: is refreshed.
EXPERIMENT_CELLS = [
    ("PR", PolicyName.PANTHERA),
    ("PR", PolicyName.DRAM_ONLY),
    ("CC", PolicyName.PANTHERA),
    ("PR", PolicyName.DECA),
    ("KM", PolicyName.DECA),
]
QUICK_EXPERIMENT_CELLS = [("PR", PolicyName.PANTHERA)]
#: The serialized-tier pair: the same KM cell persisted in the object
#: heap and in the serialized off-heap tier, timing the tier's whole
#: cost path (serialize-on-persist and deserialize-on-access charging).
SERTIER_CELLS = [
    ("sertier.KM.object", "MEMORY_ONLY"),
    ("sertier.KM.serialized", "MEMORY_ONLY_SER"),
]
#: Experiment cells run at paper scale 1.0 (up from 0.02 before the
#: data-plane overhaul) so the gate actually measures per-record costs.
EXPERIMENT_SCALE = 1.0
EXPERIMENT_ITERATIONS = 3
#: Experiment cells report the best of this many back-to-back runs —
#: the same estimator the micros use.  Cells run 40-90 ms, where single
#: shots carry 10-20% scheduler noise; best-of-3 is stable to ~2%.
#: Rounds after the first also see the process-level dataset memo warm,
#: which is representative of how cells run inside a suite.
EXPERIMENT_ROUNDS = 3

#: Cluster suite: (name suffix, executors, max jobs) cells replaying the
#: same seeded mixed-workload traffic plan at two cluster sizes.  The
#: wall time gates the whole lane path — executor reuse, the shared
#: shuffle service overlay and the per-job delta accounting — the way
#: the experiment cells gate ``run_experiment``.
CLUSTER_CELLS = [("e2", 2, 6), ("e4", 4, 6)]
#: Quick mode runs a subset of the same cells (identical plans, so the
#: records stay comparable against the committed full-suite baseline).
QUICK_CLUSTER_CELLS = [("e2", 2, 6)]
CLUSTER_SEED = 7
CLUSTER_BASE_SCALE = 0.02
CLUSTER_DURATION_S = 30.0
CLUSTER_RATE = 0.3
#: Best-of rounds per cluster cell (each cell is a multi-second replay;
#: same estimator as the experiment cells).
CLUSTER_ROUNDS = 2

#: ``--scale-sweep``: cells and scales probing that wall time grows
#: near-linearly with input size (the scale-10 evidence the ROADMAP's
#: full Table-4 matrix rests on).
SWEEP_CELLS = [("PR", PolicyName.PANTHERA), ("CC", PolicyName.PANTHERA)]
SWEEP_SCALES = (0.02, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)
QUICK_SWEEP_SCALES = (0.02, 0.1, 1.0, 5.0)
#: Best-of rounds per sweep point.  Sweep cells are single experiments
#: (40 ms - 1 s); the linearity verdict divides two of them, so both
#: ends need the best-of treatment or scheduler noise alone can push
#: the ratio over the bound.
SWEEP_ROUNDS = 2
#: Allowed growth of per-record wall cost between scale 1 and the
#: sweep's top scale before the sweep is declared non-linear.
SWEEP_LINEARITY_BOUND = 1.5
#: The bound applied when the sweep tops out beyond scale 10.  At scale
#: 100 the working set (~800 MiB) falls out of the host's last-level
#: cache, and profiles show a *uniform* per-operation inflation (~2-2.6x
#: on dict probes and list appends, with call counts growing exactly
#: 10x) rather than any super-linear call growth.  A 3.0x allowance
#: absorbs that memory-hierarchy factor while still catching algorithmic
#: regressions, which at 100x input dwarf it.
SWEEP_LINEARITY_BOUND_XL = 3.0
#: Sweeps topping out beyond this scale use the XL bound.
SWEEP_XL_SCALE = 10.0


def run_micro_bench(
    name: str,
    setup: Callable[[], Callable[[], None]],
    inner: int,
    rounds: int,
) -> Dict[str, Any]:
    """Measure one microbenchmark; returns its result record."""
    best_s = None
    total_s = 0.0
    for _ in range(rounds):
        fn = setup()
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        round_s = time.perf_counter() - t0
        total_s += round_s
        if best_s is None or round_s < best_s:
            best_s = round_s
    return {
        "name": name,
        "kind": "micro",
        "rounds": rounds,
        "inner": inner,
        "best_round_s": best_s,
        "total_s": total_s,
        "per_iter_us": best_s / inner * 1e6,
    }


def _timed_best_of(fn: Callable[[], Any], rounds: int):
    """Best-of-``rounds`` wall time of ``fn`` with CPython's cyclic GC
    paused during each timed region (the ``timeit`` convention: cycle
    collection triggered by the simulator's garbage is scheduler noise
    here, not workload cost).  Returns ``(best_wall_s, best_result)``."""
    best_wall = None
    best_result = None
    for _ in range(max(1, rounds)):
        was_enabled = _gc.isenabled()
        _gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            if was_enabled:
                _gc.enable()
        if best_wall is None or wall < best_wall:
            best_wall = wall
            best_result = result
    return best_wall, best_result


def run_experiment_bench(
    workload: str, policy: PolicyName, rounds: int = EXPERIMENT_ROUNDS
) -> Dict[str, Any]:
    """Measure one end-to-end experiment cell; returns its record.

    Runs the cell ``rounds`` times and reports the best round, matching
    the micro protocol (simulated results are identical every round, so
    only the timing varies).
    """
    config = paper_config(64, 1 / 3, policy, EXPERIMENT_SCALE)
    best_wall, result = _timed_best_of(
        lambda: run_experiment(
            workload,
            config,
            scale=EXPERIMENT_SCALE,
            workload_kwargs={"iterations": EXPERIMENT_ITERATIONS},
        ),
        rounds,
    )
    return {
        "name": f"experiment.{workload}.{policy.value}",
        "kind": "experiment",
        "rounds": max(1, rounds),
        "wall_s": best_wall,
        "sim_s": result.elapsed_s,
        "sim_per_wall": result.elapsed_s / best_wall if best_wall > 0 else 0.0,
        "minor_gcs": result.minor_gcs,
        "major_gcs": result.major_gcs,
    }


def run_sertier_bench(
    name: str, level_name: str, rounds: int = EXPERIMENT_ROUNDS
) -> Dict[str, Any]:
    """Measure one cell of the serialized-tier pair (KM with an explicit
    persist level); returns its record.  Same protocol as the
    experiment cells."""
    from repro.spark.storage import StorageLevel

    config = paper_config(64, 1 / 3, PolicyName.PANTHERA, EXPERIMENT_SCALE)
    best_wall, result = _timed_best_of(
        lambda: run_experiment(
            "KM",
            config,
            scale=EXPERIMENT_SCALE,
            workload_kwargs={
                "iterations": EXPERIMENT_ITERATIONS,
                "persist_level": StorageLevel(level_name),
            },
        ),
        rounds,
    )
    return {
        "name": name,
        "kind": "experiment",
        "rounds": max(1, rounds),
        "wall_s": best_wall,
        "sim_s": result.elapsed_s,
        "sim_per_wall": result.elapsed_s / best_wall if best_wall > 0 else 0.0,
        "minor_gcs": result.minor_gcs,
        "major_gcs": result.major_gcs,
    }


def run_cluster_bench(
    suffix: str, executors: int, max_jobs: int, rounds: int = CLUSTER_ROUNDS
) -> Dict[str, Any]:
    """Measure one cluster-traffic replay cell; returns its record."""
    from repro.cluster import Cluster, generate_traffic

    plan = generate_traffic(
        seed=CLUSTER_SEED,
        duration_s=CLUSTER_DURATION_S,
        rate_jobs_per_s=CLUSTER_RATE,
        base_scale=CLUSTER_BASE_SCALE,
        max_jobs=max_jobs,
    )
    cluster = Cluster(executors)
    wall_s, report = _timed_best_of(lambda: cluster.run(plan)[0], rounds)
    return {
        "name": f"cluster.mix.{suffix}",
        "kind": "cluster",
        "rounds": max(1, rounds),
        "executors": executors,
        "n_jobs": report.n_jobs,
        "wall_s": wall_s,
        "sim_s": report.makespan_s,
        "sim_per_wall": report.makespan_s / wall_s if wall_s > 0 else 0.0,
        "throughput_jobs_per_s": report.throughput_jobs_per_s,
        "latency_p99_s": report.latency_p99_s,
    }


def _scale_tag(scale: float) -> str:
    """Compact scale label for benchmark names (``0.02``, ``1``, ``10``)."""
    return f"{scale:g}"


def run_sweep_cell(
    workload: str, policy: PolicyName, scale: float
) -> Dict[str, Any]:
    """Measure one scale-sweep point; returns its result record.

    Building the workload up front both yields the record count and
    warms the dataset memo, so every sweep point times the experiment
    itself rather than one cold input generation.
    """
    from repro.workloads.registry import build_workload

    n_records = build_workload(
        workload, scale=scale, iterations=EXPERIMENT_ITERATIONS
    ).dataset.n_records
    config = paper_config(64, 1 / 3, policy, scale)
    wall_s, result = _timed_best_of(
        lambda: run_experiment(
            workload,
            config,
            scale=scale,
            workload_kwargs={"iterations": EXPERIMENT_ITERATIONS},
        ),
        SWEEP_ROUNDS,
    )
    return {
        "name": f"sweep.{workload}.{policy.value}.s{_scale_tag(scale)}",
        "kind": "sweep",
        "scale": scale,
        "rounds": SWEEP_ROUNDS,
        "wall_s": wall_s,
        "sim_s": result.elapsed_s,
        "sim_per_wall": result.elapsed_s / wall_s if wall_s > 0 else 0.0,
        "n_records": n_records,
        "wall_us_per_record": wall_s / max(1, n_records) * 1e6,
    }


def run_scale_sweep(
    quick: bool = False,
    log: Optional[Callable[[str], None]] = None,
    scales: Optional[Sequence[float]] = None,
    cells: Optional[Sequence[Any]] = None,
) -> List[Dict[str, Any]]:
    """Run the scale sweep; returns per-scale records plus, per cell, a
    ``sweep_summary`` record asserting near-linear growth.

    Near-linearity compares per-record wall cost at the sweep's top
    scale against the scale closest to 1.0 (for the committed sweep:
    scale 10 vs scale 1); a ratio beyond ``SWEEP_LINEARITY_BOUND`` marks
    the summary ``linear: false``, which ``repro bench --scale-sweep``
    turns into a non-zero exit unless ``--advisory``.
    """
    emit = log or (lambda _line: None)
    scales = tuple(scales if scales is not None else
                   (QUICK_SWEEP_SCALES if quick else SWEEP_SCALES))
    cells = list(cells if cells is not None else SWEEP_CELLS)
    records: List[Dict[str, Any]] = []
    for workload, policy in cells:
        per_scale: List[Dict[str, Any]] = []
        for scale in scales:
            record = run_sweep_cell(workload, policy, scale)
            per_scale.append(record)
            records.append(record)
            emit(
                f"  {record['name']:28s} {record['wall_s']:9.2f} s wall, "
                f"{record['wall_us_per_record']:8.1f} us/record "
                f"({record['sim_per_wall']:.2f} sim-s/wall-s)"
            )
        base = min(per_scale, key=lambda r: abs(r["scale"] - 1.0))
        top = max(per_scale, key=lambda r: r["scale"])
        ratio = (
            top["wall_us_per_record"] / base["wall_us_per_record"]
            if base["wall_us_per_record"] > 0
            else 0.0
        )
        bound = (
            SWEEP_LINEARITY_BOUND_XL
            if top["scale"] > SWEEP_XL_SCALE
            else SWEEP_LINEARITY_BOUND
        )
        summary = {
            "name": f"sweep.{workload}.{policy.value}.linearity",
            "kind": "sweep_summary",
            "base_scale": base["scale"],
            "top_scale": top["scale"],
            "per_record_ratio": ratio,
            "bound": bound,
            "linear": ratio <= bound,
        }
        records.append(summary)
        verdict = "near-linear" if summary["linear"] else "NON-LINEAR"
        emit(
            f"  {summary['name']:28s} per-record cost x{ratio:.2f} from "
            f"scale {_scale_tag(base['scale'])} to "
            f"{_scale_tag(top['scale'])} "
            f"(bound x{bound:.1f}): {verdict}"
        )
    return records


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _profiled(fn: Callable[[], Any], top: int = 20):
    """Run ``fn`` under :mod:`cProfile`; returns ``(result, report)``
    where ``report`` is the top-``top`` functions by ``tottime``."""
    import cProfile
    import io
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("tottime").print_stats(top)
    return result, buf.getvalue()


def run_bench_suite(
    quick: bool = False,
    rounds: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
    scale_sweep: bool = False,
    profile: bool = False,
) -> Dict[str, Any]:
    """Run the full benchmark suite; returns the JSON-ready document.

    With ``scale_sweep`` the sweep records (see :func:`run_scale_sweep`)
    are appended to the document after the micro and experiment suites.
    With ``profile`` each suite runs under :mod:`cProfile` and the
    document carries a ``profiles`` map (suite name -> top-20 ``tottime``
    report) so "what's the bottleneck now" is answerable from any run.
    Profiling inflates the timings — never compare a profiled document
    against an unprofiled baseline.
    """
    emit = log or (lambda _line: None)
    rounds = rounds or (3 if quick else 5)
    records: List[Dict[str, Any]] = []
    profiles: Dict[str, str] = {}

    def run_suite(suite_name: str, suite: Callable[[], None]) -> None:
        if profile:
            _, profiles[suite_name] = _profiled(suite)
        else:
            suite()

    def micro_suite() -> None:
        for name, (setup, inner) in MICRO_BENCHES.items():
            record = run_micro_bench(name, setup, inner, rounds)
            records.append(record)
            emit(
                f"  {record['name']:28s} {record['per_iter_us']:9.1f} us/iter "
                f"({rounds} rounds x {inner})"
            )

    def _emit_experiment(record: Dict[str, Any]) -> None:
        emit(
            f"  {record['name']:28s} {record['wall_s']:9.2f} s wall, "
            f"{record['sim_s']:.2f} s simulated "
            f"({record['sim_per_wall']:.2f} sim-s/wall-s)"
        )

    def experiment_suite() -> None:
        cells = QUICK_EXPERIMENT_CELLS if quick else EXPERIMENT_CELLS
        for workload, policy in cells:
            record = run_experiment_bench(workload, policy)
            records.append(record)
            _emit_experiment(record)

    def sertier_suite() -> None:
        for name, level_name in SERTIER_CELLS:
            record = run_sertier_bench(name, level_name)
            records.append(record)
            _emit_experiment(record)

    def cluster_suite() -> None:
        cluster_cells = QUICK_CLUSTER_CELLS if quick else CLUSTER_CELLS
        for suffix, executors, max_jobs in cluster_cells:
            record = run_cluster_bench(suffix, executors, max_jobs)
            records.append(record)
            emit(
                f"  {record['name']:28s} {record['wall_s']:9.2f} s wall, "
                f"{record['n_jobs']} jobs on {executors} executors "
                f"({record['sim_per_wall']:.2f} sim-s/wall-s)"
            )

    run_suite("micro", micro_suite)
    run_suite("experiment", experiment_suite)
    run_suite("sertier", sertier_suite)
    run_suite("cluster", cluster_suite)
    if scale_sweep:
        run_suite(
            "sweep",
            lambda: records.extend(run_scale_sweep(quick=quick, log=log)),
        )
    document = {
        "schema": SCHEMA_VERSION,
        "created": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": peak_rss_kb(),
        "benchmarks": records,
    }
    if profile:
        document["profiles"] = profiles
    return document


def default_output_path() -> str:
    """``BENCH_<date>.json`` in the current directory."""
    return f"BENCH_{_dt.date.today().isoformat()}.json"


def write_bench_report(document: Dict[str, Any], path: str) -> None:
    """Write one suite document as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- baseline comparison ---------------------------------------------------

#: metric compared per benchmark kind (lower is better for all).  Sweep
#: points compare wall time like experiments; sweep summaries compare
#: the (machine-independent) per-record growth ratio, so a scaling
#: regression is caught even across different hardware.
_COMPARE_METRIC = {
    "micro": "per_iter_us",
    "experiment": "wall_s",
    "cluster": "wall_s",
    "sweep": "wall_s",
    "sweep_summary": "per_record_ratio",
}


class CompareReport:
    """Outcome of diffing two benchmark documents.

    ``new_keys`` lists benchmarks present in the current run but absent
    from the baseline (e.g. freshly added ``deca.*`` cells before the
    committed baseline is refreshed).  They are advisory: never counted
    as regressions, so a candidate adding suites cannot hard-fail the
    gate against an older baseline.
    """

    __slots__ = ("lines", "regressions", "improvements", "new_keys")

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.regressions: List[str] = []
        self.improvements: List[str] = []
        self.new_keys: List[str] = []


def compare_documents(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = 0.20,
) -> CompareReport:
    """Diff two suite documents benchmark-by-benchmark.

    A benchmark regresses when its metric (per-iteration time for micros,
    wall time for experiments) exceeds the baseline by more than
    ``tolerance``.  Wall-clock baselines are machine-specific, so gate
    hard only against a baseline produced on comparable hardware; CI
    uses ``--advisory`` on pull requests for exactly that reason.
    """
    report = CompareReport()
    base_by_name = {b["name"]: b for b in baseline.get("benchmarks", [])}
    for record in current.get("benchmarks", []):
        name = record["name"]
        metric = _COMPARE_METRIC.get(record.get("kind", ""), None)
        base = base_by_name.pop(name, None)
        if base is None:
            report.new_keys.append(name)
            report.lines.append(
                f"{name}: new key, no baseline (advisory, skipped)"
            )
            continue
        if metric is None or metric not in base or metric not in record:
            report.lines.append(f"{name}: no baseline metric (skipped)")
            continue
        old = float(base[metric])
        new = float(record[metric])
        if old <= 0:
            report.lines.append(f"{name}: unusable baseline (skipped)")
            continue
        ratio = new / old
        delta = (ratio - 1.0) * 100.0
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            report.regressions.append(name)
        elif ratio < 1.0 - tolerance:
            verdict = "improved"
            report.improvements.append(name)
        report.lines.append(
            f"{name}: {old:.4g} -> {new:.4g} {metric} "
            f"({delta:+.1f}%) {verdict}"
        )
    for name in base_by_name:
        report.lines.append(f"{name}: missing from current run")
    if report.regressions:
        report.lines.append(
            f"{len(report.regressions)} regression(s) beyond "
            f"{tolerance:.0%}: {', '.join(report.regressions)}"
        )
    else:
        report.lines.append(f"no regressions beyond {tolerance:.0%}")
    return report


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover
    """Standalone entry point (``python -m repro.bench``)."""
    from repro.cli import main as cli_main

    return cli_main(["bench"] + list(argv or sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
