"""The golden-digest corpus: which cells it pins and how a run is digested.

"Same behaviour" in this simulator means byte-identical simulated output.
The corpus pins that output for a fixed matrix of cells in the committed
``digests.json``: per cell, one SHA-256 each over

* ``elapsed`` — the simulated elapsed time's ``repr``;
* ``gclog`` — the full :func:`~repro.gc.gclog.render_log` GC log;
* ``trace`` — the heap trace event stream, as JSONL;
* ``bandwidth`` — every per-device, per-direction bandwidth series;
* ``checksums`` — the per-action answer checksums and the fault report.

A cell that aborts with a typed :class:`~repro.errors.ReproError` pins
that error (its type and message) as its expected outcome instead.

The matrix: PR/CC/SSSP/KM/LR/BC under every policy at default persist,
plus KM/LR/PR at ``MEMORY_ONLY_SER`` (the serialized tier), at two
pressure points (s0.01 on a 64 GB heap with a shuffle kill; s0.1 on a
36 GB heap with a shuffle kill and an NVM throttle, which forces major
GCs, spills and drops); TC under every policy at the s0.01 point and
under panthera and deca at the s0.1 point; KM at ``DISK_ONLY`` and at
``OFF_HEAP``; plus one small two-executor cluster replay with an
executor kill and one Hadoop HashJoin run on a bare heap.  Each script
under ``examples/`` is pinned too, by the digest of its stdout.

``tests/test_golden.py`` checks the committed digests (with numpy and
with numpy forced absent), and that every run frees by reference
counting (:func:`count_cyclic_garbage`); ``scripts/golden.py --accept``
rewrites them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import runpy
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import Cluster, ClusterFaultPlan, ExecutorKill, generate_traffic
from repro.config import DeviceKind, MiB, PolicyName, SystemConfig
from repro.core.tags import MemoryTag
from repro.errors import ReproError
from repro.faults import FaultPlan, KillSpec, ThrottleSpec, action_checksums
from repro.gc.gclog import render_log
from repro.hadoop.hashjoin import HashJoin
from repro.harness.configs import paper_config
from repro.harness.experiment import run_experiment
from repro.spark.context import SparkContext
from repro.spark.storage import StorageLevel
from repro.trace.export import events_to_jsonl

#: The committed corpus, next to this module.
DIGESTS_PATH = Path(__file__).with_name("digests.json")

WORKLOADS = ("PR", "CC", "SSSP", "KM", "LR", "BC")
#: Workloads pinned under every policy at the first (cheapest) pressure
#: point only, and under :data:`LIGHT_POLICIES` at the others.
LIGHT_WORKLOADS = ("TC",)
#: Every policy, so a new one cannot be left out of the corpus.
POLICIES = tuple(PolicyName)
LIGHT_POLICIES = (PolicyName.PANTHERA, PolicyName.DECA)
#: Workloads whose cached RDD takes a ``persist_level``.
SER_WORKLOADS = ("KM", "LR", "PR")
#: Persists no other cell reaches, run as KM under panthera at the
#: first pressure point: the ``DISK_ONLY`` write and read, and
#: ``OFF_HEAP`` in the serialized tier.
EXTRA_PERSISTS = (StorageLevel.DISK_ONLY, StorageLevel.OFF_HEAP)


@dataclass(frozen=True)
class Pressure:
    """One (scale, heap, fault plan) point of the matrix."""

    scale: float
    heap_gb: float
    throttle: bool

    @property
    def key(self) -> str:
        return f"s{self.scale:g}/h{self.heap_gb:g}"

    def fault_plan(self) -> FaultPlan:
        throttles = [ThrottleSpec(0.0, 2e9, 4.0)] if self.throttle else []
        return FaultPlan(
            kills=[KillSpec("shuffle", 1, 0)], throttles=throttles, seed=7
        )


PRESSURES = (Pressure(0.01, 64.0, False), Pressure(0.1, 36.0, True))


@dataclass(frozen=True)
class Cell:
    """One traced, faulted single-node experiment of the corpus."""

    workload: str
    policy: PolicyName
    pressure: Pressure
    persist: Optional[StorageLevel] = None

    @property
    def key(self) -> str:
        parts = [self.workload, self.policy.value, self.pressure.key]
        if self.persist is not None:
            parts.append(self.persist.value)
        return "/".join(parts)

    def run(self, trace: bool = True) -> Dict[str, str]:
        """Run the cell; returns its digests (or its pinned error).

        Untraced (``trace=False``), no trace publish settles the
        machine's charge queue, so it settles only where the run reads
        simulated state; the ``trace`` digest is then of no events."""
        kwargs: Dict[str, Any] = {} if self.workload == "BC" else {"iterations": 2}
        if self.persist is not None:
            kwargs["persist_level"] = self.persist
        config = paper_config(
            self.pressure.heap_gb, 1 / 3, self.policy, self.pressure.scale
        )
        try:
            result = run_experiment(
                self.workload,
                config,
                scale=self.pressure.scale,
                workload_kwargs=kwargs,
                keep_context=True,
                trace=trace,
                faults=self.pressure.fault_plan(),
            )
        except ReproError as exc:
            return {"error": type(exc).__name__, "message": sha256(str(exc))}
        return fingerprint(result)


def cells() -> List[Cell]:
    """Every single-node cell of the corpus, in a fixed order."""
    out: List[Cell] = []
    for pressure in PRESSURES:
        for workload in WORKLOADS:
            for policy in POLICIES:
                out.append(Cell(workload, policy, pressure))
        light = POLICIES if pressure == PRESSURES[0] else LIGHT_POLICIES
        for workload in LIGHT_WORKLOADS:
            for policy in light:
                out.append(Cell(workload, policy, pressure))
        for workload in SER_WORKLOADS:
            for policy in POLICIES:
                out.append(
                    Cell(workload, policy, pressure, StorageLevel.MEMORY_ONLY_SER)
                )
    for level in EXTRA_PERSISTS:
        out.append(Cell("KM", PolicyName.PANTHERA, PRESSURES[0], level))
    return out


#: The key of the cluster replay's corpus entry.
CLUSTER_KEY = "cluster/2x/seed3"


def run_cluster() -> Dict[str, str]:
    """A six-job traffic plan on ``Cluster(2)`` with one executor kill,
    digested over every job's artifacts plus the cluster report."""
    plan = generate_traffic(
        3, duration_s=40.0, rate_jobs_per_s=0.3, base_scale=0.01, max_jobs=6
    )
    faults = ClusterFaultPlan(kills=[ExecutorKill(executor=1, at_boundary=2)])
    report, artifacts = Cluster(2).run(plan, faults, keep_artifacts=True)
    return {
        "elapsed": sha256(repr(report.makespan_s)),
        "gclog": sha256([a.gclog for a in artifacts]),
        "trace": sha256([events_to_jsonl(a.trace_events) for a in artifacts]),
        "bandwidth": sha256([a.bandwidth_csv for a in artifacts]),
        "checksums": sha256(
            ([sorted(a.checksums.items()) for a in artifacts], report.to_json())
        ),
    }


#: The key of the Hadoop HashJoin's corpus entry.
HADOOP_KEY = "hadoop/hashjoin/panthera"


def run_hadoop() -> Dict[str, str]:
    """Two HashJoins on a 48 MiB panthera node, driving its heap and
    runtime directly (no RDDs): a DRAM-tagged build table, then a
    monitored NVM-tagged one.  Digested
    over the clock, the device counters, the bandwidth series, the GC
    log and the join results."""
    heap_bytes = 48 * MiB
    config = SystemConfig(
        heap_bytes=heap_bytes,
        dram_bytes=heap_bytes // 3,
        nvm_bytes=heap_bytes - heap_bytes // 3,
        policy=PolicyName.PANTHERA,
        interleave_chunk_bytes=MiB,
        large_array_threshold=64 * 1024,
    )
    node = SparkContext.create(config)
    machine, heap, collector = node.machine, node.heap, node.collector
    runtime = node.runtime
    build = [(key, f"dim{key}") for key in range(16)]
    probe = [[(k % 16, f"fact{k}") for k in range(s, s + 4)] for s in range(0, 48, 4)]
    results = []
    for tag, monitored in ((MemoryTag.DRAM, False), (MemoryTag.NVM, True)):
        join = HashJoin(
            heap,
            machine,
            runtime,
            build_records=build,
            build_nbytes=2 * MiB,
            tag=tag,
            monitored=monitored,
        )
        results.append(sorted(join.join(probe, bytes_per_record=MiB).items()))
    counters = [
        (kind.value, vars(device.counters))
        for kind, device in machine.devices.items()
    ]
    return {
        "elapsed": sha256(repr(machine.clock.now_ns)),
        "counters": sha256(counters),
        "bandwidth": sha256(bandwidth_series(machine)),
        "gclog": sha256("\n".join(render_log(collector.stats, machine.elapsed_s))),
        "checksums": sha256(results),
    }


#: The example scripts, pinned by ``examples/<name>`` keys.
EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"


def example_keys() -> List[str]:
    """The corpus key of every example script, sorted."""
    return sorted(f"examples/{path.stem}" for path in EXAMPLES_DIR.glob("*.py"))


def run_example(key: str) -> Dict[str, str]:
    """Run the example script ``key`` names, in process, as ``__main__``;
    digested over its stdout."""
    path = EXAMPLES_DIR / f"{key.split('/', 1)[1]}.py"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return {"stdout": sha256(out.getvalue())}


def count_cyclic_garbage(run: Callable[[], Any]) -> Tuple[Any, int]:
    """Call ``run()`` with CPython's cyclic collector paused.

    Returns ``run``'s value and the number of objects the run left that
    only the cyclic collector can free: everything the run built but its
    value is dropped by then (a cell's result is, once digested), so
    the count is the run's reference cycles and all they hold.
    """
    gc.disable()
    # Everything older than the run is frozen out of the count (and out
    # of the collection's walk, which keeps the check cheap).
    gc.freeze()
    try:
        value = run()
        return value, gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()


def sha256(value: Any) -> str:
    """SHA-256 of ``value`` (a string as is, anything else by ``repr``)."""
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode()).hexdigest()


def bandwidth_series(machine) -> Dict[str, List[tuple]]:
    """Every bandwidth series of ``machine`` as ``(time_s, gbps)`` pairs."""
    return {
        f"{device.value}/{'write' if is_write else 'read'}": [
            (s.time_s, s.gbps) for s in machine.bandwidth.series(device, is_write)
        ]
        for device in DeviceKind
        for is_write in (False, True)
    }


def fingerprint(result) -> Dict[str, str]:
    """The digests of one ``run_experiment`` result.

    The run must have kept its context (``keep_context=True``); the
    ``trace`` digest covers the recorded events when it was traced.
    Floats enter every digest by ``repr``, so any reordering of float
    additions shows up as a changed digest.
    """
    stats = result.context.collector.stats
    report = result.fault_report
    return {
        "elapsed": sha256(repr(result.elapsed_s)),
        "gclog": sha256("\n".join(render_log(stats, result.elapsed_s))),
        "trace": sha256(events_to_jsonl(result.trace_events or [])),
        "bandwidth": sha256(bandwidth_series(result.context.machine)),
        "checksums": sha256(
            json.dumps(
                {
                    "actions": action_checksums(result.action_results),
                    "faults": report.to_dict() if report is not None else None,
                },
                sort_keys=True,
            )
        ),
    }


def compute_corpus() -> Dict[str, Dict[str, str]]:
    """Run every cell of the corpus; returns ``{key: digests}``."""
    corpus = {cell.key: cell.run() for cell in cells()}
    corpus[CLUSTER_KEY] = run_cluster()
    corpus[HADOOP_KEY] = run_hadoop()
    for key in example_keys():
        corpus[key] = run_example(key)
    return corpus


def load_digests() -> Dict[str, Dict[str, str]]:
    """The committed corpus."""
    return json.loads(DIGESTS_PATH.read_text())


def write_digests(corpus: Dict[str, Dict[str, str]]) -> None:
    """Overwrite the committed corpus with ``corpus``, one cell per line
    (so a diff of the file lists exactly the cells that moved)."""
    lines = [
        f"{json.dumps(key)}: {json.dumps(corpus[key], sort_keys=True)}"
        for key in sorted(corpus)
    ]
    DIGESTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
