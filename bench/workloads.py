"""The five benchmark workloads: their inputs, op order and digests.

Every op is one simulated job.  Four workloads run fixed lists of
single-node cells (``run_experiment`` under one configuration) in
rounds, each round a seeded shuffle of the whole list, so every prefix
of the op stream holds each cell about equally often.  ``cluster``
replays one seeded traffic plan on a four-executor cluster; each job
the executors run is an op.

Simulated time is deterministic, so the simulated numbers here serve
only as identity checks (the digests) and as the numerator of
``sim_s_per_wall_s``; they are not validated against hardware.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import (
    PolicyName,
    StorageLevel,
    action_checksums,
    build_workload,
    paper_config,
    run_experiment,
)
from repro.cluster import Cluster, ClusterFaultPlan, Executor, generate_traffic
from repro.cluster.traffic import DEFAULT_WORKLOADS

#: DRAM share of physical memory for every hybrid cell (Figure 4's 1/3).
DRAM_RATIO = 1 / 3


def sha256(value: Any) -> str:
    """SHA-256 of ``repr(value)``."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


@dataclass(frozen=True)
class OpResult:
    """What one op produced, reduced to identity checks and work counts.

    Attributes:
        digest: SHA-256 over the op's simulated statistics and answers.
        answers: SHA-256 over the op's per-action answer checksums.
        input: the op's input identity (workload, scale, iterations);
            ops on the same input must compute the same answers whatever
            the policy, persist level, executor or fault plan.
        sim_s: simulated seconds the op covered.
        minor_gcs / major_gcs / spills / drops / recomputed: simulated
            work counts.
        cell: the timing cell host-time medians are taken over, when it
            is not the op's own key.
    """

    digest: str
    answers: str
    input: Tuple[Any, ...]
    sim_s: float
    minor_gcs: int
    major_gcs: int
    spills: int
    drops: int
    recomputed: int = 0
    cell: Optional[str] = None


def answers_digest(checksums: Dict[str, str]) -> str:
    """Order-independent digest of per-action answer checksums."""
    return sha256(sorted(checksums.items()))


@dataclass(frozen=True)
class Cell:
    """One single-node experiment configuration."""

    workload: str
    scale: float
    policy: PolicyName = PolicyName.PANTHERA
    heap_gb: float = 64.0
    iterations: Optional[int] = None
    persist: Optional[StorageLevel] = None

    @property
    def key(self) -> str:
        """Stable cell name (the ``bench/expected.json`` key)."""
        parts = [
            self.workload,
            self.policy.value,
            f"s{self.scale:g}",
            f"h{self.heap_gb:g}",
        ]
        if self.iterations is not None:
            parts.append(f"i{self.iterations}")
        if self.persist is not None:
            parts.append(self.persist.value)
        return "/".join(parts)

    @property
    def input(self) -> Tuple[Any, ...]:
        """The input identity the answers depend on."""
        return (self.workload, self.scale, self.iterations)

    def build_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the workload builder."""
        kwargs: Dict[str, Any] = {}
        if self.iterations is not None:
            kwargs["iterations"] = self.iterations
        if self.persist is not None:
            kwargs["persist_level"] = self.persist
        return kwargs

    def execute(self):
        """Run the cell once; returns the ``ExperimentResult``."""
        config = paper_config(self.heap_gb, DRAM_RATIO, self.policy, scale=self.scale)
        return run_experiment(
            self.workload,
            config,
            scale=self.scale,
            workload_kwargs=self.build_kwargs(),
        )

    def summarize(self, result) -> OpResult:
        """Reduce an ``ExperimentResult`` to its digests and counts."""
        return OpResult(
            digest=sha256(
                (
                    result.elapsed_s,
                    result.gc_s,
                    result.minor_gcs,
                    result.major_gcs,
                    result.spilled_blocks,
                    result.dropped_blocks,
                    sorted(result.action_results.items()),
                )
            ),
            answers=answers_digest(action_checksums(result.action_results)),
            input=self.input,
            sim_s=result.elapsed_s,
            minor_gcs=result.minor_gcs,
            major_gcs=result.major_gcs,
            spills=result.spilled_blocks,
            drops=result.dropped_blocks,
        )


class CellWorkload:
    """Independent single-node cells, run in seeded rounds."""

    def __init__(self, cells: List[Cell]) -> None:
        self.cells = cells

    def build_inputs(self) -> None:
        """Build every input once (fills the per-process dataset memo)."""
        for cell in self.cells:
            kwargs = {"iterations": cell.iterations} if cell.iterations else {}
            build_workload(cell.workload, scale=cell.scale, **kwargs)

    def warm_up(self, loop) -> None:
        """One pass over the distinct cells; records reference digests."""
        self.play(loop, self.cells)

    def rounds(self, seed: int) -> Iterator[List[Cell]]:
        """Endless rounds, each a seeded permutation of every cell."""
        rng = random.Random(seed)
        while True:
            order = list(self.cells)
            rng.shuffle(order)
            yield order

    def parts(self, cells: List[Cell]) -> List[List[Cell]]:
        """A round in the pieces a paired run repeats: single cells."""
        return [[cell] for cell in cells]

    def play(self, loop, cells: List[Cell]) -> None:
        """Run one round of cells through ``loop``.  An op that raises
        is counted failed by the loop; the round carries on."""
        for cell in cells:
            try:
                loop.op(cell.key, cell.summarize, cell.execute)
            except Exception:
                continue


#: Cluster shape: four executors (lanes), up to 160 jobs, 8 kills.
#: TC is left out of the mix: one TC job costs the host about as much
#: as 20 of the others, so the few TC jobs a seed draws would set the
#: cluster's throughput (policy-matrix runs TC).
EXECUTORS = 4
CLUSTER_MIX = tuple(w for w in DEFAULT_WORKLOADS if w != "TC")
CLUSTER_JOBS = 160
CLUSTER_KILLS = 8


class ClusterWorkload:
    """One seeded traffic plan replayed serially on ``Cluster(4)``.

    The seed draws the whole plan (``generate_traffic``: arrivals,
    tenants, workloads, scales) and the executor kills.  Each replay
    builds a fresh cluster, so replays of one plan are identical, and
    within a replay executors keep their state (cached blocks, shuffle
    outputs) from job to job, about 40 jobs each.

    Ops are timed per input (workload and scale), not per job: with
    160 jobs every seed draws nearly every input, so the per-input
    medians barely move with the seed, where per-job ones follow the
    mix it drew.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.plan = generate_traffic(
            seed,
            duration_s=1000,
            rate_jobs_per_s=0.2,
            workloads=CLUSTER_MIX,
            base_scale=0.1,
            max_jobs=CLUSTER_JOBS,
        )
        self.faults = ClusterFaultPlan.random(
            seed,
            executors=EXECUTORS,
            max_boundary=3,
            kills=CLUSTER_KILLS,
            jobs=len(self.plan.jobs),
        )

    def _inputs(self) -> List[Tuple[str, float]]:
        return sorted({(job.workload, job.scale) for job in self.plan.jobs})

    def build_inputs(self) -> None:
        """Build every job's input once (fills the dataset memo)."""
        for workload, scale in self._inputs():
            build_workload(workload, scale=scale)

    def warm_up(self, loop) -> None:
        """Reference answers from a fault-free single-node DRAM-only run
        of each job's input, then one untimed replay that records every
        job's reference digest."""
        for workload, scale in self._inputs():
            config = paper_config(64, 1.0, PolicyName.DRAM_ONLY, scale=scale)
            result = run_experiment(workload, config, scale=scale)
            loop.checker.answers[(workload, scale, None)] = answers_digest(
                action_checksums(result.action_results)
            )
        self.play(loop, None)

    def rounds(self, seed: int) -> Iterator[None]:
        """Endless replays of the same plan."""
        while True:
            yield None

    def parts(self, _round) -> List[None]:
        """A round in the pieces a paired run repeats: jobs depend on
        the executor state earlier jobs left, so the whole replay."""
        return [None]

    def key(self, job_id: int) -> str:
        """The ``bench/expected.json`` key of one job of this plan."""
        return f"seed{self.seed}/job{job_id}"

    @staticmethod
    def summarize(returned) -> OpResult:
        """Reduce ``Executor.run_job``'s return to digests and counts."""
        record = returned[0]
        return OpResult(
            digest=sha256(sorted(record.to_dict().items())),
            answers=answers_digest(record.checksums),
            input=(record.workload, record.scale, None),
            sim_s=record.exec_s,
            minor_gcs=record.minor_gcs,
            major_gcs=record.major_gcs,
            spills=record.spilled_blocks,
            drops=record.dropped_blocks,
            recomputed=record.partitions_recomputed,
            cell=f"{record.workload}/s{record.scale:g}",
        )

    def play(self, loop, _round) -> None:
        """Replay the plan once; each ``Executor.run_job`` call is an op.

        The op wrapper goes on top of whatever ``run_job`` is installed
        (the traced one during a traced replay).  The replay's
        ``ClusterReport`` digest is checked as well.
        """
        inner: Callable = Executor.run_job
        workload = self

        def run_job(executor, job, *args, **kwargs):
            return loop.op(
                workload.key(job.job_id),
                workload.summarize,
                inner,
                executor,
                job,
                *args,
                **kwargs,
            )

        Executor.run_job = run_job
        try:
            report, _ = Cluster(EXECUTORS).run(self.plan, self.faults)
        except Exception:
            # The failing job was counted by the loop; the rest of this
            # replay is lost with it.
            return
        finally:
            Executor.run_job = inner
        loop.checker.check_value(f"seed{self.seed}/report", sha256(report.to_json()))


def make(name: str, seed: int):
    """The workload called ``name``, with inputs drawn from ``seed``."""
    if name == "cluster":
        return ClusterWorkload(seed)
    return CellWorkload(CELLS[name])


#: The cell lists of the single-node workloads.
CELLS: Dict[str, List[Cell]] = {
    # The per-record data plane: PageRank and connected components.
    "graph": [Cell(w, 5.0, iterations=3) for w in ("PR", "CC")],
    # The columnar plane: K-means, logistic regression, naive Bayes.
    "ml": [
        Cell("KM", 10.0, iterations=3),
        Cell("LR", 10.0, iterations=3),
        Cell("BC", 10.0),
    ],
    # The cost plane and GC: every workload under four policies.
    "policy-matrix": [
        Cell(w, 0.1, policy=p)
        for w in DEFAULT_WORKLOADS
        for p in (
            PolicyName.PANTHERA,
            PolicyName.UNMANAGED,
            PolicyName.DRAM_ONLY,
            PolicyName.DECA,
        )
    ],
    # Storage levels under a tight heap: spills, drops and serialized
    # persists.
    "storage-pressure": [
        Cell(w, 1.0, heap_gb=36.0, iterations=3, persist=level)
        for w in ("KM", "LR", "PR")
        for level in (
            StorageLevel.MEMORY_ONLY,
            StorageLevel.MEMORY_ONLY_SER,
            StorageLevel.MEMORY_AND_DISK,
        )
    ],
}

NAMES = ("graph", "ml", "policy-matrix", "storage-pressure", "cluster")
