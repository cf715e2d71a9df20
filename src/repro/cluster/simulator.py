"""The multi-executor cluster: lanes, traffic replay, and the report.

A :class:`Cluster` is N persistent :class:`~repro.cluster.executor.
Executor` nodes plus a driver that replays a :class:`~repro.cluster.
traffic.TrafficPlan` against them.  Placement is decided at plan time —
job *i* runs on executor ``i % N`` — so each executor's job sequence is
a pure function of the plan, and the lanes are fully independent: lane
*k* can replay on its own simulated clock with no cross-lane
synchronisation.  Cross-executor shuffle traffic is modelled by the
deterministic ownership overlay in :mod:`repro.cluster.service`, which
needs only the cluster size, not the other lanes' state.

That independence is what makes ``--jobs N`` trivial *and* byte-exact:
the parallel path pickles each lane's payload to a worker process, runs
the identical :func:`_run_lane_worker`, and reassembles the records —
same function, same inputs, same bytes as the serial loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.config import PolicyName, SystemConfig
from repro.errors import ReproError
from repro.floats import left_sum
from repro.gc.stats import percentile
from repro.harness.configs import paper_config

from repro.cluster.executor import Executor, JobArtifacts, JobRecord
from repro.cluster.faults import ClusterFaultPlan
from repro.cluster.service import ShuffleService
from repro.cluster.traffic import TENANT_SCALE_CYCLE, JobSpec, TrafficPlan


@dataclass
class ClusterReport:
    """What one cluster run measured.

    Attributes:
        executors: cluster size.
        n_jobs: jobs executed.
        makespan_s: first arrival to last completion.
        throughput_jobs_per_s: ``n_jobs / makespan_s``.
        latency_p50_s / latency_p99_s: nearest-rank percentiles of
            job latency (arrival to completion, queueing included).
        wait_mean_s: mean queueing delay.
        gc_s: total GC pause time across the cluster.
        energy_j: total memory energy across the cluster.
        jobs: per-job records in submission order.
        tenants: per-tenant rollup — job count, mean latency, DRAM/NVM
            traffic in GB and as a share of the cluster total.
        executor_summaries: per-executor lifetime summaries.
        service: shared-shuffle-service totals (local/remote fetches,
            remote bytes, wire seconds).
        faults: executor-kill totals (kills fired, partitions and
            blocks lost, partitions recomputed, recompute seconds).
        plan: the traffic plan that was replayed (dict form).
        fault_plan: the cluster fault plan (dict form, None if empty).
    """

    executors: int
    n_jobs: int
    makespan_s: float
    throughput_jobs_per_s: float
    latency_p50_s: float
    latency_p99_s: float
    wait_mean_s: float
    gc_s: float
    energy_j: float
    jobs: List[JobRecord] = field(default_factory=list)
    tenants: Dict[int, Dict[str, float]] = field(default_factory=dict)
    executor_summaries: List[Dict[str, Any]] = field(default_factory=list)
    service: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)
    plan: Dict[str, Any] = field(default_factory=dict)
    fault_plan: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe representation (the determinism oracle:
        two byte-identical runs serialise to identical JSON)."""
        return {
            "executors": self.executors,
            "n_jobs": self.n_jobs,
            "makespan_s": self.makespan_s,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p99_s": self.latency_p99_s,
            "wait_mean_s": self.wait_mean_s,
            "gc_s": self.gc_s,
            "energy_j": self.energy_j,
            "jobs": [j.to_dict() for j in self.jobs],
            "tenants": {str(t): row for t, row in sorted(self.tenants.items())},
            "executor_summaries": self.executor_summaries,
            "service": self.service,
            "faults": self.faults,
            "plan": self.plan,
            "fault_plan": self.fault_plan,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys) of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary_lines(self) -> List[str]:
        """Human-readable report for the CLI."""
        lines = [
            f"cluster: {self.executors} executors, {self.n_jobs} jobs, "
            f"makespan {self.makespan_s:.2f}s",
            f"throughput: {self.throughput_jobs_per_s:.4f} jobs/sim-s",
            f"latency: p50 {self.latency_p50_s:.2f}s  "
            f"p99 {self.latency_p99_s:.2f}s  "
            f"(mean wait {self.wait_mean_s:.2f}s)",
            f"gc: {self.gc_s:.2f}s total   energy: {self.energy_j:.1f} J",
            "shuffle service: "
            f"{self.service.get('local_fetches', 0)} local / "
            f"{self.service.get('remote_fetches', 0)} remote fetches, "
            f"{self.service.get('remote_bytes', 0.0) / (1024**2):.1f} MB "
            f"over the wire ({self.service.get('net_s', 0.0):.3f}s)",
        ]
        if self.faults.get("kills_fired", 0):
            lines.append(
                f"faults: {self.faults['kills_fired']} executor kills, "
                f"{self.faults['partitions_lost']} partitions + "
                f"{self.faults['blocks_lost']} blocks lost, "
                f"{self.faults['partitions_recomputed']} partitions "
                f"recomputed in {self.faults['recompute_s']:.2f}s"
            )
        lines.append("per-tenant utilisation:")
        for tenant, row in sorted(self.tenants.items()):
            lines.append(
                f"  tenant {tenant}: {int(row['jobs'])} jobs, "
                f"mean latency {row['latency_mean_s']:.2f}s, "
                f"DRAM {row['dram_gb']:.2f} GB ({row['dram_share']:.0%}), "
                f"NVM {row['nvm_gb']:.2f} GB ({row['nvm_share']:.0%})"
            )
        lines.append("per-executor utilisation:")
        for summary in self.executor_summaries:
            lines.append(
                f"  executor {summary['executor']}: "
                f"{summary['jobs']} jobs, "
                f"busy {summary['busy_s']:.1f}s "
                f"({summary['utilisation']:.0%}), "
                f"heap DRAM {summary['dram_used_frac']:.0%} / "
                f"NVM {summary['nvm_used_frac']:.0%}"
            )
        return lines


def default_cluster_config(
    plan: TrafficPlan,
    heap_gb: float = 64.0,
    dram_ratio: float = 1.0 / 3.0,
    policy: PolicyName = PolicyName.PANTHERA,
) -> SystemConfig:
    """Per-executor configuration sized for a traffic plan.

    The heap scales with the plan's *largest* job (the biggest tenant
    multiplier), mirroring how :func:`~repro.harness.configs.
    paper_config` couples heap and data scale — every executor must be
    able to run every job the plan can route to it.
    """
    if plan.is_empty:
        heap_scale = plan.base_scale * max(TENANT_SCALE_CYCLE)
    else:
        heap_scale = max(job.scale for job in plan.jobs)
    return paper_config(heap_gb, dram_ratio, policy, scale=heap_scale)


def _run_lane_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Replay one executor's lane of the plan (runs in-process for
    serial clusters and in a worker process under ``--jobs N`` — the
    single code path both modes share)."""
    service = ShuffleService(payload["executors"])
    executor = Executor(payload["index"], service, payload["config"])
    fault_plan: ClusterFaultPlan = payload["fault_plan"]
    records: List[JobRecord] = []
    artifacts: List[JobArtifacts] = []
    for job in payload["jobs"]:
        record, arts = executor.run_job(
            job,
            kills=fault_plan.kills_for_job(job.job_id),
            max_recovery_attempts=fault_plan.max_recovery_attempts,
            keep_artifacts=payload["keep_artifacts"],
        )
        records.append(record)
        if arts is not None:
            artifacts.append(arts)
    return {
        "executor": executor.summary(),
        "jobs": records,
        "artifacts": artifacts,
    }


class Cluster:
    """N executors plus the traffic-replaying driver."""

    def __init__(
        self,
        executors: int,
        heap_gb: float = 64.0,
        dram_ratio: float = 1.0 / 3.0,
        policy: PolicyName = PolicyName.PANTHERA,
    ) -> None:
        if executors < 1:
            raise ReproError("need at least one executor")
        self.executors = executors
        self.heap_gb = heap_gb
        self.dram_ratio = dram_ratio
        self.policy = policy

    def lane_jobs(self, plan: TrafficPlan) -> List[List[JobSpec]]:
        """The plan split into per-executor lanes (round-robin by
        submission index — placement is part of the plan, not a runtime
        decision)."""
        lanes: List[List[JobSpec]] = [[] for _ in range(self.executors)]
        for job in plan.jobs:
            lanes[job.job_id % self.executors].append(job)
        return lanes

    def run(
        self,
        plan: TrafficPlan,
        faults: Optional[ClusterFaultPlan] = None,
        jobs: int = 1,
        keep_artifacts: bool = False,
    ) -> Tuple[ClusterReport, List[JobArtifacts]]:
        """Replay a traffic plan across the cluster.

        Args:
            plan: the seeded traffic plan.
            faults: executor kills to inject (None = fault-free).
            jobs: worker processes for the lane fan-out (1 = serial in
                this process; byte-identical either way).
            keep_artifacts: collect per-job oracle artifacts (GC log,
                trace stream, bandwidth CSV) — heavier, test use only.

        Returns:
            ``(report, artifacts)``; artifacts is empty unless
            ``keep_artifacts`` was set.
        """
        if plan.is_empty:
            raise ReproError("traffic plan has no jobs")
        fault_plan = faults if faults is not None else ClusterFaultPlan()
        config = default_cluster_config(
            plan, self.heap_gb, self.dram_ratio, self.policy
        )
        payloads = [
            {
                "index": lane,
                "executors": self.executors,
                "config": config,
                "fault_plan": fault_plan,
                "jobs": lane_jobs,
                "keep_artifacts": keep_artifacts,
            }
            for lane, lane_jobs in enumerate(self.lane_jobs(plan))
        ]
        payloads = [p for p in payloads if p["jobs"]]
        if jobs > 1 and len(payloads) > 1:
            # Imported here: a serial replay never loads the pool.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=min(jobs, len(payloads))
            ) as pool:
                lane_results = list(pool.map(_run_lane_worker, payloads))
        else:
            lane_results = [_run_lane_worker(p) for p in payloads]
        return self._assemble(plan, fault_plan, lane_results)

    def _assemble(
        self,
        plan: TrafficPlan,
        fault_plan: ClusterFaultPlan,
        lane_results: List[Dict[str, Any]],
    ) -> Tuple[ClusterReport, List[JobArtifacts]]:
        records = sorted(
            (record for lane in lane_results for record in lane["jobs"]),
            key=lambda r: r.job_id,
        )
        artifacts = [a for lane in lane_results for a in lane["artifacts"]]
        latencies = [r.latency_s for r in records]
        first_arrival = min(r.arrival_s for r in records)
        last_finish = max(r.finish_s for r in records)
        makespan = last_finish - first_arrival
        service = {
            "local_fetches": sum(r.local_fetches for r in records),
            "remote_fetches": sum(r.remote_fetches for r in records),
            "remote_bytes": left_sum(r.remote_bytes for r in records),
            "net_s": left_sum(r.net_s for r in records),
        }
        faults = {
            "kills_planned": len(fault_plan.kills),
            "kills_fired": sum(r.kills_fired for r in records),
            "partitions_lost": sum(r.partitions_lost for r in records),
            "blocks_lost": sum(r.blocks_lost for r in records),
            "partitions_recomputed": sum(
                r.partitions_recomputed for r in records
            ),
            "recompute_s": left_sum(r.recompute_s for r in records),
        }
        report = ClusterReport(
            executors=self.executors,
            n_jobs=len(records),
            makespan_s=makespan,
            throughput_jobs_per_s=(
                len(records) / makespan if makespan > 0 else 0.0
            ),
            latency_p50_s=percentile(latencies, 0.5),
            latency_p99_s=percentile(latencies, 0.99),
            wait_mean_s=left_sum(r.wait_s for r in records) / len(records),
            gc_s=left_sum(r.gc_s for r in records),
            energy_j=left_sum(r.energy_j for r in records),
            jobs=records,
            tenants=self._tenant_rollup(records),
            executor_summaries=[lane["executor"] for lane in lane_results],
            service=service,
            faults=faults,
            plan=plan.to_dict(),
            fault_plan=None if fault_plan.is_empty else fault_plan.to_dict(),
        )
        return report, artifacts

    @staticmethod
    def _tenant_rollup(
        records: List[JobRecord],
    ) -> Dict[int, Dict[str, float]]:
        """Per-tenant job counts, latency, and hybrid-memory usage as a
        share of the cluster's device traffic."""
        total_dram = left_sum(r.dram_bytes for r in records)
        total_nvm = left_sum(r.nvm_bytes for r in records)
        rollup: Dict[int, Dict[str, float]] = {}
        for tenant in sorted({r.tenant for r in records}):
            rows = [r for r in records if r.tenant == tenant]
            dram = left_sum(r.dram_bytes for r in rows)
            nvm = left_sum(r.nvm_bytes for r in rows)
            rollup[tenant] = {
                "jobs": float(len(rows)),
                "latency_mean_s": left_sum(r.latency_s for r in rows) / len(rows),
                "wait_mean_s": left_sum(r.wait_s for r in rows) / len(rows),
                "gc_s": left_sum(r.gc_s for r in rows),
                "dram_gb": dram / (1024**3),
                "nvm_gb": nvm / (1024**3),
                "dram_share": dram / total_dram if total_dram else 0.0,
                "nvm_share": nvm / total_nvm if total_nvm else 0.0,
            }
        return rollup
