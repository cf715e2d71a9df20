"""One cluster executor: a persistent simulated node running jobs.

An :class:`Executor` owns a full single-node stack — its own
:class:`~repro.memory.machine.Machine` (devices + clock + energy), its
own hybrid DRAM/NVM :class:`~repro.heap.managed_heap.ManagedHeap` and
collector — built once and reused across jobs, so the simulated clock
accumulates and queueing delay emerges naturally: a job that arrives
while the executor is busy waits.

Each job is one Spark application, ended by
:meth:`~repro.spark.context.SparkContext.end_job`: across jobs an
executor keeps its clock, heap, GC state and cached source RDDs.

Each job runs through exactly the same execution path as
:func:`~repro.harness.experiment.run_experiment` (the shared
:func:`~repro.harness.experiment.execute_spec` seam).  Two things tie
it to the cluster:

* the executor installs a :class:`ShuffleClient` as ``ctx.cluster``
  for its lifetime; the scheduler calls
  :meth:`ShuffleClient.shuffle_fetch` on every reduce partition fetch,
  and remote-owned partitions pay the network hop;
* each job gets a :class:`~repro.faults.injector.FaultInjector` with an
  *empty* plan and the job's :class:`~repro.cluster.faults.ExecutorKill`
  events armed — byte-neutral without kills, and with them the kills
  fire and recover through the injector like single-node kills.

With one executor and no kills both are no-ops on the machine and the
trace bus, which is what makes a 1-executor cluster job byte-identical
to ``run_experiment`` — the oracle test pins that.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import DeviceKind, SystemConfig
from repro.faults import FaultInjector, FaultPlan, action_checksums
from repro.gc.gclog import render_log
from repro.gc.stats import GCStats
from repro.harness.experiment import execute_spec
from repro.harness.export import bandwidth_csv_from_machine
from repro.spark.context import SparkContext
from repro.trace import TraceSession
from repro.trace.events import TraceEvent
from repro.workloads.registry import build_workload

from repro.cluster.faults import ExecutorKill
from repro.cluster.service import ShuffleService
from repro.cluster.traffic import JobSpec


@dataclass
class JobRecord:
    """Everything one cluster job produced, as per-job deltas.

    All scalar metrics are deltas over the executor's counters between
    job start (after idle-advancing to the arrival time) and job end,
    so they sum cleanly across jobs and tenants.
    """

    job_id: int
    tenant: int
    workload: str
    scale: float
    executor: int
    arrival_s: float
    start_s: float
    finish_s: float
    wait_s: float
    exec_s: float
    latency_s: float
    boundaries: int
    actions: int
    gc_s: float
    minor_gcs: int
    major_gcs: int
    energy_j: float
    dram_bytes: float
    nvm_bytes: float
    local_fetches: int
    remote_fetches: int
    remote_bytes: float
    net_s: float
    kills_fired: int
    partitions_lost: int
    blocks_lost: int
    partitions_recomputed: int
    recompute_s: float
    spilled_blocks: int
    dropped_blocks: int
    dram_used_frac: float
    nvm_used_frac: float
    checksums: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (all fields, stable keys)."""
        return asdict(self)


@dataclass
class JobArtifacts:
    """The oracle-grade artifacts of one job (serial runs only ask for
    these): the per-job GC log, the recorded trace stream, the
    executor-lifetime bandwidth series and the action checksums."""

    gclog: List[str]
    trace_events: List[TraceEvent]
    bandwidth_csv: str
    checksums: Dict[str, str]


class _Counters:
    """Snapshot of every per-job-delta source on one executor."""

    def __init__(self, executor: "Executor") -> None:
        ctx = executor.ctx
        stats = ctx.collector.stats
        machine = ctx.machine
        self.clock_ns = machine.clock.now_ns
        self.pauses = len(stats.pauses)
        self.minor_count = stats.minor_count
        self.major_count = stats.major_count
        self.minor_ns = stats.minor_ns
        self.major_ns = stats.major_ns
        self.energy_j = machine.energy_j()
        self.device_bytes = {
            kind: device.counters.read_bytes + device.counters.write_bytes
            for kind, device in machine.devices.items()
        }
        self.spilled = ctx.block_manager.spilled_count
        self.dropped = ctx.block_manager.dropped_count
        self.fetches = executor.service.mark()


class ShuffleClient:
    """An executor's side of the shared shuffle service, installed as its
    context's ``cluster`` hook.

    It holds what a fetch reads — the executor's index, the service and
    the context's shuffle manager and machine — and never the executor
    or the context, so the context that owns it closes no reference
    cycle.

    Attributes:
        index: the executor's index in the cluster.
        service: the shared shuffle service (executor kills read it).
    """

    def __init__(self, index: int, service: ShuffleService, ctx) -> None:
        self.index = index
        self.service = service
        self._shuffles = ctx.shuffles
        self._machine = ctx.machine

    def shuffle_fetch(self, dep, pidx: int) -> None:
        """Route one reduce-partition fetch through the shared service
        (the scheduler calls this from ``fetch_shuffle`` through
        ``ctx.cluster``): a remote owner costs a network hop on this
        (fetching) machine."""
        service = self.service
        ordinal = self._shuffles.ordinal(dep.shuffle_id)
        if service.owner_of(ordinal, pidx) == self.index:
            service.record_local()
            return
        ser_bytes = self._shuffles.serialized_bytes(dep.shuffle_id, pidx)
        hop_ns = service.hop_ns(ser_bytes)
        # A pure-CPU batch: the clock advances by the wire time but no
        # device counters or bandwidth windows are touched (the local
        # disk read that follows stands in for the remote service read).
        self._machine.run_batch([((), hop_ns)])
        service.record_remote(ser_bytes, hop_ns)


class Executor:
    """One persistent simulated node of the cluster."""

    def __init__(
        self,
        index: int,
        service: ShuffleService,
        config: SystemConfig,
    ) -> None:
        self.index = index
        self.service = service
        self.config = config
        self.ctx = SparkContext.create(config)
        self.ctx.cluster = ShuffleClient(index, service, self.ctx)
        self.jobs_run = 0
        self.busy_ns = 0.0

    # -- job execution --------------------------------------------------

    def run_job(
        self,
        job: JobSpec,
        kills: Sequence[ExecutorKill] = (),
        max_recovery_attempts: int = 3,
        keep_artifacts: bool = False,
    ) -> Tuple[JobRecord, Optional[JobArtifacts]]:
        """Run one job to completion on this executor.

        The executor idles forward to the job's arrival time if it is
        free earlier; otherwise the job queues and its wait time is the
        difference.  Once the record and artifacts are taken, the job
        ends.  Returns the per-job record and, when ``keep_artifacts``
        is set, the oracle artifacts.
        """
        ctx = self.ctx
        clock = ctx.machine.clock
        arrival_ns = job.arrival_s * 1e9
        if arrival_ns > clock.now_ns:
            clock.advance(arrival_ns - clock.now_ns)
        start_ns = clock.now_ns
        spec = build_workload(
            job.workload, scale=job.scale, **job.workload_kwargs()
        )
        before = _Counters(self)
        # Attachment order matches run_experiment: the trace session
        # first, then the injector (empty plan: byte-neutral).
        session = TraceSession.attach_to_context(ctx) if keep_artifacts else None
        injector = FaultInjector.attach(
            FaultPlan(max_recovery_attempts=max_recovery_attempts),
            ctx,
            executor_kills=kills,
        )
        try:
            action_results, _ = execute_spec(spec, ctx)
        finally:
            ctx.faults = None
            if session is not None:
                session.detach()
        record = self._collect(job, before, injector, action_results)
        artifacts: Optional[JobArtifacts] = None
        if keep_artifacts:
            artifacts = JobArtifacts(
                gclog=self._job_gclog(before, record.exec_s),
                trace_events=session.events if session is not None else [],
                bandwidth_csv=bandwidth_csv_from_machine(ctx.machine),
                checksums=dict(record.checksums),
            )
        ctx.end_job()
        self.jobs_run += 1
        self.busy_ns += clock.now_ns - start_ns
        return record, artifacts

    def _collect(
        self,
        job: JobSpec,
        before: _Counters,
        injector: FaultInjector,
        action_results: Dict[str, Any],
    ) -> JobRecord:
        ctx = self.ctx
        stats = ctx.collector.stats
        machine = ctx.machine
        start_s = before.clock_ns / 1e9
        finish_s = machine.clock.now_ns / 1e9
        devices = machine.devices
        occupancy = self.heap_occupancy()
        fetches = self.service.stats(since=before.fetches)
        return JobRecord(
            job_id=job.job_id,
            tenant=job.tenant,
            workload=job.workload,
            scale=job.scale,
            executor=self.index,
            arrival_s=job.arrival_s,
            start_s=start_s,
            finish_s=finish_s,
            # Clamped: idle-advancing to the arrival rounds through
            # integer-ish nanoseconds, which can land one ulp early.
            wait_s=max(0.0, start_s - job.arrival_s),
            exec_s=finish_s - start_s,
            latency_s=finish_s - job.arrival_s,
            boundaries=injector.boundaries_seen,
            actions=len(action_results),
            gc_s=(
                (stats.minor_ns - before.minor_ns)
                + (stats.major_ns - before.major_ns)
            )
            / 1e9,
            minor_gcs=stats.minor_count - before.minor_count,
            major_gcs=stats.major_count - before.major_count,
            energy_j=machine.energy_j() - before.energy_j,
            dram_bytes=(
                devices[DeviceKind.DRAM].counters.read_bytes
                + devices[DeviceKind.DRAM].counters.write_bytes
                - before.device_bytes[DeviceKind.DRAM]
            ),
            nvm_bytes=(
                devices[DeviceKind.NVM].counters.read_bytes
                + devices[DeviceKind.NVM].counters.write_bytes
                - before.device_bytes[DeviceKind.NVM]
            ),
            local_fetches=fetches["local_fetches"],
            remote_fetches=fetches["remote_fetches"],
            remote_bytes=fetches["remote_bytes"],
            net_s=fetches["net_s"],
            kills_fired=injector.kills_fired,
            partitions_lost=injector.partitions_lost,
            blocks_lost=injector.blocks_lost,
            partitions_recomputed=injector.partitions_recomputed,
            recompute_s=injector.recompute_ns / 1e9,
            spilled_blocks=ctx.block_manager.spilled_count - before.spilled,
            dropped_blocks=ctx.block_manager.dropped_count - before.dropped,
            dram_used_frac=occupancy[0],
            nvm_used_frac=occupancy[1],
            checksums=action_checksums(action_results),
        )

    def _job_gclog(self, before: _Counters, exec_s: float) -> List[str]:
        """This job's GC log: its own pauses plus a summary over the
        job's execution window.  Rendered through the same code path as
        ``repro run --gclog`` via a delta :class:`GCStats`, so a first
        job on a fresh executor is byte-identical to the single-node
        log."""
        stats = self.ctx.collector.stats
        delta = GCStats(
            minor_count=stats.minor_count - before.minor_count,
            major_count=stats.major_count - before.major_count,
            minor_ns=stats.minor_ns - before.minor_ns,
            major_ns=stats.major_ns - before.major_ns,
            pauses=list(stats.pauses[before.pauses:]),
        )
        return render_log(delta, exec_s)

    # -- metrics --------------------------------------------------------

    def heap_occupancy(self) -> Tuple[float, float]:
        """Live-byte occupancy of DRAM and NVM as a fraction of each
        device's capacity (sampled over every heap space, plus the
        serialized off-heap tier's packed batches on the native
        device)."""
        heap = self.ctx.heap
        used: Dict[DeviceKind, int] = {}
        for space in heap.young_spaces + heap.old_spaces:
            for device, nbytes in space.device_histogram().items():
                used[device] = used.get(device, 0) + nbytes
        tier_bytes = int(self.ctx.block_manager.serialized_tier_bytes())
        if tier_bytes:
            used[heap.native.device] = (
                used.get(heap.native.device, 0) + tier_bytes
            )
        dram = self.config.dram_bytes
        nvm = self.config.nvm_bytes
        return (
            used.get(DeviceKind.DRAM, 0) / dram if dram else 0.0,
            used.get(DeviceKind.NVM, 0) / nvm if nvm else 0.0,
        )

    def summary(self) -> Dict[str, Any]:
        """Executor-lifetime summary for the cluster report."""
        ctx = self.ctx
        stats = ctx.collector.stats
        machine = ctx.machine
        final_s = machine.clock.now_s
        busy_s = self.busy_ns / 1e9
        occupancy = self.heap_occupancy()
        return {
            "executor": self.index,
            "jobs": self.jobs_run,
            "final_clock_s": final_s,
            "busy_s": busy_s,
            "utilisation": busy_s / final_s if final_s > 0 else 0.0,
            "gc_s": stats.total_gc_s,
            "minor_gcs": stats.minor_count,
            "major_gcs": stats.major_count,
            "energy_j": machine.energy_j(),
            "dram_bytes": (
                machine.devices[DeviceKind.DRAM].counters.read_bytes
                + machine.devices[DeviceKind.DRAM].counters.write_bytes
            ),
            "nvm_bytes": (
                machine.devices[DeviceKind.NVM].counters.read_bytes
                + machine.devices[DeviceKind.NVM].counters.write_bytes
            ),
            "dram_used_frac": occupancy[0],
            "nvm_used_frac": occupancy[1],
            "service": self.service.stats(),
        }
