"""Running one (workload, configuration) experiment end to end."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import DeviceKind, PolicyName, SystemConfig
from repro.core.static_analysis import StaticAnalysis
from repro.faults import FaultInjector, FaultPlan, FaultReport
from repro.memory.machine import Machine
from repro.spark.context import SparkContext
from repro.spark.program import execute_program
from repro.trace import TraceSession
from repro.trace.events import TraceEvent
from repro.workloads.registry import build_workload


@dataclass
class ExperimentResult:
    """Everything one run produces.

    Attributes:
        workload: Table 4 abbreviation.
        policy: the placement policy that ran.
        heap_gb: heap size in GB.
        dram_ratio: DRAM share of physical memory.
        elapsed_s: total simulated wall time.
        gc_s: total GC pause time (Figure 5's upper bars).
        mutator_s: elapsed minus GC (Figure 5's computation bars).
        minor_gcs / major_gcs: collection counts.
        energy_j: total memory energy.
        energy_by_device: per-device {"static_j", "dynamic_j"}.
        monitored_calls: Table 5 column 2.
        migrated_rdds: Table 5 column 3.
        spilled_blocks / dropped_blocks: block-manager pressure events.
        card_scanned_gb / stuck_rescans: card-table behaviour (§4.2.3).
        action_results: the workload's actual outputs (for validation).
        analysis: the static analysis result (Panthera runs only).
        context: the live SparkContext when ``keep_context`` was set.
        trace_events: the recorded heap event stream when ``trace`` was
            set (plain picklable dataclasses, preserved across process
            boundaries).
        fault_report: the measured fault outcome when a
            :class:`~repro.faults.plan.FaultPlan` was injected
            (recomputation cost, recovery GC work, fallback bytes,
            throttle time).
    """

    workload: str
    policy: PolicyName
    heap_gb: float
    dram_ratio: float
    elapsed_s: float
    gc_s: float
    mutator_s: float
    minor_gcs: int
    major_gcs: int
    energy_j: float
    energy_by_device: Dict[str, Dict[str, float]]
    monitored_calls: int
    migrated_rdds: int
    spilled_blocks: int
    dropped_blocks: int
    card_scanned_gb: float
    stuck_rescans: int
    action_results: Dict[str, Any] = field(default_factory=dict)
    analysis: Optional[StaticAnalysis] = None
    context: Optional[SparkContext] = None
    trace_events: Optional[List[TraceEvent]] = None
    fault_report: Optional[FaultReport] = None

    def without_runtime_handles(
        self, keep_analysis: bool = True
    ) -> "ExperimentResult":
        """A copy safe to pickle across process boundaries.

        Drops the live :class:`~repro.spark.context.SparkContext` (a web
        of heap objects, open traces and the whole machine) and — when
        ``keep_analysis`` is False — the static-analysis record.  All
        scalar metrics and action results are preserved, so stripped
        results compare equal to serial ones field for field.
        """
        return dataclasses.replace(
            self,
            context=None,
            analysis=self.analysis if keep_analysis else None,
        )


def run_experiment(
    workload: str,
    config: SystemConfig,
    scale: float = 1.0,
    workload_kwargs: Optional[Dict[str, Any]] = None,
    keep_context: bool = False,
    trace: bool = False,
    faults: Optional[FaultPlan] = None,
) -> ExperimentResult:
    """Run one workload under one configuration.

    Args:
        workload: Table 4 abbreviation (PR, KM, LR, TC, CC, SSSP, BC).
        config: the node configuration (heap, DRAM/NVM split, policy).
        scale: joint data-size scale factor; configurations should be
            built with the same scale so pressure ratios match the paper.
        workload_kwargs: forwarded to the workload builder.
        keep_context: retain the full context on the result (heavier, but
            needed for bandwidth traces and heap inspection).
        trace: record the heap event stream (see :mod:`repro.trace`) and
            attach it to the result as ``trace_events``.
        faults: inject this :class:`~repro.faults.plan.FaultPlan` (see
            :mod:`repro.faults`); the measured
            :class:`~repro.faults.report.FaultReport` rides on the
            result as ``fault_report``.
    """
    spec = build_workload(workload, scale=scale, **(workload_kwargs or {}))
    ctx = SparkContext.create(config)
    session = TraceSession.attach_to_context(ctx) if trace else None
    # The injector attaches after tracing so balloon allocations and
    # throttle-window announcements reach the event stream.
    injector = (
        FaultInjector.attach(faults, ctx) if faults is not None else None
    )
    action_results, analysis = execute_spec(spec, ctx)
    result = _collect(spec.name, config, ctx, action_results, analysis, keep_context)
    if session is not None:
        result.trace_events = session.events
    if injector is not None:
        result.fault_report = injector.report()
    return result


def execute_spec(spec, ctx: SparkContext):
    """Execute one built workload spec's program on a live context.

    The single execution path shared by :func:`run_experiment` and the
    cluster executor (:mod:`repro.cluster.executor`): the policy prepares
    the program (Panthera's static analysis, Deca's lifetime classes),
    the program executes with them, and the policy closes the job.
    Keeping this seam shared is what makes a 1-executor cluster job
    byte-identical to ``run_experiment`` — the cluster path is a
    generalisation, not a fork.

    Returns:
        ``(action_results, analysis)`` where ``analysis`` is None unless
        the policy ran Panthera's static analysis.
    """
    tags, lifetimes, analysis = ctx.policy.prepare_program(spec.program)
    action_results = execute_program(spec.program, ctx, tags, lifetimes=lifetimes)
    ctx.policy.job_end(ctx)
    return action_results, analysis


def _collect(
    name: str,
    config: SystemConfig,
    ctx: SparkContext,
    action_results: Dict[str, Any],
    analysis: Optional[StaticAnalysis],
    keep_context: bool,
) -> ExperimentResult:
    machine: Machine = ctx.machine
    stats = ctx.collector.stats
    elapsed = machine.elapsed_s
    gc_s = stats.total_gc_s
    energy_by_device = {
        kind.value: {"static_j": b.static_j, "dynamic_j": b.dynamic_j}
        for kind, b in machine.energy_breakdown().items()
        if kind is not DeviceKind.DISK
    }
    return ExperimentResult(
        workload=name,
        policy=config.policy,
        heap_gb=config.heap_bytes / (1024**3),
        dram_ratio=config.dram_ratio,
        elapsed_s=elapsed,
        gc_s=gc_s,
        mutator_s=elapsed - gc_s,
        minor_gcs=stats.minor_count,
        major_gcs=stats.major_count,
        energy_j=machine.energy_j(),
        energy_by_device=energy_by_device,
        monitored_calls=ctx.monitor.total_calls if ctx.monitor else 0,
        migrated_rdds=stats.migrated_rdd_count,
        spilled_blocks=ctx.block_manager.spilled_count,
        dropped_blocks=ctx.block_manager.dropped_count,
        card_scanned_gb=stats.card_scanned_bytes / (1024**3),
        stuck_rescans=stats.stuck_rescans,
        action_results=action_results,
        analysis=analysis,
        context=ctx if keep_context else None,
    )
