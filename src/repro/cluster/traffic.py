"""Seeded traffic generation: who submits which job, and when.

A :class:`TrafficPlan` is the cluster-scale analogue of a
:class:`~repro.faults.plan.FaultPlan` — a declarative, picklable,
JSON-round-trippable value that names every job the cluster will run
before the simulation starts.  Determinism is the point: the plan is a
pure function of its seed and knobs, two runs of the same plan are
byte-identical, and ``--jobs 1`` vs ``--jobs N`` cannot diverge because
no scheduling decision is taken after generation time.

Two arrival processes (the evaluation vocabulary of "Analysis of Server
Throughput for Managed Big Data Analytics Frameworks", PAPERS.md):

* ``poisson`` — memoryless arrivals at a constant rate, the classic
  open-loop load model.
* ``diurnal`` — a sinusoidally modulated Poisson process (thinning
  construction), modelling the day/night swing of a shared cluster.

Tenants are skewed two ways: a Zipf-ish submission share (tenant 0
submits the most jobs) and a per-tenant data-scale multiplier (some
tenants run bigger jobs), both drawn once, deterministically, from the
plan seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Default workload mix: every registered Table 4 workload.
DEFAULT_WORKLOADS = ("PR", "KM", "LR", "TC", "CC", "SSSP", "BC")

#: Per-tenant data-scale multipliers, cycled over tenant ids — tenant 0
#: runs 1.5x jobs, tenant 3 half-size jobs (skewed scale factors).
TENANT_SCALE_CYCLE = (1.5, 1.0, 0.75, 0.5)

#: Workloads whose builder has no iteration knob (single-pass jobs);
#: the plan-level ``iterations`` override does not apply to them.
NON_ITERATIVE_WORKLOADS = frozenset({"BC"})


@dataclass(frozen=True)
class JobSpec:
    """One submitted job.

    Attributes:
        job_id: dense submission index (0-based, arrival order).
        arrival_s: submission time on the simulated cluster clock.
        tenant: submitting tenant id (0-based).
        workload: Table 4 abbreviation (PR, KM, ...).
        scale: data-scale factor for this job (base scale times the
            tenant's multiplier).
        iterations: workload iteration override (None = builder default).
    """

    job_id: int
    arrival_s: float
    tenant: int
    workload: str
    scale: float
    iterations: Optional[int] = None

    def workload_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for the workload builder."""
        return {"iterations": self.iterations} if self.iterations else {}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (None fields omitted)."""
        row: Dict[str, Any] = {
            "job_id": self.job_id,
            "arrival_s": self.arrival_s,
            "tenant": self.tenant,
            "workload": self.workload,
            "scale": self.scale,
        }
        if self.iterations is not None:
            row["iterations"] = self.iterations
        return row


@dataclass(frozen=True)
class TrafficPlan:
    """Every job one cluster run will execute, decided up front.

    Attributes:
        jobs: the submitted jobs in arrival order.
        seed: the generation seed (provenance).
        process: arrival process name (``poisson`` or ``diurnal``).
        rate_jobs_per_s: mean arrival rate the plan was generated at.
        duration_s: the arrival horizon.
        tenants: tenant count.
        base_scale: data scale before per-tenant multipliers.
    """

    jobs: Tuple[JobSpec, ...] = field(default_factory=tuple)
    seed: int = 0
    process: str = "poisson"
    rate_jobs_per_s: float = 0.0
    duration_s: float = 0.0
    tenants: int = 1
    base_scale: float = 0.02

    @property
    def is_empty(self) -> bool:
        """True when no jobs were generated."""
        return not self.jobs

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe representation."""
        return {
            "jobs": [j.to_dict() for j in self.jobs],
            "seed": self.seed,
            "process": self.process,
            "rate_jobs_per_s": self.rate_jobs_per_s,
            "duration_s": self.duration_s,
            "tenants": self.tenants,
            "base_scale": self.base_scale,
        }

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"{len(self.jobs)} jobs over {self.duration_s:g}s "
            f"({self.process}, rate {self.rate_jobs_per_s:g}/s, "
            f"{self.tenants} tenants, seed {self.seed})"
        )


def tenant_scale(tenant: int, base_scale: float) -> float:
    """The skewed data scale for one tenant's jobs."""
    return base_scale * TENANT_SCALE_CYCLE[tenant % len(TENANT_SCALE_CYCLE)]


def generate_traffic(
    seed: int,
    duration_s: float = 60.0,
    rate_jobs_per_s: float = 0.2,
    workloads: Optional[Sequence[str]] = None,
    process: str = "poisson",
    tenants: int = 4,
    base_scale: float = 0.02,
    tenant_skew: float = 1.2,
    diurnal_period_s: Optional[float] = None,
    diurnal_amplitude: float = 0.8,
    iterations: Optional[int] = None,
    max_jobs: Optional[int] = None,
) -> TrafficPlan:
    """Generate a seeded traffic plan.

    Args:
        seed: drives a private :class:`random.Random`; same seed, same
            plan, byte for byte.
        duration_s: arrival horizon in simulated seconds.
        rate_jobs_per_s: mean arrival rate (for ``diurnal`` this is the
            rate averaged over a full period).
        workloads: workload mix (default: all seven registered).
        process: ``poisson`` or ``diurnal``.
        tenants: tenant count (>= 1); submission shares follow a
            Zipf-ish law with exponent ``tenant_skew`` and data scales
            follow :data:`TENANT_SCALE_CYCLE`.
        base_scale: data scale before the tenant multiplier.
        tenant_skew: Zipf exponent of the submission-share skew.
        diurnal_period_s: sinusoid period (default: the full horizon).
        diurnal_amplitude: relative swing of the diurnal rate, in
            ``[0, 1)`` (0 degenerates to Poisson).
        iterations: per-job workload iteration override.
        max_jobs: cap on generated jobs (None = unlimited).
    """
    if duration_s <= 0:
        raise ReproError("traffic horizon must be positive")
    if rate_jobs_per_s <= 0:
        raise ReproError("arrival rate must be positive")
    if tenants < 1:
        raise ReproError("need at least one tenant")
    if process not in ("poisson", "diurnal"):
        raise ReproError(f"unknown arrival process {process!r}")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ReproError("diurnal amplitude must be in [0, 1)")
    mix = tuple(workloads if workloads is not None else DEFAULT_WORKLOADS)
    if not mix:
        raise ReproError("workload mix is empty")
    rng = random.Random(seed)
    tenant_weights = [1.0 / (t + 1) ** tenant_skew for t in range(tenants)]
    period = diurnal_period_s if diurnal_period_s else duration_s
    peak_rate = rate_jobs_per_s * (1.0 + diurnal_amplitude)

    jobs: List[JobSpec] = []
    t = 0.0
    while True:
        if process == "poisson":
            t += rng.expovariate(rate_jobs_per_s)
            accepted = True
        else:
            # Thinning: candidate arrivals at the peak rate, accepted
            # with probability lambda(t) / peak.
            t += rng.expovariate(peak_rate)
            lam = rate_jobs_per_s * (
                1.0 + diurnal_amplitude * math.sin(2.0 * math.pi * t / period)
            )
            accepted = rng.random() * peak_rate <= lam
        if t >= duration_s:
            break
        if not accepted:
            continue
        tenant = rng.choices(range(tenants), weights=tenant_weights)[0]
        workload = rng.choice(mix)
        jobs.append(
            JobSpec(
                job_id=len(jobs),
                arrival_s=t,
                tenant=tenant,
                workload=workload,
                scale=tenant_scale(tenant, base_scale),
                iterations=(
                    None
                    if workload in NON_ITERATIVE_WORKLOADS
                    else iterations
                ),
            )
        )
        if max_jobs is not None and len(jobs) >= max_jobs:
            break
    return TrafficPlan(
        jobs=tuple(jobs),
        seed=seed,
        process=process,
        rate_jobs_per_s=rate_jobs_per_s,
        duration_s=duration_s,
        tenants=tenants,
        base_scale=base_scale,
    )
