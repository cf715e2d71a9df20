"""Cluster-level fault plans: executor kills at stage boundaries.

The single-node :class:`~repro.faults.plan.FaultPlan` kills one reduce
partition or one block; a :class:`ClusterFaultPlan` kills a whole
*executor* — every shuffle reduce partition the shared service assigned
to it and every persisted block replica it hosted die together, and the
surviving executor recomputes them through lineage.  Executor kills are
armed on each job's :class:`~repro.faults.injector.FaultInjector`, so
they fire and recover through the same boundary counter and measured
recovery path as single-node kills.

Like every plan in this repo it is declarative, seeded and picklable:
kills fire at deterministic per-job stage-boundary counts, never from
wall-clock time, so cluster runs stay byte-identical across ``--jobs``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional

from repro.errors import FaultError


@dataclass(frozen=True)
class ExecutorKill:
    """One executor loss, fired mid-job at a stage boundary.

    Attributes:
        executor: victim executor index (taken modulo the cluster
            size at fire time).
        at_boundary: which stage boundary *of the triggering job* the
            kill fires at (1-based; boundaries count completed shuffle
            map stages and action starts, the same convention as
            :class:`~repro.faults.plan.KillSpec`).
        job_id: the job whose execution triggers the kill (None = the
            kill re-fires during every job).

    Armed on the job's :class:`~repro.faults.injector.FaultInjector`
    beside the single-node plan's kills, which tell it apart by
    :attr:`kind`.
    """

    kind: ClassVar[str] = "executor"

    executor: int
    at_boundary: int
    job_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.executor < 0:
            raise FaultError("executor index must be >= 0")
        if self.at_boundary < 1:
            raise FaultError("at_boundary is 1-based; must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (None fields omitted)."""
        row: Dict[str, Any] = {
            "executor": self.executor,
            "at_boundary": self.at_boundary,
        }
        if self.job_id is not None:
            row["job_id"] = self.job_id
        return row

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "ExecutorKill":
        """Inverse of :meth:`to_dict`."""
        return cls(**row)


@dataclass(frozen=True)
class ClusterFaultPlan:
    """Every executor loss one cluster run will suffer, decided up front.

    Attributes:
        kills: executor-kill events.
        max_recovery_attempts: bound on re-running one lost stage,
            forwarded to each job's
            :class:`~repro.faults.injector.FaultInjector`.
        seed: seed this plan was generated from (provenance).
    """

    kills: List[ExecutorKill] = field(default_factory=list)
    max_recovery_attempts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_recovery_attempts < 1:
            raise FaultError("max_recovery_attempts must be >= 1")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.kills

    def kills_for_job(self, job_id: int) -> List[ExecutorKill]:
        """The kills that arm while ``job_id`` executes."""
        return [
            k for k in self.kills if k.job_id is None or k.job_id == job_id
        ]

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe representation."""
        return {
            "kills": [k.to_dict() for k in self.kills],
            "max_recovery_attempts": self.max_recovery_attempts,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "ClusterFaultPlan":
        """Inverse of :meth:`to_dict`."""
        return cls(
            kills=[ExecutorKill.from_dict(k) for k in row.get("kills", [])],
            max_recovery_attempts=row.get("max_recovery_attempts", 3),
            seed=row.get("seed", 0),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        executors: int,
        max_boundary: int,
        kills: int = 1,
        jobs: Optional[int] = None,
        max_recovery_attempts: int = 3,
    ) -> "ClusterFaultPlan":
        """Build a seeded random plan (chaos testing at cluster scale).

        Args:
            seed: drives a private :class:`random.Random`.
            executors: victim indices are drawn from ``[0, executors)``.
            max_boundary: kill boundaries are drawn from
                ``[1, max_boundary]``.
            kills: how many kill events to generate.
            jobs: when set, each kill is pinned to a random job id in
                ``[0, jobs)``; when None, kills re-fire in every job.
        """
        if executors < 1:
            raise FaultError("need at least one executor")
        if max_boundary < 1:
            raise FaultError("max_boundary must be >= 1")
        rng = random.Random(seed)
        specs = [
            ExecutorKill(
                executor=rng.randrange(executors),
                at_boundary=rng.randint(1, max_boundary),
                job_id=rng.randrange(jobs) if jobs else None,
            )
            for _ in range(kills)
        ]
        return cls(
            kills=specs,
            max_recovery_attempts=max_recovery_attempts,
            seed=seed,
        )
