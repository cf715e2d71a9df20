"""Fault plans: the declarative, seeded description of what fails when.

A :class:`FaultPlan` is data, not behaviour — a picklable, JSON-round-
trippable value that names every fault the run will experience before
the run starts.  Determinism is the whole point: the plan enters the
:class:`~repro.harness.engine.ExperimentPoint` fingerprint, two runs
with the same (workload, config, scale, plan) produce byte-identical
results, and ``--jobs 1`` vs ``--jobs N`` cannot diverge because no
fault decision is ever taken from wall-clock time or an unseeded RNG.

Three fault families (see docs/FAULTS.md):

* :class:`KillSpec` — lose a reduce partition's shuffle output, or a
  persisted executor block, at a numbered *stage boundary*.  Boundaries
  count completed shuffle map stages and action starts, in execution
  order, starting at 1.
* :class:`ThrottleSpec` — a transient NVM bandwidth-collapse window,
  modeling the NUMA emulator's thermal-register throttling ("Emulating
  Hybrid Memory on NUMA Hardware", PAPERS.md).
* ``nvm_balloon_fraction`` — pre-fill the NVM old space so tag-driven
  placement must degrade (NVM→DRAM fallback, then spill, then abort).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import FaultError

#: Valid :attr:`KillSpec.kind` values.
KILL_KINDS = ("shuffle", "block")
#: :meth:`FaultPlan.random` draws shuffle-kill partitions from
#: ``[0, RANDOM_KILL_PARTITIONS)`` (taken modulo the real count).
RANDOM_KILL_PARTITIONS = 8


@dataclass(frozen=True)
class KillSpec:
    """One executor-loss event at a stage boundary.

    Attributes:
        kind: ``"shuffle"`` loses one reduce partition of the most
            recently written shuffle (its map output must be recomputed
            through lineage before the partition can be fetched again);
            ``"block"`` drops one persisted in-memory block (lineage
            recomputes it on next access, re-entering eden and
            re-promoting through the tagged heap).
        at_boundary: which stage boundary the kill fires at (1-based,
            counting completed shuffle map stages and action starts in
            execution order).
        partition: reduce partition to lose (``shuffle`` kills; taken
            modulo the shuffle's partition count).  Ignored for
            ``block`` kills.
        rdd_name: for ``block`` kills, the name of the persisted RDD to
            drop; None picks the live in-memory block with the smallest
            RDD id (deterministic).
    """

    kind: str
    at_boundary: int
    partition: int = 0
    rdd_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KILL_KINDS:
            raise FaultError(f"unknown kill kind {self.kind!r}")
        if self.at_boundary < 1:
            raise FaultError("at_boundary is 1-based; must be >= 1")
        if self.partition < 0:
            raise FaultError("partition must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (None fields omitted)."""
        row: Dict[str, Any] = {
            "kind": self.kind,
            "at_boundary": self.at_boundary,
            "partition": self.partition,
        }
        if self.rdd_name is not None:
            row["rdd_name"] = self.rdd_name
        return row


@dataclass(frozen=True)
class ThrottleSpec:
    """One transient NVM bandwidth-throttle window.

    While the simulated clock is inside ``[start_ns, start_ns +
    duration_ns)``, every batch touching the NVM device takes
    ``factor`` times as long — the discrete-cost analogue of the NUMA
    emulator capping NVM bandwidth through the thermal registers.

    Attributes:
        start_ns: window start on the simulated clock.
        duration_ns: window length in simulated nanoseconds.
        factor: slowdown multiplier for NVM batch time (>= 1).
    """

    start_ns: float
    duration_ns: float
    factor: float

    def __post_init__(self) -> None:
        if self.start_ns < 0 or self.duration_ns <= 0:
            raise FaultError("throttle window must have start>=0, duration>0")
        if self.factor < 1.0:
            raise FaultError("throttle factor must be >= 1 (a slowdown)")

    @property
    def end_ns(self) -> float:
        """One past the window's last covered instant."""
        return self.start_ns + self.duration_ns

    def covers(self, t_ns: float) -> bool:
        """Whether the window is active at simulated time ``t_ns``."""
        return self.start_ns <= t_ns < self.end_ns

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation."""
        return {
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "factor": self.factor,
        }


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, decided up front.

    Attributes:
        kills: executor-loss events, fired at their stage boundaries.
        throttles: NVM bandwidth-collapse windows.
        nvm_balloon_fraction: fraction of the NVM old space's free
            bytes pre-filled with an unreclaimable balloon object at
            attach time (0 disables).  Forces the NVM→DRAM degradation
            ladder.
        max_recovery_attempts: bound on re-running one lost stage
            before the run aborts with :class:`~repro.errors.FaultError`
            (a kill can re-fire during its own recovery).
        seed: the seed this plan was generated from (recorded for
            provenance; :meth:`random` uses it).
    """

    kills: List[KillSpec] = field(default_factory=list)
    throttles: List[ThrottleSpec] = field(default_factory=list)
    nvm_balloon_fraction: float = 0.0
    max_recovery_attempts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.nvm_balloon_fraction < 1.0:
            raise FaultError("nvm_balloon_fraction must be in [0, 1)")
        if self.max_recovery_attempts < 1:
            raise FaultError("max_recovery_attempts must be >= 1")

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.kills
            and not self.throttles
            and self.nvm_balloon_fraction == 0.0
        )

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON-safe representation (fingerprint input)."""
        return {
            "kills": [k.to_dict() for k in self.kills],
            "throttles": [t.to_dict() for t in self.throttles],
            "nvm_balloon_fraction": self.nvm_balloon_fraction,
            "max_recovery_attempts": self.max_recovery_attempts,
            "seed": self.seed,
        }

    @classmethod
    def random(
        cls,
        seed: int,
        max_boundary: int,
        kills: int = 1,
        max_recovery_attempts: int = 3,
    ) -> "FaultPlan":
        """Build a seeded random kill plan (the chaos-testing entry point).

        Args:
            seed: drives a private :class:`random.Random`; the same seed
                always yields the same plan.
            max_boundary: kills are placed uniformly in
                ``[1, max_boundary]`` (run once without faults and read
                ``FaultReport.boundaries_seen`` to size this).
            kills: how many kill events to generate.
            max_recovery_attempts: passed through.
        """
        if max_boundary < 1:
            raise FaultError("max_boundary must be >= 1")
        rng = random.Random(seed)
        kill_specs = [
            KillSpec(
                kind=rng.choice(KILL_KINDS),
                at_boundary=rng.randint(1, max_boundary),
                partition=rng.randrange(RANDOM_KILL_PARTITIONS),
            )
            for _ in range(kills)
        ]
        return cls(
            kills=kill_specs,
            max_recovery_attempts=max_recovery_attempts,
            seed=seed,
        )
