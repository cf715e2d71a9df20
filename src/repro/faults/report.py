"""Fault reports: what the injected faults actually cost.

A :class:`FaultReport` is the measured counterpart of a
:class:`~repro.faults.plan.FaultPlan`: how many kills fired, how much
lineage recomputation they forced (simulated seconds and partitions),
how much extra GC work the recovery windows generated, how many
NVM→DRAM placement fallbacks the balloon caused and how many bytes they
moved, and how much time thermal throttling added to NVM batches.  It
rides on :class:`~repro.harness.experiment.ExperimentResult` (plain
picklable dataclass, so ``--jobs N`` workers ship it back intact) and
serialises to JSON for the CI ``faults-smoke`` artifact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping


@dataclass
class FaultReport:
    """Measured outcome of one injected run.

    Attributes:
        boundaries_seen: stage boundaries the run crossed (completed
            shuffle map stages + action starts).
        kills_planned / kills_fired / kills_noop: kills armed (the
            plan's, plus a cluster job's executor kills), kills that
            actually destroyed state, and kills whose boundary arrived
            but found nothing to destroy (e.g. no live block).
        partitions_recomputed: map/persisted partitions re-executed
            through lineage because of a kill.
        recompute_s: simulated seconds spent inside recovery windows
            (the recomputation cost the paper's serialization-vs-
            recomputation trade-off weighs).
        recovery_gc_pauses / recovery_gc_s: GC pauses (count, seconds)
            that happened inside recovery windows — the extra GC work
            re-materialisation through the tagged heap costs.
        recovery_attempts_max: deepest bounded-retry chain one lost
            partition needed.
        fallback_events / fallback_bytes: off-intended old-space
            placements (the NVM→DRAM degradation ladder) and their
            payload bytes.
        balloon_bytes: bytes the NVM-exhaustion balloon pinned.
        throttle_windows / throttled_batches / throttle_extra_s:
            configured NVM throttle windows, device batches they
            slowed, and the simulated seconds they added.
    """

    boundaries_seen: int = 0
    kills_planned: int = 0
    kills_fired: int = 0
    kills_noop: int = 0
    partitions_recomputed: int = 0
    recompute_s: float = 0.0
    recovery_gc_pauses: int = 0
    recovery_gc_s: float = 0.0
    recovery_attempts_max: int = 0
    fallback_events: int = 0
    fallback_bytes: float = 0.0
    balloon_bytes: float = 0.0
    throttle_windows: int = 0
    throttled_batches: int = 0
    throttle_extra_s: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (all fields, stable keys)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "FaultReport":
        """Inverse of :meth:`to_dict`."""
        return cls(**row)

    def summary_lines(self) -> list:
        """Human-readable report lines for the CLI."""
        return [
            f"boundaries seen: {self.boundaries_seen}",
            (
                f"kills: {self.kills_fired} fired / {self.kills_noop} no-op "
                f"(of {self.kills_planned} planned)"
            ),
            (
                f"recomputed partitions: {self.partitions_recomputed} "
                f"in {self.recompute_s:.3f}s simulated "
                f"(deepest retry chain: {self.recovery_attempts_max})"
            ),
            (
                f"recovery GC: {self.recovery_gc_pauses} pauses, "
                f"{self.recovery_gc_s:.3f}s"
            ),
            (
                f"placement fallbacks: {self.fallback_events} events, "
                f"{self.fallback_bytes / (1024 ** 2):.1f} MiB "
                f"(balloon {self.balloon_bytes / (1024 ** 2):.1f} MiB)"
            ),
            (
                f"NVM throttling: {self.throttle_windows} windows, "
                f"{self.throttled_batches} slowed batches, "
                f"+{self.throttle_extra_s:.3f}s"
            ),
        ]


def action_checksums(action_results: Mapping[str, Any]) -> Dict[str, str]:
    """Stable per-action checksums of a run's outputs.

    The convergence oracle for lineage recovery: a faulted run is
    correct iff its checksums equal the fault-free run's.  Values are
    canonicalised through sorted-key JSON (``repr`` for non-JSON types,
    so floats hash by their exact ``repr``) and digested with SHA-256.
    """
    sums: Dict[str, str] = {}
    for name in sorted(action_results):
        canonical = json.dumps(
            action_results[name], sort_keys=True, default=repr
        )
        sums[name] = hashlib.sha256(canonical.encode()).hexdigest()
    return sums
