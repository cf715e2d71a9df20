"""The fault injector: turns a :class:`~repro.faults.plan.FaultPlan`
into scheduled damage, drives bounded lineage recovery, and measures
what the recovery cost.

The injector is the only piece of fault machinery the hot paths see,
and they see it the same way they see tracing: one ``is None`` check.
The scheduler calls in at three points —

* :meth:`stage_boundary` / :meth:`action_boundary` advance the boundary
  counter and fire kills scheduled for it: the plan's
  :class:`~repro.faults.plan.KillSpec` kills first, then any cluster
  :class:`~repro.cluster.faults.ExecutorKill` armed for the job;
* :meth:`ensure_shuffle_partition` recovers a lost reduce partition by
  forcing its map stage to re-run through lineage (bounded retries);
* :meth:`materialize_persisted` wraps the scheduler's normal persisted-
  block materialisation so the recomputation of a *killed* block is
  measured (clock delta, GC pauses inside the window) and announced as
  a ``recompute`` trace event.

Everything the injector does is a deterministic function of the plan
and the simulated execution — no wall clock, no unseeded randomness —
so an injected run is byte-identical across ``--jobs 1`` and
``--jobs N``.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Set

from repro.config import DeviceKind
from repro.errors import FaultError, OwnerFreedError
from repro.faults.plan import FaultPlan, KillSpec, ThrottleSpec
from repro.faults.report import FaultReport
from repro.heap.object_model import HeapObject, ObjKind


class ThrottleSchedule:
    """The machine-side view of the plan's NVM throttle windows.

    Installed as ``machine.nvm_throttle``;
    :meth:`~repro.memory.machine.Machine.run_batch` calls :meth:`apply`
    for every row with NVM traffic, at its batch's start.  The stretched
    batch duration flows into the bandwidth tracker unchanged, so
    Figure 8's NVM series shows the collapse without any extra plumbing.
    """

    def __init__(self, windows: List[ThrottleSpec]) -> None:
        self.windows = sorted(windows, key=lambda w: (w.start_ns, w.end_ns))
        self.throttled_batches = 0
        self.extra_ns = 0.0

    def factor_at(self, t_ns: float) -> float:
        """The slowdown factor active at ``t_ns`` (1.0 = no throttle;
        overlapping windows compound, worst-case thermal behaviour)."""
        factor = 1.0
        for window in self.windows:
            if window.covers(t_ns):
                factor *= window.factor
        return factor

    def apply(self, start_ns: float, device_ns: float) -> float:
        """Stretch one NVM batch that starts at ``start_ns``."""
        factor = self.factor_at(start_ns)
        if factor <= 1.0:
            return device_ns
        self.throttled_batches += 1
        self.extra_ns += device_ns * (factor - 1.0)
        return device_ns * factor


class FaultInjector:
    """Executes one :class:`FaultPlan` against a live SparkContext."""

    def __init__(
        self, plan: FaultPlan, ctx, executor_kills: Sequence = ()
    ) -> None:
        self.plan = plan
        self._ctx = weakref.ref(ctx)
        self.boundaries_seen = 0
        self.kills_fired = 0
        self.kills_noop = 0
        #: reduce partitions and in-memory blocks the kills destroyed
        self.partitions_lost = 0
        self.blocks_lost = 0
        self.partitions_recomputed = 0
        self.recompute_ns = 0.0
        self.recovery_gc_pauses = 0
        self.recovery_gc_ns = 0.0
        self.recovery_attempts_max = 0
        self.balloon_bytes = 0.0
        self.throttle = ThrottleSchedule(list(plan.throttles))
        self._unfired: List = list(plan.kills) + list(executor_kills)
        self._last_shuffle_dep = None
        #: shuffle id -> reduce partition count of every shuffle written
        #: so far, in first-write order (what an executor kill walks).
        self._shuffles: Dict[int, int] = {}
        #: RDD ids whose persisted block a kill destroyed; their next
        #: materialisation is recovery (measured), not a first build.
        self._killed_blocks: Set[int] = set()
        self._balloon: Optional[HeapObject] = None

    @property
    def ctx(self):
        """The context the plan runs against.  Held weakly: the context
        owns its injector (``ctx.faults``).

        Raises:
            OwnerFreedError: when the context was freed.
        """
        ctx = self._ctx()
        if ctx is None:
            raise OwnerFreedError("the fault injector's SparkContext was freed")
        return ctx

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    @classmethod
    def attach(
        cls, plan: FaultPlan, ctx, executor_kills: Sequence = ()
    ) -> "FaultInjector":
        """Install the plan on a freshly built context: hook the
        scheduler (``ctx.faults``), install the NVM throttle schedule,
        inflate the NVM balloon, and announce the throttle windows on
        the trace bus (if tracing is on).

        ``executor_kills`` arms cluster
        :class:`~repro.cluster.faults.ExecutorKill` events beside the
        plan's kills; they need the context to run on a cluster
        executor (``ctx.cluster``), whose shuffle service says what the
        victim owned.
        """
        if executor_kills and ctx.cluster is None:
            raise FaultError(
                "executor kills need a cluster executor; this context "
                "has none (ctx.cluster is None)"
            )
        injector = cls(plan, ctx, executor_kills)
        ctx.faults = injector
        if plan.throttles:
            ctx.machine.nvm_throttle = injector.throttle
            if ctx.heap.trace is not None:
                for window in injector.throttle.windows:
                    ctx.heap.trace.throttle(
                        window.start_ns, window.duration_ns, window.factor
                    )
        if plan.nvm_balloon_fraction > 0.0:
            injector._inflate_balloon()
        return injector

    def _inflate_balloon(self) -> None:
        """Pre-fill the NVM old space with a rooted, unreclaimable
        balloon so tag-driven placement must walk the degradation
        ladder (NVM→DRAM fallback → spill → abort)."""
        heap = self.ctx.heap
        nvm_spaces = [
            s for s in heap.old_spaces if s.device is DeviceKind.NVM
        ]
        if not nvm_spaces:
            return  # dram-only / chunk-interleaved: nothing to exhaust
        for space in nvm_spaces:
            size = int(space.free * self.plan.nvm_balloon_fraction)
            if size <= 0:
                continue
            balloon = HeapObject(ObjKind.CONTROL, size, rdd_id=None)
            if not space.place(balloon):
                continue  # free shrank between sizing and placing
            heap.add_root(balloon)
            heap.pinned_old_bytes += size
            self.balloon_bytes += size
            self._balloon = balloon
            if heap.trace is not None:
                heap.trace.alloc(balloon)

    # ------------------------------------------------------------------
    # boundaries and kills
    # ------------------------------------------------------------------

    def stage_boundary(self, dep) -> None:
        """A shuffle map stage just completed (its files are written)."""
        self._last_shuffle_dep = dep
        self._shuffles.setdefault(
            dep.shuffle_id, dep.partitioner.num_partitions
        )
        self._cross_boundary()

    def action_boundary(self, rdd) -> None:
        """An action is about to execute its final stage."""
        self._cross_boundary()

    def _cross_boundary(self) -> None:
        self.boundaries_seen += 1
        here = self.boundaries_seen
        due = [k for k in self._unfired if k.at_boundary == here]
        for kill in due:
            self._unfired.remove(kill)
            self._fire(kill)

    def _fire(self, kill) -> None:
        if kill.kind == "shuffle":
            fired = self._fire_shuffle_kill(kill)
        elif kill.kind == "block":
            fired = self._fire_block_kill(kill)
        else:
            fired = self._fire_executor_kill(kill)
        if fired:
            self.kills_fired += 1
        else:
            self.kills_noop += 1

    def _fire_shuffle_kill(self, kill: KillSpec) -> bool:
        """Destroy one reduce partition of the most recent shuffle."""
        dep = self._last_shuffle_dep
        if dep is None:
            return False
        n_out = dep.partitioner.num_partitions
        pidx = kill.partition % n_out
        self.ctx.shuffles.invalidate(dep.shuffle_id, pidx)
        self.partitions_lost += 1
        return True

    def _fire_block_kill(self, kill: KillSpec) -> bool:
        """Destroy one persisted in-memory block (deterministic pick)."""
        manager = self.ctx.block_manager
        candidates = [b for b in manager.blocks() if not b.on_disk]
        if not candidates:
            return False
        return self._kill_block(min(candidates, key=lambda b: b.rdd_id).rdd_id)

    def _fire_executor_kill(self, kill) -> bool:
        """Lose one cluster executor: every reduce partition of this
        job's shuffles that the shuffle service assigned to it, and
        every in-memory block replica it hosted, die together; lineage
        recovery on this (surviving) executor recomputes them on demand
        through the measured paths below."""
        service = self.ctx.cluster.service
        victim = kill.executor % service.n_executors
        shuffles = self.ctx.shuffles
        lost_before = self.partitions_lost + self.blocks_lost
        for sid, n_parts in self._shuffles.items():
            if not shuffles.has(sid):
                continue
            ordinal = shuffles.ordinal(sid)
            for pidx in range(n_parts):
                if service.owner_of(ordinal, pidx) != victim:
                    continue
                if shuffles.is_lost(sid, pidx):
                    continue
                shuffles.invalidate(sid, pidx)
                self.partitions_lost += 1
        blocks = self.ctx.block_manager.blocks()
        for block in sorted(blocks, key=lambda b: b.rdd_id):
            if block.rdd_id % service.n_executors == victim:
                self._kill_block(block.rdd_id)
        return self.partitions_lost + self.blocks_lost > lost_before

    def _kill_block(self, rdd_id: int) -> bool:
        """Destroy one in-memory block; its next materialisation runs
        through the measured recovery path.  Returns whether a live
        in-memory block was actually destroyed."""
        if self.ctx.block_manager.kill(rdd_id) is None:
            return False
        self._killed_blocks.add(rdd_id)
        self.blocks_lost += 1
        return True

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def ensure_shuffle_partition(self, scheduler, dep, pidx: int) -> None:
        """Recover a lost reduce partition before it is read: force the
        map stage to re-run through lineage (every map task re-executes
        and re-materialises through the tagged heap), bounded by the
        plan's retry budget — a kill can re-fire during recovery."""
        shuffles = self.ctx.shuffles
        attempts = 0
        while shuffles.is_lost(dep.shuffle_id, pidx):
            attempts += 1
            if attempts > self.plan.max_recovery_attempts:
                raise FaultError(
                    f"shuffle {dep.shuffle_id} partition {pidx} still lost "
                    f"after {self.plan.max_recovery_attempts} recovery "
                    "attempts"
                )
            with self._recovery_window():
                scheduler._run_shuffle_map(dep, force=True)
            self.partitions_recomputed += dep.parent.num_partitions
            if self.ctx.heap.trace is not None:
                self.ctx.heap.trace.recompute(
                    None,
                    shuffles.serialized_bytes(dep.shuffle_id, pidx),
                    f"shuffle:{shuffles.ordinal(dep.shuffle_id)}:{pidx}",
                )
        self.recovery_attempts_max = max(self.recovery_attempts_max, attempts)

    def materialize_persisted(self, scheduler, rdd) -> None:
        """Materialise a persisted RDD, measuring the run as recovery
        when an injected kill destroyed its block (the recomputed
        objects re-enter eden and re-promote — residency profiles show
        the second life)."""
        if rdd.id not in self._killed_blocks:
            scheduler._materialize_persisted(rdd)
            return
        self._killed_blocks.discard(rdd.id)
        with self._recovery_window():
            scheduler._materialize_persisted(rdd)
        self.partitions_recomputed += rdd.num_partitions
        self.recovery_attempts_max = max(self.recovery_attempts_max, 1)
        if self.ctx.heap.trace is not None:
            block = self.ctx.block_manager.get(rdd.id)
            self.ctx.heap.trace.recompute(
                rdd.id,
                block.data_bytes if block is not None else 0.0,
                "block",
            )

    def _recovery_window(self):
        """Context manager accumulating the simulated time and GC work
        spent inside one recovery."""
        return _RecoveryWindow(self)

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------

    def report(self) -> FaultReport:
        """The measured outcome (see :class:`FaultReport`)."""
        heap = self.ctx.heap
        # The throttle's counts grow as the machine settles its charges.
        self.ctx.machine.settle()
        return FaultReport(
            boundaries_seen=self.boundaries_seen,
            kills_planned=self.kills_fired + self.kills_noop + len(self._unfired),
            kills_fired=self.kills_fired,
            kills_noop=self.kills_noop,
            partitions_recomputed=self.partitions_recomputed,
            recompute_s=self.recompute_ns / 1e9,
            recovery_gc_pauses=self.recovery_gc_pauses,
            recovery_gc_s=self.recovery_gc_ns / 1e9,
            recovery_attempts_max=self.recovery_attempts_max,
            fallback_events=heap.fallback_count,
            fallback_bytes=heap.fallback_bytes,
            balloon_bytes=self.balloon_bytes,
            throttle_windows=len(self.throttle.windows),
            throttled_batches=self.throttle.throttled_batches,
            throttle_extra_s=self.throttle.extra_ns / 1e9,
        )


class _RecoveryWindow:
    """Measures one recovery: simulated-clock delta plus the GC pauses
    that started inside it."""

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    def __enter__(self) -> "_RecoveryWindow":
        ctx = self.injector.ctx
        stats = ctx.collector.stats
        self._start_ns = ctx.machine.clock.now_ns
        self._pauses_before = len(stats.pauses)
        self._gc_ns_before = stats.total_gc_ns
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        ctx = self.injector.ctx
        stats = ctx.collector.stats
        self.injector.recompute_ns += ctx.machine.clock.now_ns - self._start_ns
        self.injector.recovery_gc_pauses += (
            len(stats.pauses) - self._pauses_before
        )
        self.injector.recovery_gc_ns += stats.total_gc_ns - self._gc_ns_before
