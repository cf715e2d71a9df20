"""Placement policies: who decides where objects live.

Each policy builds the old-generation layout for its configuration,
answers the three placement questions the collector asks:

* where is an RDD backbone array allocated (Table 1's "Initial Space"),
* where is a surviving young object promoted to, and
* which objects should a major GC migrate between devices,

and takes every policy-specific lifecycle decision through the hooks
the Spark engine calls, never asking which policy it has (each default
is the generational path, or nothing).

The six policies mirror §5.2's configurations: the DRAM-only baseline,
the *unmanaged* chunk-interleaved hybrid, Panthera itself, the two
Write-Rationing GCs (Kingsguard-Nursery and Kingsguard-Writes [7]), plus
Deca's lifetime regions (arXiv 1602.01959).
"""

from __future__ import annotations

import abc
from typing import List, Optional, Tuple

from repro.config import KW_WRITE_THRESHOLD, DeviceKind, PolicyName, SystemConfig
from repro.core.monitor import AccessMonitor
from repro.core.runtime_api import PantheraRuntime
from repro.core.static_analysis import analyze_program, classify_lifetimes
from repro.core.tags import MEMORY_BITS_DRAM, MEMORY_BITS_NVM, MemoryTag
from repro.errors import ConfigError
from repro.heap.object_model import HeapObject
from repro.heap.regions import LifetimeClass, RegionManager
from repro.heap.spaces import Space
from repro.memory.interleave import ChunkMap

#: Major-GC calls-per-cycle at or above which an NVM-resident RDD is
#: considered hot enough to migrate to DRAM (§4.2.2).  Three calls per
#: cycle distinguishes iteratively re-read RDDs from write-once persisted
#: RDDs, which see exactly two calls (persist + one transformation).
HOT_CALL_THRESHOLD = 3

#: Minimum minor GCs a monitoring cycle must span before "zero calls"
#: counts as evidence of coldness — back-to-back full GCs would otherwise
#: mis-classify every RDD as cold.
MIN_COLD_CYCLE_MINORS = 4


class PlacementPolicy(abc.ABC):
    """Strategy interface for hybrid-memory data placement."""

    name: PolicyName
    #: whether arrays are padded to card boundaries (§4.2.3; Panthera only)
    card_padding = False

    def __init__(self, config: SystemConfig) -> None:
        self.config = config

    @abc.abstractmethod
    def build_old_spaces(self, base: int) -> List[Space]:
        """Construct the old-generation spaces starting at ``base``."""

    # -- placement: asked by the allocator and the collector ---------------

    def array_allocation_space(
        self, heap, tag: Optional[MemoryTag], size: int
    ) -> Space:
        """Initial space of an RDD backbone array (default: the single
        ``old`` space)."""
        return heap.old_space_named("old")

    def promotion_space(self, heap, obj: HeapObject) -> Space:
        """Old space an object is promoted into (default: the single
        ``old`` space)."""
        return heap.old_space_named("old")

    def eager_promotion_space(self, heap, obj: HeapObject) -> Optional[Space]:
        """Space for immediate promotion of a tagged object, or None to
        follow the normal aging path.  Only Panthera overrides this."""
        return None

    def plan_migrations(
        self, heap, monitor: Optional[AccessMonitor]
    ) -> List[Tuple[HeapObject, Space]]:
        """Objects a major GC should move between spaces (default: none)."""
        return []

    def mutator_write_barrier_ns(self) -> float:
        """Extra mutator cost per monitored write (KW's barrier; §5.2)."""
        return 0.0

    # -- lifecycle: called by the Spark engine ----------------------------

    def attach(self, heap, machine) -> Optional[PantheraRuntime]:
        """Install the policy's machinery on a fresh heap; returns the
        runtime whose instrumentation runs at materialisation points
        (its monitor feeds the collector), or None for no tags."""
        return None

    def prepare_program(self, program) -> tuple:
        """The ``(tags, lifetimes, analysis)`` a program runs with."""
        return {}, None, None

    def reserve_persisted(self, ctx, rdd, nbytes, extra_live) -> None:
        """Make room for a persisted block of ``nbytes``; ``extra_live``
        is the old-generation bytes of in-flight transient blocks."""
        ctx.block_manager.ensure_capacity(
            nbytes, ctx.collector, extra_live=extra_live
        )

    def reserve_stage_input(self, ctx, rdd, nbytes, extra_live) -> None:
        """Make room for a shuffled stage input; ``nbytes`` is None when
        its shuffle files are not written yet (nothing to estimate)."""
        if nbytes is not None:
            ctx.block_manager.ensure_capacity(
                nbytes, ctx.collector, extra_live=extra_live
            )

    def release_block(self, heap, block) -> None:
        """A block was released: its scope closed, or it was
        unpersisted, spilled or dropped."""

    def stage_boundary(self, heap) -> None:
        """The outermost scope closed: a stage or action ended."""

    def job_end(self, ctx) -> None:
        """The program finished, before metrics are collected."""


def _single_old_space(
    config: SystemConfig, base: int, device: DeviceKind
) -> List[Space]:
    return [Space("old", base, config.old_gen_bytes, "old", device=device)]


def _split_old_spaces(
    config: SystemConfig, base: int, nvm_name: str
) -> List[Space]:
    """An ``old-dram`` space of the old generation's DRAM share (when it
    has one) followed by an NVM space named ``nvm_name``."""
    spaces = []
    dram_part = config.old_dram_bytes
    if dram_part > 0:
        spaces.append(
            Space("old-dram", base, dram_part, "old", device=DeviceKind.DRAM)
        )
        base += dram_part
    spaces.append(
        Space(nvm_name, base, config.old_nvm_bytes, "old", device=DeviceKind.NVM)
    )
    return spaces


class DramOnlyPolicy(PlacementPolicy):
    """Everything in DRAM — the normalisation baseline of every figure."""

    name = PolicyName.DRAM_ONLY

    def build_old_spaces(self, base: int) -> List[Space]:
        return _single_old_space(self.config, base, DeviceKind.DRAM)


class UnmanagedPolicy(PlacementPolicy):
    """Old generation interleaved over DRAM/NVM in 1 GB chunks (§5.2).

    Each chunk is DRAM-backed with probability equal to the DRAM share
    *left for the old generation* (the nursery has already claimed its
    DRAM), which conserves physical capacity.
    """

    name = PolicyName.UNMANAGED

    def build_old_spaces(self, base: int) -> List[Space]:
        config = self.config
        if config.old_gen_bytes <= 0:
            raise ConfigError("old generation is empty")
        probability = config.old_dram_bytes / config.old_gen_bytes
        chunk_map = ChunkMap(
            base=base,
            size=config.old_gen_bytes,
            chunk_bytes=config.interleave_chunk_bytes,
            dram_probability=probability,
            seed=config.seed,
        )
        return [Space("old", base, config.old_gen_bytes, "old", chunk_map=chunk_map)]


class PantheraPolicy(PlacementPolicy):
    """The paper's policy: split old generation, tag-driven placement,
    eager promotion and major-GC dynamic migration."""

    name = PolicyName.PANTHERA

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self.card_padding = config.card_padding

    def build_old_spaces(self, base: int) -> List[Space]:
        return _split_old_spaces(self.config, base, "old-nvm")

    def attach(self, heap, machine) -> PantheraRuntime:
        """The access monitor (§4.2.2) and the tag-passing runtime
        (§4.2.1)."""
        return PantheraRuntime(heap, AccessMonitor(machine))

    def prepare_program(self, program) -> tuple:
        """§3's static analysis: the program runs with its tags."""
        analysis = analyze_program(program)
        return analysis.tags, None, analysis

    def array_allocation_space(self, heap, tag, size) -> Space:
        """Table 1: DRAM-tagged arrays go to the DRAM component when it has
        room, otherwise NVM; NVM-tagged and untagged arrays go to NVM."""
        old_nvm = heap.old_space_named("old-nvm")
        if tag is MemoryTag.DRAM:
            old_dram = heap.old_space_or_none("old-dram")
            if old_dram is not None and old_dram.free >= size:
                return old_dram
        return old_nvm

    def promotion_space(self, heap, obj) -> Space:
        old_nvm = heap.old_space_named("old-nvm")
        if obj.memory_bits == MEMORY_BITS_DRAM:
            old_dram = heap.old_space_or_none("old-dram")
            if old_dram is not None and old_dram.free >= obj.size:
                return old_dram
        return old_nvm

    def eager_promotion_space(self, heap, obj) -> Optional[Space]:
        """§4.2.2: objects whose MEMORY_BITS were set during tracing are
        moved to the matching old space immediately."""
        if not self.config.eager_promotion:
            return None
        if obj.memory_bits in (MEMORY_BITS_DRAM, MEMORY_BITS_NVM):
            return self.promotion_space(heap, obj)
        return None

    def plan_migrations(self, heap, monitor) -> List[Tuple[HeapObject, Space]]:
        """§4.2.2's reassessment: frequently-called RDDs move NVM -> DRAM,
        unaccessed RDDs move DRAM -> NVM, together with their reachable
        data objects.

        Only arrays that have already survived a previous major GC are
        re-assessed — a freshly materialised RDD has not yet had a full
        monitoring cycle, so its zero/low count says nothing.
        """
        if not self.config.dynamic_migration or monitor is None:
            return []
        old_dram = heap.old_space_or_none("old-dram")
        old_nvm = heap.old_space_named("old-nvm")
        moves: List[Tuple[HeapObject, Space]] = []
        dram_budget = old_dram.free if old_dram is not None else 0
        collector = getattr(heap, "collector", None)
        cycle_minors = getattr(collector, "minors_since_major", MIN_COLD_CYCLE_MINORS)
        cold_evidence = cycle_minors >= MIN_COLD_CYCLE_MINORS
        for space in heap.old_spaces:
            for obj in space.iter_objects_by_addr():
                if not obj.is_array or obj.rdd_id is None or obj.age < 1:
                    continue
                calls = monitor.call_count(obj.rdd_id)
                if space.name == "old-nvm" and calls >= HOT_CALL_THRESHOLD:
                    if old_dram is None:
                        continue
                    group = [obj] + [
                        r for r in obj.refs if heap.in_old(r) and not r.is_array
                    ]
                    group_bytes = sum(g.size for g in group)
                    if group_bytes <= dram_budget:
                        dram_budget -= group_bytes
                        moves.extend((g, old_dram) for g in group)
                elif space.name == "old-dram" and calls == 0 and cold_evidence:
                    group = [obj] + [
                        r for r in obj.refs if heap.in_old(r) and not r.is_array
                    ]
                    moves.extend((g, old_nvm) for g in group)
        return moves


class KingsguardNurseryPolicy(PlacementPolicy):
    """Write Rationing's KN: nursery in DRAM, whole old generation in NVM."""

    name = PolicyName.KINGSGUARD_NURSERY

    def build_old_spaces(self, base: int) -> List[Space]:
        return _single_old_space(self.config, base, DeviceKind.NVM)


class KingsguardWritesPolicy(PlacementPolicy):
    """Write Rationing's KW: like KN, plus a write barrier that counts
    object writes and a major-GC pass that migrates write-hot objects into
    a DRAM region.  The paper measured ~41 % overhead for Spark because
    persisted RDDs are read-mostly and land in NVM."""

    name = PolicyName.KINGSGUARD_WRITES

    #: Cost of the monitoring write barrier per mutator write.
    WRITE_BARRIER_NS = 6.0

    def build_old_spaces(self, base: int) -> List[Space]:
        return _split_old_spaces(self.config, base, "old")

    def plan_migrations(self, heap, monitor) -> List[Tuple[HeapObject, Space]]:
        """Move write-hot NVM objects into the DRAM region."""
        old_dram = heap.old_space_or_none("old-dram")
        if old_dram is None:
            return []
        budget = old_dram.free
        moves: List[Tuple[HeapObject, Space]] = []
        nvm_space = heap.old_space_named("old")
        for obj in nvm_space.iter_objects_by_addr():
            if obj.write_count >= KW_WRITE_THRESHOLD:
                if obj.size <= budget:
                    budget -= obj.size
                    moves.append((obj, old_dram))
        return moves

    def mutator_write_barrier_ns(self) -> float:
        return self.WRITE_BARRIER_NS


class DecaPolicy(PlacementPolicy):
    """Deca's lifetime-based region allocation (arXiv 1602.01959).

    Most heap bytes bypass the generational collector entirely: RDD data
    classified by lifetime lands in bump-pointer arenas managed by
    :class:`~repro.heap.regions.RegionManager` and freed wholesale at
    stage/job boundaries.  The traced old generation shrinks to a small
    reserve (``OLD_RESERVE_FRACTION`` of the nominal old generation) that
    only holds unclassified survivors the minor GC tenures — the arenas
    take the rest of the old-generation budget.
    """

    name = PolicyName.DECA

    #: Fraction of the nominal old generation kept as a traced reserve
    #: for unclassified survivors; the arenas get the remainder.
    OLD_RESERVE_FRACTION = 0.25

    def build_old_spaces(self, base: int) -> List[Space]:
        config = self.config
        reserve = max(1, int(config.old_gen_bytes * self.OLD_RESERVE_FRACTION))
        device = (
            DeviceKind.DRAM
            if config.old_dram_bytes >= reserve
            else DeviceKind.NVM
        )
        return [Space("old", base, reserve, "old", device=device)]

    def attach(self, heap, machine) -> None:
        """Lifetime arenas instead of tags: no monitor, no runtime."""
        RegionManager.attach(heap)

    def prepare_program(self, program) -> tuple:
        """Deca's rival analysis: variable lifetimes instead of tags."""
        return {}, classify_lifetimes(program).classes, None

    def reserve_persisted(self, ctx, rdd, nbytes, extra_live) -> None:
        """A job-arena region: room comes from region-grained eviction,
        never from a full GC."""
        regions = ctx.heap.regions
        regions.note_rdd(rdd.id, rdd.lifetime or LifetimeClass.JOB)
        regions.ensure_job_capacity(nbytes, ctx.block_manager)

    def reserve_stage_input(self, ctx, rdd, nbytes, extra_live) -> None:
        """The stage arena; only what it cannot take falls over into
        job-arena extents."""
        regions = ctx.heap.regions
        regions.note_rdd(rdd.id, LifetimeClass.STAGE)
        if nbytes is not None and nbytes > regions.stage.free:
            regions.ensure_job_capacity(
                nbytes - regions.stage.free, ctx.block_manager
            )

    def release_block(self, heap, block) -> None:
        heap.regions.free_block(heap, block)

    def stage_boundary(self, heap) -> None:
        heap.regions.stage_boundary(heap)

    def job_end(self, ctx) -> None:
        """Unpersist the surviving region-resident blocks and reset every
        arena, so the reset costs land on this run's clock."""
        block_manager = ctx.block_manager
        for block in block_manager.blocks():
            if not block.on_disk and block.region_resident:
                block_manager.unpersist(block.rdd_id)
        ctx.heap.regions.job_end(ctx.heap)


_POLICIES = {
    PolicyName.DRAM_ONLY: DramOnlyPolicy,
    PolicyName.UNMANAGED: UnmanagedPolicy,
    PolicyName.PANTHERA: PantheraPolicy,
    PolicyName.KINGSGUARD_NURSERY: KingsguardNurseryPolicy,
    PolicyName.KINGSGUARD_WRITES: KingsguardWritesPolicy,
    PolicyName.DECA: DecaPolicy,
}


def make_policy(config: SystemConfig) -> PlacementPolicy:
    """Instantiate the policy named by the configuration."""
    try:
        cls = _POLICIES[config.policy]
    except KeyError:
        raise ConfigError(f"unknown policy {config.policy!r}") from None
    return cls(config)
