"""Static inference of memory tags (§3).

The analysis assigns each persisted (or actioned) RDD variable a DRAM or
NVM tag from its def/use behaviour relative to the program's loops:

* A variable *defined* in each iteration of a loop leaves its old
  instances cached-but-unused (RDDs are immutable), so it is tagged NVM.
* A variable that is *used-only* (never defined) in some loop that
  follows or contains its materialisation point is tagged DRAM.
* Only loops at or after the materialisation point count — behaviour
  before an RDD exists is irrelevant (``ranks`` in PageRank).
* ``OFF_HEAP`` persist levels translate directly to NVM; ``DISK_ONLY``
  carries no memory tag.
* A program with no loops tags everything NVM; and if *all* persisted
  variables end up NVM, every tag is flipped to DRAM so DRAM is not left
  idle ("first place RDDs in DRAM; once DRAM is exhausted the rest go to
  NVM").
* ``unpersist`` is ignored — the paper's analysis has no support for it,
  which is precisely why the GraphX programs rely on dynamic migration
  (§5.5 / Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.tags import MemoryTag, Placement, placement_for
from repro.spark.program import (
    ActionStmt,
    AssignStmt,
    Expr,
    LoopStmt,
    Program,
    Stmt,
    UnpersistStmt,
    VarRef,
)
from repro.spark.storage import StorageLevel


@dataclass
class LoopInfo:
    """One loop's position span and the variables it defines/uses."""

    start: int
    end: int
    defs: Set[str] = field(default_factory=set)
    uses: Set[str] = field(default_factory=set)


@dataclass
class MaterializationPoint:
    """One persist call or action on a variable."""

    var: str
    position: int
    level: Optional[StorageLevel]  # None for actions


@dataclass
class StaticAnalysis:
    """The analysis result.

    Attributes:
        tags: variable -> inferred tag (None for DISK_ONLY).
        rationale: human-readable explanation per variable.
        flipped: whether the all-NVM -> all-DRAM rule fired.
        loops: the loop structure the analysis saw.
        placements: variable -> the three-way storage decision
            (object-heap-DRAM / object-heap-NVM / serialized-NVM),
            folding the tag inference with the serialized-tier
            routing of the variable's persist level.
        ser_candidates: variables the analysis marks
            serialization-friendly — persisted, taggable and
            defined-per-iteration (the cold write-once-read-once shape
            where dropping GC tracing beats paying deserialisation,
            arXiv 2111.10589).  Advisory: the decision stays with the
            developer-written storage level.
    """

    tags: Dict[str, Optional[MemoryTag]]
    rationale: Dict[str, str]
    flipped: bool
    loops: List[LoopInfo]
    placements: Dict[str, Placement] = field(default_factory=dict)
    ser_candidates: Set[str] = field(default_factory=set)

    def tag_of(self, var: str) -> Optional[MemoryTag]:
        """Tag for one variable (None if untagged/unknown)."""
        return self.tags.get(var)

    def placement_of(self, var: str) -> Placement:
        """Placement for one variable (UNPLACED if unknown)."""
        return self.placements.get(var, Placement.UNPLACED)


def _expr_uses(expr: Expr) -> Set[str]:
    """Variable names referenced anywhere inside an expression."""
    return {node.name for node in expr.walk() if isinstance(node, VarRef)}


def _expr_persist_levels(expr: Expr) -> List[StorageLevel]:
    """Persist levels attached anywhere inside an expression."""
    return [
        node.persist_level for node in expr.walk() if node.persist_level is not None
    ]


def _collect(
    stmts: List[Stmt],
    position: List[int],
    loops: List[LoopInfo],
    points: List[MaterializationPoint],
    defs: Dict[str, List[int]],
    uses: Dict[str, List[int]],
) -> None:
    """Pre-order walk assigning positions, recording loop spans, def/use
    sites and materialisation points."""
    for stmt in stmts:
        position[0] += 1
        here = position[0]
        if isinstance(stmt, AssignStmt):
            defs.setdefault(stmt.var, []).append(here)
            for name in _expr_uses(stmt.expr):
                uses.setdefault(name, []).append(here)
            for level in _expr_persist_levels(stmt.expr):
                points.append(MaterializationPoint(stmt.var, here, level))
        elif isinstance(stmt, ActionStmt):
            for name in _expr_uses(stmt.expr):
                uses.setdefault(name, []).append(here)
            if isinstance(stmt.expr, VarRef):
                points.append(MaterializationPoint(stmt.expr.name, here, None))
        elif isinstance(stmt, UnpersistStmt):
            pass  # deliberately ignored (§5.5)
        elif isinstance(stmt, LoopStmt):
            loop = LoopInfo(start=here, end=here)
            loops.append(loop)
            _collect(stmt.body, position, loops, points, defs, uses)
            loop.end = position[0]
    # defs/uses inside nested loops are attributed by position; spans of
    # enclosing loops cover them by construction.


def analyze_program(program: Program) -> StaticAnalysis:
    """Run §3's inference over a program IR."""
    loops: List[LoopInfo] = []
    points: List[MaterializationPoint] = []
    defs: Dict[str, List[int]] = {}
    uses: Dict[str, List[int]] = {}
    _collect(program.statements(), [0], loops, points, defs, uses)

    for loop in loops:
        for var, positions in defs.items():
            if any(loop.start < p <= loop.end for p in positions):
                loop.defs.add(var)
        for var, positions in uses.items():
            if any(loop.start < p <= loop.end for p in positions):
                loop.uses.add(var)

    tags: Dict[str, Optional[MemoryTag]] = {}
    rationale: Dict[str, str] = {}
    persisted_taggable: List[str] = []
    fixed: Set[str] = set()
    ser_candidates: Set[str] = set()

    for point in points:
        var = point.var
        if point.level is StorageLevel.OFF_HEAP:
            tags[var] = MemoryTag.NVM
            rationale[var] = "OFF_HEAP translates directly to OFF_HEAP_NVM"
            fixed.add(var)
            continue
        if point.level is not None and not point.level.taggable:
            tags[var] = None
            rationale[var] = "DISK_ONLY carries no memory tag"
            fixed.add(var)
            continue
        inferred, why = _infer_for_point(var, point.position, loops)
        previous = tags.get(var)
        if previous is MemoryTag.DRAM:
            inferred = MemoryTag.DRAM  # any DRAM evidence wins for the var
        if var not in fixed:
            tags[var] = inferred
            rationale[var] = why
        if point.level is not None:
            if var not in persisted_taggable:
                persisted_taggable.append(var)
            if inferred is MemoryTag.NVM:
                # Defined-per-iteration and persisted: the cold shape
                # where the serialized tier's no-tracing win outweighs
                # its per-access deserialisation cost.
                ser_candidates.add(var)

    # Variables pinned by OFF_HEAP/DISK_ONLY do not participate in the
    # flip decision: only genuinely taggable persisted RDDs can "all be
    # NVM".
    persisted_taggable = [v for v in persisted_taggable if v not in fixed]
    flipped = False
    if persisted_taggable and all(
        tags.get(v) is MemoryTag.NVM for v in persisted_taggable
    ):
        flipped = True
        for var in list(tags):
            if var in fixed:
                continue
            tags[var] = MemoryTag.DRAM
            rationale[var] += "; flipped to DRAM (all persisted RDDs were NVM)"

    # Genuine DRAM evidence (used-only in a loop) disqualifies a
    # serialization candidate — hot data should stay object form.  The
    # all-NVM flip does not: a flipped variable is still the cold
    # defined-per-iteration shape.
    if not flipped:
        ser_candidates = {
            v for v in ser_candidates if tags.get(v) is not MemoryTag.DRAM
        }

    # The three-way placement: the developer-written level decides the
    # serialized tier; the tag inference decides DRAM-heap vs NVM-heap
    # for everything else.
    from repro.spark.storage import routes_to_serialized_tier

    tier_routed = {
        p.var
        for p in points
        if p.level is not None and routes_to_serialized_tier(p.level)
    }
    placements = {
        var: placement_for(tag, var in tier_routed)
        for var, tag in tags.items()
    }
    for var in tier_routed:
        rationale[var] += (
            "; placed in the serialized tier (level routes off-heap)"
        )

    return StaticAnalysis(
        tags=tags,
        rationale=rationale,
        flipped=flipped,
        loops=loops,
        placements=placements,
        ser_candidates=ser_candidates,
    )


@dataclass
class LifetimeAnalysis:
    """The Deca lifetime classification of one program (arXiv 1602.01959).

    Attributes:
        classes: variable -> :class:`~repro.heap.regions.LifetimeClass`
            for every variable the program defines.
        rationale: human-readable explanation per variable.
    """

    classes: Dict[str, "LifetimeClass"]
    rationale: Dict[str, str]

    def class_of(self, var: str):
        """Lifetime class for one variable (None if unknown)."""
        return self.classes.get(var)


def classify_lifetimes(program: Program) -> LifetimeAnalysis:
    """Bucket a program's variables into Deca's lifetime classes.

    The classification runs over the same pre-order walk as the tag
    inference:

    * a variable materialised with a persist level is *job-long* — its
      blocks are cached across stages and (absent unpersist support,
      §5.5) the analysis can only prove death at job end;
    * a variable materialised by actions only is *stage-local* — its
      blocks exist to feed one action's final stage;
    * a variable never materialised is *UDF-ephemeral* — it only ever
      flows through operators as streaming tuples.
    """
    from repro.heap.regions import LifetimeClass

    loops: List[LoopInfo] = []
    points: List[MaterializationPoint] = []
    defs: Dict[str, List[int]] = {}
    uses: Dict[str, List[int]] = {}
    _collect(program.statements(), [0], loops, points, defs, uses)

    persisted = {p.var for p in points if p.level is not None}
    actioned = {p.var for p in points if p.level is None}
    per_iteration = set()
    for loop in loops:
        for var, positions in defs.items():
            if any(loop.start < p <= loop.end for p in positions):
                per_iteration.add(var)

    classes: Dict[str, LifetimeClass] = {}
    rationale: Dict[str, str] = {}
    for var in defs:
        if var in persisted:
            classes[var] = LifetimeClass.JOB
            why = "persisted: blocks outlive their stage, freed at job end"
            if var in per_iteration:
                why += (
                    "; redefined per iteration — superseded regions are "
                    "reclaimed by region-grained eviction under pressure"
                )
        elif var in actioned:
            classes[var] = LifetimeClass.STAGE
            why = (
                "materialised by an action only: blocks die with the "
                "action's final stage"
            )
        else:
            classes[var] = LifetimeClass.EPHEMERAL
            why = (
                "never materialised: flows through operators as "
                "streaming tuples"
            )
        rationale[var] = why
    return LifetimeAnalysis(classes=classes, rationale=rationale)


def _infer_for_point(
    var: str, position: int, loops: List[LoopInfo]
) -> Tuple[MemoryTag, str]:
    """Infer a tag for one materialisation point of one variable."""
    considered = [loop for loop in loops if position <= loop.end]
    if not loops:
        return MemoryTag.NVM, "no loop exists; nothing is repeatedly accessed"
    if not considered:
        return (
            MemoryTag.NVM,
            "no loop follows or contains the materialisation point",
        )
    for loop in considered:
        if var in loop.uses and var not in loop.defs:
            return (
                MemoryTag.DRAM,
                f"used-only in the loop spanning [{loop.start}, {loop.end}]",
            )
    return (
        MemoryTag.NVM,
        "defined in every considered loop (old instances are left unused)",
    )
