"""Heap object model.

A :class:`HeapObject` stands for one *logical* chunk of application data.
RDD data records are aggregated — one object represents a slab of tuples
whose combined payload is ``size`` bytes — so the simulation keeps object
counts laptop-scale while byte-accurate costs flow through the device
model.  The structure mirrors Figure 1 of the paper: an RDD top object
references one array object per partition, and each array references its
data (tuple-slab) objects.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Optional

from repro.core.tags import MEMORY_BITS_NONE, MemoryTag

_OBJECT_IDS = itertools.count(1)

#: Size of an object header plus reference slots that tracing touches.
HEADER_BYTES = 16


class ObjKind(enum.Enum):
    """What role an object plays inside an RDD (Table 1's "Obj Type")."""

    RDD_TOP = "rdd-top"
    RDD_ARRAY = "rdd-array"
    DATA = "data"
    CONTROL = "control"


class HeapObject:
    """One simulated heap object.

    Attributes:
        oid: unique object id.
        kind: role within an RDD (top / array / data / control).
        size: payload size in bytes (what copying and scanning cost).
        refs: outgoing references to other heap objects.
        memory_bits: the two reserved header bits (§4.1).
        age: minor GCs survived (drives tenuring).
        addr: current address, or None before first placement.
        space: the :class:`~repro.heap.spaces.Extent` of the space the
            object currently resides in (None when unplaced).
        rdd_id: id of the logical RDD this object belongs to, if any.
        write_count: mutator writes since the last major GC (used by the
            Kingsguard-Writes baseline and by tests).
    """

    __slots__ = (
        "oid",
        "kind",
        "size",
        "refs",
        "memory_bits",
        "age",
        "addr",
        "space",
        "rdd_id",
        "write_count",
        "padded",
        "is_array",
        "_mark",
    )

    def __init__(
        self,
        kind: ObjKind,
        size: int,
        rdd_id: Optional[int] = None,
    ) -> None:
        if size < 0:
            raise ValueError("object size must be non-negative")
        self.oid: int = next(_OBJECT_IDS)
        self.kind = kind
        self.size = size
        self.refs: List["HeapObject"] = []
        self.memory_bits: int = MEMORY_BITS_NONE
        self.age: int = 0
        self.addr: Optional[int] = None
        self.space = None  # type: ignore[assignment]
        self.rdd_id = rdd_id
        self.write_count: int = 0
        #: True when the allocation was padded to a card boundary
        #: (§4.2.3), so the object's last card is exclusively its own.
        self.padded: bool = False
        #: True for RDD backbone arrays (the card-padding targets).
        #: Precomputed: ``kind`` never changes, and this flag is read on
        #: every place/discard/adopt and card-table operation.
        self.is_array: bool = kind is ObjKind.RDD_ARRAY
        self._mark: bool = False

    @property
    def tag(self) -> Optional[MemoryTag]:
        """The memory tag encoded in this object's header bits."""
        return MemoryTag.from_bits(self.memory_bits)

    def set_tag(self, tag: Optional[MemoryTag]) -> None:
        """Set the header bits from a tag (None clears them)."""
        self.memory_bits = MEMORY_BITS_NONE if tag is None else tag.bits

    def add_ref(self, target: "HeapObject") -> None:
        """Add an outgoing reference (bookkeeping only; barriers are the
        heap's job)."""
        self.refs.append(target)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.space.name if self.space is not None else "unplaced"
        return (
            f"<HeapObject #{self.oid} {self.kind.value} {self.size}B "
            f"bits={self.memory_bits:02b} in {where}>"
        )
