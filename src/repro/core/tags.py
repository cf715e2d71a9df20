"""Memory tags and the MEMORY_BITS object-header encoding (§4.1).

The paper reserves two unused bits in each object header: ``01`` means the
object should live in DRAM, ``10`` in NVM, and ``00`` (the default) means
untagged — such objects follow the ordinary generational life cycle and
are promoted to the NVM part of the old generation if they live long
enough.
"""

from __future__ import annotations

import enum
from typing import Optional

#: Header bit patterns (§4.1).
MEMORY_BITS_NONE = 0b00
MEMORY_BITS_DRAM = 0b01
MEMORY_BITS_NVM = 0b10


class MemoryTag(enum.Enum):
    """Placement tag inferred by the static analysis for an RDD variable."""

    DRAM = "dram"
    NVM = "nvm"

    @property
    def bits(self) -> int:
        """The MEMORY_BITS encoding of this tag."""
        return MEMORY_BITS_DRAM if self is MemoryTag.DRAM else MEMORY_BITS_NVM

    @staticmethod
    def from_bits(bits: int) -> Optional["MemoryTag"]:
        """Decode MEMORY_BITS; returns None for the untagged pattern."""
        if bits == MEMORY_BITS_DRAM:
            return MemoryTag.DRAM
        if bits == MEMORY_BITS_NVM:
            return MemoryTag.NVM
        if bits == MEMORY_BITS_NONE:
            return None
        raise ValueError(f"invalid MEMORY_BITS pattern: {bits:#04b}")


class Placement(enum.Enum):
    """The full per-RDD placement decision of the three-way storage
    model: object heap in DRAM, object heap in NVM, or the serialized
    NVM tier (arXiv 2111.10589's axis).  ``UNPLACED`` covers
    ``DISK_ONLY`` and untagged variables.
    """

    DRAM_HEAP = "object-heap-dram"
    NVM_HEAP = "object-heap-nvm"
    SERIALIZED_NVM = "serialized-nvm"
    UNPLACED = "unplaced"


def placement_for(
    tag: Optional[MemoryTag], serialized_tier: bool
) -> Placement:
    """Fold a memory tag and the tier decision into one placement."""
    if serialized_tier:
        return Placement.SERIALIZED_NVM
    if tag is MemoryTag.DRAM:
        return Placement.DRAM_HEAP
    if tag is MemoryTag.NVM:
        return Placement.NVM_HEAP
    return Placement.UNPLACED


def merge_tags(a: Optional[MemoryTag], b: Optional[MemoryTag]) -> Optional[MemoryTag]:
    """Resolve a tag conflict with the paper's priority rule DRAM > NVM.

    "As long as the object receives DRAM from any reference, it is a DRAM
    object" (§4.2.2); an untagged side never overrides a tagged one.
    """
    if a is MemoryTag.DRAM or b is MemoryTag.DRAM:
        return MemoryTag.DRAM
    return a or b
