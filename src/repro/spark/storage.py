"""Storage levels and their Panthera sub-level expansion (§3).

Spark's ten storage levels are modelled with three orthogonal flags
(memory / disk / serialised).  Panthera expands every level except
``OFF_HEAP`` and ``DISK_ONLY`` into ``_DRAM`` and ``_NVM`` sub-levels;
``OFF_HEAP`` translates directly into ``OFF_HEAP_NVM`` (native memory
lives in NVM) and ``DISK_ONLY`` carries no memory tag.

The purely-in-memory serialised levels (``MEMORY_ONLY_SER`` and
``OFF_HEAP``) are stored in the serialized tier: partitions charged as
packed bytes in the native off-heap region (see
:mod:`repro.spark.serialized`) instead of object-heap structures — no
per-object GC tracing cost, but every access pays deserialisation.
That is the third placement target of "Garbage Collection or
Serialization? Between a Rock and a Hard Place!" (arXiv 2111.10589),
next to the paper's DRAM and NVM object heaps.  ``OFF_HEAP`` landing
there is §3's native NVM memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.tags import MemoryTag


class StorageLevel(enum.Enum):
    """The Spark storage levels used by the paper's workloads."""

    MEMORY_ONLY = "MEMORY_ONLY"
    MEMORY_ONLY_SER = "MEMORY_ONLY_SER"
    MEMORY_ONLY_2 = "MEMORY_ONLY_2"
    MEMORY_AND_DISK = "MEMORY_AND_DISK"
    MEMORY_AND_DISK_SER = "MEMORY_AND_DISK_SER"
    MEMORY_AND_DISK_2 = "MEMORY_AND_DISK_2"
    MEMORY_AND_DISK_SER_2 = "MEMORY_AND_DISK_SER_2"
    DISK_ONLY = "DISK_ONLY"
    DISK_ONLY_2 = "DISK_ONLY_2"
    OFF_HEAP = "OFF_HEAP"

    @property
    def use_memory(self) -> bool:
        """Whether the level keeps data in the managed heap."""
        return self.name.startswith("MEMORY")

    @property
    def use_disk(self) -> bool:
        """Whether the level may fall back to disk."""
        return "DISK" in self.name

    @property
    def serialized(self) -> bool:
        """Whether the in-memory form is serialised."""
        return "SER" in self.name

    @property
    def off_heap(self) -> bool:
        """Whether the level stores data in native memory."""
        return self is StorageLevel.OFF_HEAP

    @property
    def taggable(self) -> bool:
        """Whether Panthera expands this level into _DRAM/_NVM sub-levels.

        OFF_HEAP is forced to NVM and DISK_ONLY carries no tag (§3).
        """
        return not (self.off_heap or self in (
            StorageLevel.DISK_ONLY,
            StorageLevel.DISK_ONLY_2,
        ))


def routes_to_serialized_tier(level: StorageLevel) -> bool:
    """Whether a level's persists land in the serialized tier.

    The purely-in-memory serialised level and the off-heap level route;
    the ``MEMORY_AND_DISK_SER*`` levels keep the object-heap
    serialised-buffer form (their disk component needs the block
    manager's spill path).
    """
    if level is StorageLevel.OFF_HEAP:
        return True
    return level.serialized and not level.use_disk


@dataclass(frozen=True)
class TaggedStorageLevel:
    """A storage level expanded with Panthera's memory tag sub-level."""

    level: StorageLevel
    tag: Optional[MemoryTag]

    @property
    def name(self) -> str:
        """The expanded sub-level name, e.g. ``MEMORY_ONLY_DRAM``."""
        if self.tag is None:
            return self.level.value
        return f"{self.level.value}_{self.tag.value.upper()}"


def expand_level(
    level: StorageLevel, inferred: Optional[MemoryTag]
) -> TaggedStorageLevel:
    """Apply §3's expansion rules to one persist call.

    Args:
        level: the developer-written storage level.
        inferred: the tag the static analysis inferred for the variable.

    Returns:
        The tagged sub-level: OFF_HEAP always becomes NVM, DISK_ONLY never
        carries a tag, everything else takes the inferred tag.  Levels
        landing in the serialized tier (OFF_HEAP among them) are forced
        NVM — native memory is the NVM component (§4.1), which is
        exactly why this tier is the paper axis "serialized-NVM".
    """
    if routes_to_serialized_tier(level):
        return TaggedStorageLevel(level, MemoryTag.NVM)
    if not level.taggable:
        return TaggedStorageLevel(level, None)
    return TaggedStorageLevel(level, inferred)
