"""Storage levels and their Panthera sub-level expansion (§3).

Spark's ten storage levels are modelled with three orthogonal flags
(memory / disk / serialised).  Panthera expands every level except
``OFF_HEAP`` and ``DISK_ONLY`` into ``_DRAM`` and ``_NVM`` sub-levels;
``OFF_HEAP`` translates directly into ``OFF_HEAP_NVM`` (native memory
lives in NVM) and ``DISK_ONLY`` carries no memory tag.

This module also owns the ``SERIALIZED_TIER`` flag: with it on (the
default), the purely-in-memory serialised levels (``MEMORY_ONLY_SER``
and ``OFF_HEAP``) are stored as packed column batches in the native
off-heap region (see :mod:`repro.spark.serialized`) instead of as
object-heap structures — no per-object GC tracing cost, but every
access pays deserialisation.  That is the third placement target of
"Garbage Collection or Serialization? Between a Rock and a Hard
Place!" (arXiv 2111.10589), next to the paper's DRAM and NVM object
heaps.
"""

from __future__ import annotations

import enum
import os
import warnings
from dataclasses import dataclass
from typing import Optional

from repro.core.tags import MemoryTag
from repro.errors import ConfigError

#: Switch for the serialized off-heap tier.  On (the default),
#: ``MEMORY_ONLY_SER`` and ``OFF_HEAP`` persists are stored as packed
#: column batches in native memory, invisible to minor/major GC tracing.
#: Off, every level takes the legacy object-heap path and all outputs
#: (gclogs, traces, bandwidth CSVs, fault checksums) are byte-identical
#: to the pre-tier system.  The environment override is read at import
#: so CI can force either side in a fresh process:
#: ``REPRO_SERIALIZED_TIER=0 pytest ...``.
SERIALIZED_TIER = os.environ.get("REPRO_SERIALIZED_TIER", "1") not in (
    "0",
    "false",
    "off",
)


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


class StorageTier(enum.Enum):
    """Where a persisted block's payload physically lives.

    ``OBJECT_HEAP`` is the paper's placement: top + backbone arrays +
    tuple slabs in the DRAM/NVM object heaps, traced by every GC.
    ``SERIALIZED`` is the packed-column-batch native region (no GC
    tracing, (de)serialisation on access).  ``NATIVE`` is the legacy
    unserialised off-heap placement ``OFF_HEAP`` takes when the
    ``SERIALIZED_TIER`` flag is off.  ``DISK`` is ``DISK_ONLY``.
    """

    OBJECT_HEAP = "object-heap"
    SERIALIZED = "serialized"
    NATIVE = "native"
    DISK = "disk"


def routes_to_serialized_tier(level: StorageLevel) -> bool:
    """Whether a level belongs to the serialized tier *when it is on*.

    The purely-in-memory serialised level and the off-heap level route;
    the ``MEMORY_AND_DISK_SER*`` levels keep the legacy object-heap
    serialised-buffer form (their disk component needs the block
    manager's spill path).
    """
    if level is StorageLevel.OFF_HEAP:
        return True
    return level.serialized and not level.use_disk


def serialized_tier_active(level: StorageLevel) -> bool:
    """Whether this persist actually lands in the serialized tier now
    (the level routes there *and* the ``SERIALIZED_TIER`` flag is on)."""
    return SERIALIZED_TIER and routes_to_serialized_tier(level)


def require_serialized_tier() -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the tier is on.

    The explicit-opt-in surface (``persist_serialized``) fails loudly
    when the flag is off; the enum levels instead degrade to the legacy
    object-heap placement with a :class:`UserWarning` so that
    ``SERIALIZED_TIER=0`` stays byte-identical to the pre-tier system.
    """
    if not SERIALIZED_TIER:
        raise ConfigError(
            "persist_serialized() requires the serialized off-heap tier; "
            "it is disabled (SERIALIZED_TIER is off — unset "
            "REPRO_SERIALIZED_TIER or set it to 1)"
        )


def warn_legacy_serialized_fallthrough(level: StorageLevel) -> None:
    """Warn that a tier-routed level is degrading to object-heap form.

    Before the serialized tier existed, ``MEMORY_ONLY_SER`` and
    ``OFF_HEAP`` silently fell through to object-heap/native placement.
    With the flag off that behaviour is preserved bit-for-bit, but it
    is no longer silent.
    """
    warnings.warn(
        f"StorageLevel.{level.value} requested but SERIALIZED_TIER is "
        "off: falling back to the legacy object-heap placement "
        "(identical to the pre-tier system)",
        UserWarning,
        stacklevel=3,
    )


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

    @property
    def is_off_heap(self) -> bool:
        """Whether the underlying level stores data in native memory."""
        return self.level.off_heap

    @property
    def replicated(self) -> bool:
        """Whether the level is a ``_2`` (two-replica) variant."""
        return self.level.value.endswith("_2")

    @property
    def serialized(self) -> bool:
        """Whether the in-memory form is serialised."""
        return self.level.serialized

    @property
    def tier(self) -> StorageTier:
        """The physical tier this expanded level lands in *right now*
        (reads the live ``SERIALIZED_TIER`` flag)."""
        if serialized_tier_active(self.level):
            return StorageTier.SERIALIZED
        if self.level.off_heap:
            return StorageTier.NATIVE
        if self.level.use_memory:
            return StorageTier.OBJECT_HEAP
        return StorageTier.DISK


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
        landing in the serialized tier are forced NVM like OFF_HEAP —
        native memory is the NVM component (§4.1), which is exactly why
        this tier is the paper axis "serialized-NVM".
    """
    if level.off_heap or serialized_tier_active(level):
        return TaggedStorageLevel(level, MemoryTag.NVM)
    if not level.taggable:
        return TaggedStorageLevel(level, None)
    return TaggedStorageLevel(level, inferred)
