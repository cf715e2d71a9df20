"""Heap spaces: contiguous address ranges with bump-pointer allocation.

Young-generation spaces (eden and the two survivor semi-spaces) are always
DRAM-backed.  Old-generation spaces are either homogeneous (Panthera's
DRAM and NVM components, Kingsguard's NVM space) or device-heterogeneous
via a :class:`~repro.memory.interleave.ChunkMap` (the unmanaged baseline's
1 GB-chunk interleaving).

Occupancy accounting is incremental: every residency change goes through
:meth:`Space.place` / :meth:`Space.discard` / :meth:`Space.adopt` /
:meth:`Space.reset`, which maintain the live-byte and array counters the
GC triggers read on every allocation slow path.  ``verify_heap`` checks
the counters against a recomputed sum, so drift is caught by the same
machinery that catches bump-pointer corruption.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.config import DeviceKind
from repro.errors import HeapError, OwnerFreedError
from repro.heap.object_model import HeapObject
from repro.memory.interleave import ChunkMap


class Extent:
    """Where a space lies and what backs it.

    A resident object's ``space`` field points at its space's extent
    (:attr:`Space.extent`), never at the :class:`Space` itself: the
    space holds its objects and the extent holds nothing that reaches
    them, so residency closes no reference cycle, and a heap and its
    objects free by reference counting.  The extent reaches its space
    only through a weak reference, read when an object moves out
    (:meth:`Space.place`).

    Attributes:
        name: human-readable identifier ("eden", "old-nvm", ...).
        base: first address.
        size: capacity in bytes.
        end: one past the last address (``base + size``, precomputed).
        generation: "young", "old", "native" or "region".
        device: backing device for homogeneous spaces (None if chunked).
        chunk_map: address->device map for heterogeneous spaces.
    """

    __slots__ = (
        "name",
        "base",
        "size",
        "end",
        "generation",
        "device",
        "chunk_map",
        "_space",
    )

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        generation: str,
        device: Optional[DeviceKind] = None,
        chunk_map: Optional[ChunkMap] = None,
    ) -> None:
        if size < 0:
            raise HeapError(f"space {name} has negative size")
        if (device is None) == (chunk_map is None):
            raise HeapError(
                f"space {name} needs exactly one of device / chunk_map"
            )
        self.name = name
        self.base = base
        self.size = size
        self.end = base + size
        self.generation = generation
        self.device = device
        self.chunk_map = chunk_map

    @property
    def owner(self) -> "Space":
        """The space this extent describes.

        Raises:
            OwnerFreedError: when that space was freed.
        """
        space = self._space()
        if space is None:
            raise OwnerFreedError(f"space {self.name} was freed")
        return space

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside this space."""
        return self.base <= addr < self.end

    def device_of(self, addr: int) -> DeviceKind:
        """Backing device of one address."""
        if self.device is not None:
            return self.device
        assert self.chunk_map is not None
        return self.chunk_map.device_of(addr)

    def traffic_split(self, addr: int, nbytes: int) -> List[Tuple[DeviceKind, int]]:
        """Split a byte range into per-device pieces for cost charging."""
        if self.device is not None:
            return [(self.device, nbytes)] if nbytes else []
        assert self.chunk_map is not None
        return self.chunk_map.split_range(addr, nbytes)

    def object_traffic(self, obj: HeapObject) -> List[Tuple[DeviceKind, int]]:
        """Per-device byte pieces of one resident object's payload."""
        if obj.addr is None:
            raise HeapError(f"object {obj!r} has no address")
        return self.traffic_split(obj.addr, obj.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Extent {self.name} [{self.base:#x}, {self.end:#x})>"


class Space(Extent):
    """One contiguous region of the simulated heap: an :class:`Extent`
    with a bump pointer and the objects resident in it.

    Attributes:
        extent: what a resident object's ``space`` field points at (a
            space is its own :attr:`~Extent.owner`).
        top: the bump pointer.
        objects: the resident objects.
    """

    __slots__ = (
        "extent",
        "top",
        "objects",
        "_live_bytes",
        "_array_count",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        generation: str,
        device: Optional[DeviceKind] = None,
        chunk_map: Optional[ChunkMap] = None,
    ) -> None:
        super().__init__(name, base, size, generation, device, chunk_map)
        self.extent = Extent(name, base, size, generation, device, chunk_map)
        self._space = self.extent._space = weakref.ref(self)
        self.top = base
        self.objects: Set[HeapObject] = set()
        #: payload bytes of resident objects (incremental live_bytes()).
        self._live_bytes = 0
        #: resident RDD backbone arrays (promotion-guarantee padding term).
        self._array_count = 0

    def holds(self, obj: HeapObject) -> bool:
        """Whether ``obj`` resides in this space."""
        return obj.space is self.extent

    # -- capacity --------------------------------------------------------

    @property
    def used(self) -> int:
        """Bytes allocated since the last reset."""
        return self.top - self.base

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.end - self.top

    # -- allocation ------------------------------------------------------

    def allocate(self, nbytes: int, align_end_to: Optional[int] = None) -> Optional[int]:
        """Bump-allocate ``nbytes``; optionally pad so the allocation's end
        lands on an ``align_end_to`` boundary (Panthera's card padding,
        §4.2.3).

        Returns:
            The address, or None if the space cannot fit the request.
        """
        if nbytes < 0:
            raise HeapError("cannot allocate a negative size")
        addr = self.top
        end = addr + nbytes
        if align_end_to:
            remainder = end % align_end_to
            if remainder:
                end += align_end_to - remainder
        if end > self.end:
            return None
        self.top = end
        return addr

    def place(self, obj: HeapObject, align_end_to: Optional[int] = None) -> bool:
        """Allocate room for ``obj`` here and update its location fields.

        Returns:
            True on success, False when the space is full.
        """
        addr = self.allocate(obj.size, align_end_to=align_end_to)
        if addr is None:
            return False
        old_space = obj.space
        if old_space is not None:
            old_space.owner.discard(obj)
        obj.addr = addr
        obj.space = self.extent
        self.objects.add(obj)
        self._live_bytes += obj.size
        if obj.is_array:
            self._array_count += 1
        return True

    def discard(self, obj: HeapObject) -> bool:
        """Remove ``obj`` from this space's residency set (no address or
        space-field changes — callers clear those when the object dies).

        Returns:
            True when the object was resident here.
        """
        if obj not in self.objects:
            return False
        self.objects.discard(obj)
        self._live_bytes -= obj.size
        if obj.is_array:
            self._array_count -= 1
        return True

    def adopt(self, obj: HeapObject) -> None:
        """Register an object as resident without bump-allocating — the
        dense-prefix path of compaction, where the object keeps its
        address and the caller advances ``top`` explicitly."""
        self.objects.add(obj)
        self._live_bytes += obj.size
        if obj.is_array:
            self._array_count += 1

    def begin_compaction(self) -> List[HeapObject]:
        """Start an in-place compaction: forget all residents and rewind
        the bump pointer, returning the former residents in address order
        so the collector can re-place the live ones."""
        live = sorted(self.objects, key=_addr_key)
        self.objects = set()
        self._live_bytes = 0
        self._array_count = 0
        self.top = self.base
        return live

    def reset(self) -> None:
        """Empty the space (used for eden / from-space after a scavenge).

        Objects still registered here are dead (a scavenge has already
        evacuated the survivors): their location fields are cleared so
        any lingering reference to them is visibly a reference to
        garbage (``obj.space is None``), never a stale young-gen
        residency.  Tracing GCs publish their ``free`` events from
        ``self.objects`` *before* calling this, so the disabled path
        pays nothing extra.
        """
        for obj in self.objects:
            obj.space = None
            obj.addr = None
        self.top = self.base
        self.objects.clear()
        self._live_bytes = 0
        self._array_count = 0

    # -- occupancy ---------------------------------------------------------

    def live_bytes(self) -> int:
        """Total payload bytes of objects currently registered here.

        O(1): maintained incrementally by ``place``/``discard``/``adopt``/
        ``reset`` (``verify_heap`` cross-checks it against a recomputed
        sum; see :func:`~repro.heap.spaces.recompute_live_bytes`).
        """
        return self._live_bytes

    @property
    def array_count(self) -> int:
        """Resident RDD backbone arrays (incremental, like live_bytes)."""
        return self._array_count

    def device_histogram(self) -> Dict[DeviceKind, int]:
        """Payload bytes per backing device for the resident objects.

        Homogeneous spaces answer in O(1) from the incremental
        ``live_bytes`` counter — every resident's traffic lands on the
        one backing device, so the histogram is the counter (or empty
        when nothing is resident, matching the per-object loop, which
        never emits zero-byte pieces).  Chunked spaces still walk their
        residents to split each payload across the chunk boundary.
        """
        if self.device is not None:
            return {self.device: self._live_bytes} if self._live_bytes else {}
        hist: Dict[DeviceKind, int] = {}
        for obj in self.objects:
            for device, nbytes in self.object_traffic(obj):
                hist[device] = hist.get(device, 0) + nbytes
        return hist

    def iter_objects_by_addr(self) -> Iterable[HeapObject]:
        """Objects in address order (compaction order)."""
        return sorted(self.objects, key=_addr_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = self.device.value if self.device else "chunked"
        return (
            f"<Space {self.name} [{self.base:#x}, {self.end:#x}) {backing} "
            f"used={self.used}/{self.size}>"
        )


def _addr_key(obj: HeapObject) -> int:
    """Address sort key (unplaced objects sort first)."""
    return obj.addr or 0


def recompute_live_bytes(space: Space) -> Tuple[int, int]:
    """Recompute ``(live_bytes, array_count)`` from scratch — the oracle
    ``verify_heap`` checks the incremental counters against."""
    total = 0
    arrays = 0
    for obj in space.objects:
        total += obj.size
        if obj.is_array:
            arrays += 1
    return total, arrays
