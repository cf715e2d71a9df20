"""The Panthera runtime API (§4.2.1 and §4.3).

Three entry points:

* :meth:`PantheraRuntime.rdd_alloc` — the instrumented native call the
  static analysis inserts before every materialisation point: stamps the
  top object's MEMORY_BITS and arms the allocator's tag-wait state so the
  next large array is pretenured into the tagged space.
* :meth:`PantheraRuntime.place_array` — §4.3's first public API: place a
  (non-Spark) data structure's backbone array by tag, for systems like
  Hadoop, Flink or Cassandra whose backbone is a key-value array.
* :meth:`PantheraRuntime.track` / :meth:`record_call` — §4.3's second
  API: register a data structure for dynamic call-frequency monitoring so
  the major GC can migrate it if its access pattern defies static
  prediction.
"""

from __future__ import annotations

from typing import Optional

from repro.core.monitor import AccessMonitor
from repro.core.tags import MemoryTag
from repro.heap.object_model import HeapObject


class PantheraRuntime:
    """The bridge between semantic tags and the heap/GC."""

    def __init__(self, heap, monitor: AccessMonitor) -> None:
        """Create the runtime.

        Args:
            heap: the :class:`~repro.heap.managed_heap.ManagedHeap`.
            monitor: the access monitor consulted by major GCs.
        """
        self.heap = heap
        self.monitor = monitor
        self._tracked: set = set()

    # -- §4.2.1: instrumented tag passing ----------------------------------

    def rdd_alloc(self, top: HeapObject, tag: Optional[MemoryTag]) -> None:
        """The native method inserted before each materialisation point.

        Sets the top object's MEMORY_BITS from ``tag`` (so the GC will
        move it to the right space regardless of where it currently is)
        and puts the thread into the wait state for the RDD array.
        """
        if tag is not None:
            top.set_tag(tag)
        self.heap.tag_wait.arm(tag)

    # -- §4.3 API 1: pre-tenuring by tag -----------------------------------

    def place_array(
        self,
        size: int,
        tag: Optional[MemoryTag],
        owner_id: Optional[int] = None,
    ) -> HeapObject:
        """Allocate a backbone array directly into the space ``tag`` names.

        The tag can come from developer annotations or from a framework-
        specific static analysis (the Hadoop HashJoin example of §4.3).
        """
        self.heap.tag_wait.arm(tag)
        return self.heap.allocate_rdd_array(size, owner_id)

    # -- §4.3 API 2: dynamic monitoring -------------------------------------

    def track(self, owner_id: int) -> None:
        """Register a data structure for call-frequency monitoring.

        Tracked structures are *not* pretenured; they are subject to
        dynamic migration by the major GC based on the call counts fed in
        through :meth:`record_call`.
        """
        self._tracked.add(owner_id)

    def is_tracked(self, owner_id: int) -> bool:
        """Whether a data structure is registered for monitoring."""
        return owner_id in self._tracked

    def record_call(self, owner_id: int) -> None:
        """Count one method call on a monitored data structure."""
        self.monitor.record_call(owner_id)
