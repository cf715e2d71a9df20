"""The card table and the shared-card pathology Panthera's padding fixes.

OpenJDK divides the heap into 512-byte cards; a write barrier dirties the
card holding a written reference, and each minor GC scans dirty cards for
old-to-young references.  Section 4.2.3 of the paper describes the
pathology this reproduction models: when two large arrays share a card
(one ends in the middle, the next begins there), the card can never be
cleaned by either GC thread, so *every* minor GC rescans every element of
both arrays until a major GC occurs.  Panthera pads array allocations so
each array ends exactly on a card boundary, eliminating sharing.

Card spans of multi-gigabyte arrays are tracked as ranges, never
enumerated.  Only the first and last card of an object can be shared
under bump-pointer allocation, so sharing detection needs only those two
boundary cards.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

from repro.config import CARD_SIZE
from repro.errors import HeapError
from repro.heap.object_model import HeapObject


class CardTable:
    """Tracks dirty state and card sharing for old-generation objects."""

    def __init__(self) -> None:
        #: object -> (first card index, last card index)
        self._spans: Dict[HeapObject, Tuple[int, int]] = {}
        #: boundary card index -> objects touching that card
        self._boundary: Dict[int, Set[HeapObject]] = {}
        #: freshly dirtied objects, scanned (then cleaned) by the next minor GC
        self._dirty: Set[HeapObject] = set()
        #: objects stuck dirty because a shared card was dirtied; rescanned
        #: by every minor GC until a major GC
        self._stuck: Set[HeapObject] = set()

    # -- registration ------------------------------------------------------

    def register(self, obj: HeapObject) -> None:
        """Start tracking an old-generation object's card span."""
        if obj.addr is None:
            raise HeapError("cannot register an unplaced object")
        if obj in self._spans:
            self.unregister(obj)
        first = obj.addr // CARD_SIZE
        last = (obj.addr + max(obj.size, 1) - 1) // CARD_SIZE
        self._spans[obj] = (first, last)
        self._boundary.setdefault(first, set()).add(obj)
        self._boundary.setdefault(last, set()).add(obj)

    def unregister(self, obj: HeapObject) -> bool:
        """Stop tracking an object (death or migration).

        Returns:
            True when the object was tracked — one dict lookup instead of
            the ``is_registered`` + ``unregister`` double probe.
        """
        span = self._spans.pop(obj, None)
        if span is None:
            return False
        for card in set(span):
            occupants = self._boundary.get(card)
            if occupants is not None:
                occupants.discard(obj)
                if not occupants:
                    del self._boundary[card]
        self._dirty.discard(obj)
        self._stuck.discard(obj)
        return True

    def is_registered(self, obj: HeapObject) -> bool:
        """Whether the object is currently tracked."""
        return obj in self._spans

    # -- dirtying ------------------------------------------------------------

    def neighbors_sharing_card(self, obj: HeapObject) -> Set[HeapObject]:
        """Objects that share a boundary card with ``obj``.

        With Panthera's padding every array ends on a card boundary, so
        this set is empty by construction.
        """
        span = self._spans.get(obj)
        if span is None:
            return set()
        shared: Set[HeapObject] = set()
        for card in set(span):
            shared |= self._boundary.get(card, set()) - {obj}
        return shared

    def mark_dirty(self, obj: HeapObject) -> None:
        """Dirty the cards of one object (an old-to-young reference was
        written into it).

        If the object is a large array whose end does not fall on a card
        boundary, its last card is shared with whatever the bump
        allocator placed next ("shared cards exist pervasively",
        §4.2.3): neither GC thread can clean that card, so the array is
        *stuck* — rescanned by every minor GC until a major GC clears
        the table.  Panthera's padding aligns array ends to card
        boundaries, so padded arrays are never stuck.  An explicitly
        registered neighbour sharing a boundary card is dragged into the
        stuck set as well.
        """
        if obj not in self._spans:
            raise HeapError(f"dirtying an unregistered object: {obj!r}")
        self._dirty.add(obj)
        misaligned = (
            obj.is_array
            and not obj.padded
            and (obj.addr + obj.size) % CARD_SIZE != 0
        )
        neighbors = self.neighbors_sharing_card(obj)
        if misaligned or neighbors:
            self._stuck.add(obj)
            self._stuck.update(n for n in neighbors if n.is_array)

    # -- minor GC interface ---------------------------------------------------

    def pending_scan(self) -> bool:
        """Whether the next minor GC has any cards to scan at all — lets
        the scavenge skip :meth:`scan_plan`'s defensive set copies (and
        the whole card phase) on a clean table."""
        return bool(self._dirty or self._stuck)

    def has_fresh_dirt(self) -> bool:
        """Whether any object was dirtied since the last minor GC's
        scan — the only dirt a scavenge can find young references
        through once the young generation is empty."""
        return bool(self._dirty)

    def scan_plan(self) -> Tuple[Set[HeapObject], Set[HeapObject]]:
        """Objects the next minor GC must card-scan.

        Returns:
            ``(fresh, stuck)``: freshly dirtied objects (cleaned after the
            scan) and stuck objects (rescanned every minor GC).
        """
        return set(self._dirty), set(self._stuck)

    def after_minor_scan(self) -> None:
        """Clean what can be cleaned after a minor GC's card scan: fresh
        dirt is cleared; stuck objects remain dirty."""
        self._dirty.clear()

    def clear_all(self) -> None:
        """Major GC: every card is cleaned."""
        self._dirty.clear()
        self._stuck.clear()

    # -- introspection ---------------------------------------------------------

    @property
    def dirty_objects(self) -> Set[HeapObject]:
        """Freshly dirty objects (for tests)."""
        return set(self._dirty)

    def tracked(self) -> Iterable[HeapObject]:
        """All registered objects."""
        return self._spans.keys()
