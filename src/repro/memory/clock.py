"""A simulated nanosecond clock.

All time in the simulation is *charged*, never measured: mutator work and
GC phases compute their cost from the device model and advance this clock.
Charges are deferred: :meth:`~repro.memory.machine.Machine.run_batch`
queues them, and every reader of charged state — this clock, the device
counters, the bandwidth traces, the GC pause records — settles the queue
before it reads (:class:`SettlesFirst`).
"""

from __future__ import annotations


class SettlesFirst:
    """Mixin for state a machine's deferred charges write.

    :meth:`~repro.memory.machine.Machine.defer_reads` binds an instance
    to its machine's queue; each reader of the state checks
    ``if self._pending: self._settle()`` before it reads.  Unbound, the
    queue is always empty.
    """

    #: the machine's queue of unsettled charges (falsy: nothing pending)
    _pending = ()
    #: the machine's settle, called while ``_pending`` is not empty; it
    #: holds the machine weakly and raises
    #: :class:`~repro.errors.OwnerFreedError` once the machine is gone
    _settle = None

    def records(self) -> dict:
        """Pause kind -> record callback, bound by
        :meth:`~repro.memory.machine.Machine.defer_reads`."""
        return {}


class SettledAttribute:
    """An instance attribute of a :class:`SettlesFirst` class whose every
    read settles the pending charges first; stored in the instance
    ``__dict__`` under its own name (set on the class after
    ``@dataclass``, so the field keeps its default and ``__init__``)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if obj._pending:
            obj._settle()
        return obj.__dict__[self.name]

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


class SimClock(SettlesFirst):
    """Monotonic simulated time in nanoseconds."""

    def __init__(self) -> None:
        self._now_ns: float = 0.0

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        if self._pending:
            self._settle()
        return self._now_ns

    @property
    def now_s(self) -> float:
        """Current simulated time in seconds."""
        return self.now_ns / 1e9

    def advance(self, ns: float) -> float:
        """Advance the clock by ``ns`` nanoseconds, after every pending
        charge, and return the new time.

        Args:
            ns: non-negative duration to add.

        Raises:
            ValueError: if ``ns`` is negative.
        """
        if ns < 0:
            raise ValueError(f"cannot advance the clock by {ns} ns")
        if self._pending:
            self._settle()
        self._now_ns += ns
        return self._now_ns
