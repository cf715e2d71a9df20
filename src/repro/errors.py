"""Exception hierarchy for the Panthera reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A system configuration is inconsistent (e.g. DRAM larger than heap)."""


class OutOfMemoryError(ReproError):
    """The simulated heap cannot satisfy an allocation even after a full GC."""


class HeapError(ReproError):
    """An invariant of the simulated heap was violated."""


class GCError(ReproError):
    """An invariant of the garbage collector was violated."""


class SparkError(ReproError):
    """A Spark-level failure (bad transformation, missing block, ...)."""


class AnalysisError(ReproError):
    """The static analysis was given a malformed program IR."""


class FaultError(ReproError):
    """A fault plan is invalid, or recovery exceeded its bounded retries."""


class OwnerFreedError(ReproError):
    """A member was read through its weak reference back to an owner
    that has since been freed (a clock or device counter whose machine
    is gone with charges still queued, an RDD whose context is gone)."""
