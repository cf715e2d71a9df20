"""Dynamic access monitoring (§4.2.2, §5.5).

Panthera's static analysis inserts a JNI call at every transformation /
action call site on an RDD object; the native side increments a hash-table
counter keyed by the RDD.  Major GCs consult the counters to re-assess
placement and reset them.  Table 5 reports the lifetime number of
monitored calls per benchmark and the number of RDDs migrated; §5.5 notes
the monitoring overhead stays below 1 %.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.memory.machine import Machine


class AccessMonitor:
    """Per-RDD call-frequency table with cheap per-call cost accounting."""

    #: Cost of one instrumented JNI call (crossing into the native method
    #: and bumping a hash-table slot).
    JNI_CALL_NS = 500.0

    def __init__(self, machine: Machine) -> None:
        self._machine = machine
        self._calls_this_cycle: Dict[int, int] = defaultdict(int)
        self._total_calls = 0
        self._overhead_ns = 0.0

    def record_call(self, rdd_id: int) -> None:
        """One transformation/action was invoked on the RDD."""
        self._calls_this_cycle[rdd_id] += 1
        self._total_calls += 1
        self._overhead_ns += self.JNI_CALL_NS
        self._machine.run_batch([((), self.JNI_CALL_NS)])

    def call_count(self, rdd_id: int) -> int:
        """Calls on the RDD since the last major GC."""
        return self._calls_this_cycle.get(rdd_id, 0)

    def reset(self) -> None:
        """Clear the per-cycle counters ("at the end of each major GC, the
        frequency for each RDD is reset")."""
        self._calls_this_cycle.clear()

    @property
    def total_calls(self) -> int:
        """Lifetime number of monitored calls (Table 5, column 2)."""
        return self._total_calls

    @property
    def overhead_ns(self) -> float:
        """Total monitoring overhead charged so far."""
        return self._overhead_ns

    def snapshot(self) -> Dict[int, int]:
        """Copy of the current per-cycle counters (for tests/reports)."""
        return dict(self._calls_this_cycle)
