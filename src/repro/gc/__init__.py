"""Garbage collection: a Parallel Scavenge-style generational collector
with pluggable hybrid-memory placement policies.

The policies are the configurations compared in the paper's evaluation
(§5.2) — DRAM-only, the unmanaged chunk-interleaved baseline, Panthera,
and the two Write-Rationing GCs (Kingsguard-Nursery and
Kingsguard-Writes) — plus Deca's lifetime regions.  Each is one
:class:`PlacementPolicy`; the Spark engine only calls its hooks.
"""

from repro.gc.collector import Collector
from repro.gc.policies import PlacementPolicy, make_policy
from repro.gc.stats import GCStats

__all__ = ["Collector", "GCStats", "PlacementPolicy", "make_policy"]
