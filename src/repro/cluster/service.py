"""The shared shuffle service: who owns which reduce partition.

Real Spark-on-YARN deployments run an external shuffle service per node;
reducers fetch map outputs from whichever node's service holds them
(Sparkle, arxiv 1708.05746, replaces exactly this transfer layer with a
shared-memory one).  The simulator models the service as a deterministic
*ownership overlay* over each executor's
:class:`~repro.spark.shuffle.ShuffleManager`:

* Record storage stays in the home executor's manager (the simulated
  records never move — only costs do).
* Every reduce partition of every shuffle is assigned an owning
  executor by a pure function of the shuffle's dense ordinal and the
  partition index, identical on every lane of a parallel run.
* A fetch whose owner is the fetching executor is local (no extra
  cost — the existing disk-read charge stands in for the service
  read).  A fetch owned by a remote executor pays a network hop —
  latency plus serialized bytes over the interconnect — charged on the
  *fetching* machine through :meth:`~repro.memory.machine.Machine.
  run_batch` as a pure-CPU batch (no device-counter pollution, so
  DRAM/NVM utilisation still measures memory-system work).

With one executor every partition is home-owned and the overlay charges
nothing at all — the byte-identity anchor of the 1-executor oracle.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.floats import left_sum

#: The interconnect: 10 GbE with a 200 us RPC round trip.
NET_LATENCY_S = 200e-6
NET_GBPS = 10.0


class ShuffleService:
    """One lane's view of the cluster-wide shuffle service.

    Ownership is a pure function shared by every lane; the fetch
    counters are lane-local and summed into the cluster report.  Remote
    fetches are kept as a log rather than running float sums, so the
    totals of any stretch of fetches (one job's, between a :meth:`mark`
    and now) sum from zero, bit for bit what a counter of just those
    fetches would read.
    """

    def __init__(self, n_executors: int) -> None:
        self.n_executors = n_executors
        self.net_latency_ns = NET_LATENCY_S * 1e9
        self.net_bytes_per_ns = NET_GBPS * (1024.0**3) / 1e9
        self.local_fetches = 0
        #: one ``(serialized bytes, wire ns)`` pair per remote fetch, in
        #: fetch order.
        self.remote_hops: List[Tuple[float, float]] = []

    def owner_of(self, ordinal: int, pidx: int) -> int:
        """The executor owning one reduce partition.

        A pure function of the shuffle's dense first-write ordinal and
        the partition index — round-robin striping, the deterministic
        stand-in for consistent hashing.  With ``n_executors == 1``
        every partition is owned by executor 0.
        """
        return (ordinal + pidx) % self.n_executors

    def hop_ns(self, ser_bytes: float) -> float:
        """Simulated nanoseconds one remote fetch of ``ser_bytes``
        spends on the wire (latency + serialized transfer)."""
        return self.net_latency_ns + ser_bytes / self.net_bytes_per_ns

    def record_local(self) -> None:
        """Account one home-owned fetch."""
        self.local_fetches += 1

    def record_remote(self, ser_bytes: float, hop_ns: float) -> None:
        """Account one cross-executor fetch."""
        self.remote_hops.append((ser_bytes, hop_ns))

    def mark(self) -> Tuple[int, int]:
        """A position in the fetch counters for :meth:`stats`."""
        return self.local_fetches, len(self.remote_hops)

    def stats(self, since: Tuple[int, int] = (0, 0)) -> Dict[str, Any]:
        """Lane-local counters (summed across lanes by the report), over
        the lane's lifetime or over the fetches after a :meth:`mark`."""
        local, remote = since
        hops = self.remote_hops[remote:]
        return {
            "local_fetches": self.local_fetches - local,
            "remote_fetches": len(hops),
            "remote_bytes": float(left_sum(nbytes for nbytes, _ in hops)),
            "net_s": left_sum(ns for _, ns in hops) / 1e9,
        }
