"""Memory device model: cost of bulk access batches plus traffic counters.

A *batch* is the unit of cost in the simulation: "16 GC threads trace
40 000 objects resident on NVM" or "8 mutator cores stream 10 GB out of
DRAM".  Its duration is the maximum of three components:

* a CPU component (work that would happen even with infinite memory),
* a latency component: ``random_accesses x latency`` divided by the number
  of threads times the per-thread memory-level parallelism, and
* a bandwidth component: sequential bytes divided by the device's
  sustained bandwidth (threads do not help here — the paper stresses that
  Parallel Scavenge's 16 threads saturate NVM's 10 GB/s).

This mirrors what the paper's NUMA emulator enforces: a 2.6x latency
factor for latency-bound phases and a thermal-register bandwidth cap for
throughput-bound phases (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CACHE_LINE_BYTES, DeviceSpec
from repro.memory.clock import SettlesFirst


@dataclass
class TrafficCounters:
    """Cumulative traffic on one device."""

    read_bytes: float = 0.0
    write_bytes: float = 0.0
    random_reads: int = 0
    random_writes: int = 0

    @property
    def read_lines(self) -> float:
        """Cache lines read (for the energy model)."""
        return self.read_bytes / CACHE_LINE_BYTES

    @property
    def write_lines(self) -> float:
        """Cache lines written (for the energy model)."""
        return self.write_bytes / CACHE_LINE_BYTES


@dataclass
class MemoryDevice(SettlesFirst):
    """One memory technology instance with a capacity and counters.

    Attributes:
        spec: latency/bandwidth/energy parameters.
        capacity_bytes: installed capacity (drives static power).
    """

    spec: DeviceSpec
    capacity_bytes: int

    def __post_init__(self) -> None:
        self._counters = TrafficCounters()
        # charge_row is the innermost arithmetic of the whole simulator;
        # resolve the spec's derived rates once instead of per batch.
        self._read_latency_ns = self.spec.read_latency_ns
        self._write_latency_ns = self.spec.write_latency_ns
        self._bytes_per_ns_read = self.spec.bytes_per_ns_read()
        self._bytes_per_ns_write = self.spec.bytes_per_ns_write()

    def charge_row(
        self,
        read_bytes: float,
        write_bytes: float,
        random_reads: int,
        random_writes: int,
        parallelism: int,
    ) -> float:
        """Duration in ns of a batch on this device, recorded in the counters.

        Args:
            read_bytes: sequentially streamed bytes read.
            write_bytes: sequentially streamed bytes written.
            random_reads: latency-bound (pointer-chasing) read count.
            random_writes: latency-bound write count.
            parallelism: workers issuing the batch times the outstanding
                misses per worker (at least 1).

        Random (latency-bound) accesses also move one cache line each, so
        they contribute to the byte counters for the energy model.
        """
        latency_ns = (
            random_reads * self._read_latency_ns
            + random_writes * self._write_latency_ns
        ) / parallelism
        bandwidth_ns = (
            read_bytes / self._bytes_per_ns_read
            + write_bytes / self._bytes_per_ns_write
        )
        counters = self._counters
        counters.random_reads += random_reads
        counters.random_writes += random_writes
        counters.read_bytes += read_bytes + random_reads * CACHE_LINE_BYTES
        counters.write_bytes += write_bytes + random_writes * CACHE_LINE_BYTES
        return latency_ns if latency_ns > bandwidth_ns else bandwidth_ns

    @property
    def counters(self) -> TrafficCounters:
        """Cumulative traffic, every pending charge settled."""
        if self._pending:
            self._settle()
        return self._counters

    def dynamic_energy_pj(self) -> float:
        """Dynamic energy consumed so far, in pJ."""
        counters = self.counters
        return (
            counters.read_lines * self.spec.read_energy_pj
            + counters.write_lines * self.spec.write_energy_pj
        )

    def static_power_w(self) -> float:
        """Background + refresh power for the installed capacity, in W."""
        gb = self.capacity_bytes / (1024**3)
        return gb * self.spec.static_mw_per_gb / 1e3
