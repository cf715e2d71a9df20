"""System configuration: device specifications, energy model and heap sizing.

The numbers in this module come straight from the paper:

* Table 2 gives the DRAM/NVM device parameters used by the NUMA-based
  emulator (DRAM: 120 ns read latency, 30 GB/s; NVM: 300 ns one-hop read
  latency, 10 GB/s read and write, throttled with the thermal control
  register).
* Section 5.1 gives the energy model: Micron TN-40-07 DDR4 numbers for
  DRAM, and Lee et al.'s PCM model for NVM (row-buffer write energy
  1.02 pJ/bit, 32-bit partial write-back, array write-back energy
  16.8 pJ/bit of which only 7.6 % of dirty words are written, array read
  energy 2.47 pJ/bit, row-buffer miss ratio 0.5).  The paper's bottom
  line — 31 200 pJ per NVM cache-line write — is used verbatim.

Sizes are *true* bytes: a "64 GB heap" really is ``64 * GiB``.  Workload
datasets are represented by a few thousand record objects whose ``size``
fields carry the real byte weight, so the simulation stays laptop-scale
while latency/bandwidth/energy computations run on paper-scale numbers.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from repro.errors import ConfigError

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

CACHE_LINE_BYTES = 64

# --- Platform and GC model constants (paper §5.1) ----------------------
#
# One platform runs every experiment, so these are constants, not
# configuration.  ``GC_NS_PER_BYTE`` was fitted once and is frozen
# (docs/COST_MODEL.md §6).

#: Parallel GC worker count (paper: "16 GC threads in each GC").
GC_THREADS = 16
#: Executor cores running Spark tasks (paper: 8-core E7-4809 v3 per node).
MUTATOR_THREADS = 8
#: Memory-level parallelism per thread for latency-bound access batches.
MLP = 4
#: Each survivor semi-space as a fraction of the young generation (eden
#: gets the rest).
SURVIVOR_FRACTION = 0.125
#: Minor GCs an untagged object must survive before promotion.
TENURING_THRESHOLD = 3
#: Card granularity in bytes (OpenJDK: 512).
CARD_SIZE = 512
#: Writes per major-GC cycle above which the Kingsguard-Writes baseline
#: considers an object write-hot.
KW_WRITE_THRESHOLD = 2
#: Per-byte GC processing cost across the 16 GC threads (tracing,
#: copying and card scanning are object work, not pure memcpy).  0.04 ns
#: per processed byte, read plus write, caps aggregate GC throughput at
#: 25 GB/s on DRAM, so NVM's 10 GB/s — not CPU — becomes the binding
#: constraint for NVM-resident collection work, which is exactly the
#: effect §5.3 describes.
GC_NS_PER_BYTE = 0.04
#: Fixed safepoint + thread/class root-scan cost of every collection.
GC_FIXED_PAUSE_NS = 200_000.0
#: Fraction of eden's used bytes still live (in-flight aggregation
#: buffers, iterator state) when a minor GC hits; they are copied to a
#: survivor space.  This is the floor cost every scavenge pays in every
#: configuration.
MINOR_LIVE_FRACTION = 0.4
#: PSParallelCompact-style dense prefix: a full GC leaves the bottom of
#: each old space unmoved while the accumulated dead space under the
#: compaction cursor stays below this fraction of the space.
DENSE_PREFIX_WASTE = 0.05


class DeviceKind(enum.Enum):
    """The two memory technologies of the hybrid system, plus disk."""

    DRAM = "dram"
    NVM = "nvm"
    DISK = "disk"

    # Members are singletons and Enum equality is identity, so the default
    # identity hash is exact — and C-level, unlike Enum's Python-level
    # ``hash(self._name_)``.  Device kinds key the hottest dicts in the
    # simulator (traffic sets, bandwidth bins, charge accumulators); no
    # code iterates a *set* of them, so ordering is unaffected (dicts
    # iterate in insertion order regardless of hash).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class DeviceSpec:
    """Performance and energy parameters of one memory technology.

    Attributes:
        kind: which technology this spec describes.
        read_latency_ns: latency of one random read (cache-line granular).
        write_latency_ns: latency of one random write.
        read_bandwidth_gbps: sustained sequential read bandwidth in GB/s.
        write_bandwidth_gbps: sustained sequential write bandwidth in GB/s.
        read_energy_pj: dynamic energy of one cache-line read, in pJ.
        write_energy_pj: dynamic energy of one cache-line write, in pJ.
        static_mw_per_gb: background + refresh power per GB, in mW.
    """

    kind: DeviceKind
    read_latency_ns: float
    write_latency_ns: float
    read_bandwidth_gbps: float
    write_bandwidth_gbps: float
    read_energy_pj: float
    write_energy_pj: float
    static_mw_per_gb: float

    def bytes_per_ns_read(self) -> float:
        """Sequential read throughput in bytes per nanosecond."""
        return self.read_bandwidth_gbps  # 1 GB/s == 1 byte/ns

    def bytes_per_ns_write(self) -> float:
        """Sequential write throughput in bytes per nanosecond."""
        return self.write_bandwidth_gbps


# --- Energy model constants (paper §5.1) -------------------------------

#: Row-buffer write energy (pJ/bit), from Lee et al. [30].
ROW_BUFFER_WRITE_PJ_PER_BIT = 1.02
#: NVM array write-back energy (pJ/bit).
NVM_ARRAY_WRITE_PJ_PER_BIT = 16.8
#: Fraction of dirty words actually written back to the NVM array.
NVM_PARTIAL_WRITE_FRACTION = 0.076
#: NVM array read energy (pJ/bit).
NVM_ARRAY_READ_PJ_PER_BIT = 2.47
#: Assumed row-buffer miss ratio.
ROW_BUFFER_MISS_RATIO = 0.5

#: The paper's bottom line: total NVM energy per cache-line write.
NVM_WRITE_PJ_PER_CACHE_LINE = 31_200.0

#: Uniform multiplier on all per-cache-line dynamic energies.  The
#: simulation's slab-aggregated traffic counts each payload byte once per
#: logical pass, while real hardware touches lines several times per pass
#: (pointer chasing, cache-miss refills, write-backs of barrier-marked
#: cards).  The factor is calibrated so dynamic energy is ~40 % of a
#: DRAM-only run's total — the balance the paper's normalised results
#: imply — and it preserves the published *ratios* between DRAM/NVM
#: read/write energies exactly.
DYNAMIC_ENERGY_FACTOR = 16.0

#: NVM reads are non-destructive: array read on a row-buffer miss plus the
#: row-buffer access itself.
NVM_READ_PJ_PER_CACHE_LINE = (
    ROW_BUFFER_MISS_RATIO * NVM_ARRAY_READ_PJ_PER_BIT * CACHE_LINE_BYTES * 8
    + ROW_BUFFER_WRITE_PJ_PER_BIT * CACHE_LINE_BYTES * 8 * 0.5
)

#: DRAM dynamic energy per cache-line access (activation + restore + I/O),
#: derived from Micron TN-40-07 DDR4 power numbers (~5 pJ/bit end to end).
DRAM_READ_PJ_PER_CACHE_LINE = 2_600.0
DRAM_WRITE_PJ_PER_CACHE_LINE = 2_600.0

#: DDR4 background + refresh power (from TN-40-07's idle/active-standby
#: currents, calibrated so the static/dynamic balance matches the
#: paper's normalised energy results): 45 mW per GB.
DRAM_STATIC_MW_PER_GB = 45.0
#: NVM static power is "negligible compared to DRAM" [31].
NVM_STATIC_MW_PER_GB = 3.0


DRAM_SPEC = DeviceSpec(
    kind=DeviceKind.DRAM,
    read_latency_ns=120.0,
    write_latency_ns=120.0,
    read_bandwidth_gbps=30.0,
    write_bandwidth_gbps=30.0,
    read_energy_pj=DRAM_READ_PJ_PER_CACHE_LINE * DYNAMIC_ENERGY_FACTOR,
    write_energy_pj=DRAM_WRITE_PJ_PER_CACHE_LINE * DYNAMIC_ENERGY_FACTOR,
    static_mw_per_gb=DRAM_STATIC_MW_PER_GB,
)

NVM_SPEC = DeviceSpec(
    kind=DeviceKind.NVM,
    read_latency_ns=300.0,
    write_latency_ns=300.0,
    read_bandwidth_gbps=10.0,
    write_bandwidth_gbps=10.0,
    read_energy_pj=NVM_READ_PJ_PER_CACHE_LINE * DYNAMIC_ENERGY_FACTOR,
    write_energy_pj=NVM_WRITE_PJ_PER_CACHE_LINE * DYNAMIC_ENERGY_FACTOR,
    static_mw_per_gb=NVM_STATIC_MW_PER_GB,
)

#: Disk used for shuffle files and spilled RDD partitions.  The paper does
#: not model disk energy; we only charge time.
DISK_SPEC = DeviceSpec(
    kind=DeviceKind.DISK,
    read_latency_ns=100_000.0,
    write_latency_ns=100_000.0,
    read_bandwidth_gbps=2.0,
    write_bandwidth_gbps=1.5,
    read_energy_pj=0.0,
    write_energy_pj=0.0,
    static_mw_per_gb=0.0,
)


class PolicyName(enum.Enum):
    """The memory-management policies compared in the evaluation (§5.2)."""

    DRAM_ONLY = "dram-only"
    UNMANAGED = "unmanaged"
    PANTHERA = "panthera"
    KINGSGUARD_NURSERY = "kingsguard-nursery"
    KINGSGUARD_WRITES = "kingsguard-writes"
    #: Deca-style lifetime-based region allocation (arXiv 1602.01959):
    #: RDD data lives in bump-pointer arenas freed wholesale at stage/job
    #: boundaries instead of being traced by the generational collector.
    DECA = "deca"


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of one simulated node.

    Attributes:
        heap_bytes: size of the managed Java heap.
        dram_bytes: physical DRAM capacity.  For hybrid configurations this
            is ``dram_ratio * total memory``; for DRAM-only it equals the
            total memory.
        nvm_bytes: physical NVM capacity (0 for DRAM-only).
        policy: which placement policy manages the heap.
        nursery_fraction: young generation size as a fraction of the heap
            (paper §5.2: 1/6 performed best).
        large_array_threshold: byte size above which an allocation in the
            tag-wait state is recognised as the RDD array (§4.2.1; the
            paper uses a one-million-element length threshold).
        interleave_chunk_bytes: chunk granularity of the unmanaged
            baseline's probabilistic DRAM/NVM interleaving (1 GB).
        card_padding: Panthera's card-alignment optimisation (§4.2.3).
        eager_promotion: Panthera's eager promotion of tagged objects
            (§4.2.2).
        dynamic_migration: major-GC reassessment + migration (§4.2.2).
        seed: RNG seed for the unmanaged chunk mapping.
    """

    heap_bytes: int
    dram_bytes: int
    nvm_bytes: int
    policy: PolicyName = PolicyName.PANTHERA
    nursery_fraction: float = 1.0 / 6.0
    large_array_threshold: int = 1 * MiB
    interleave_chunk_bytes: int = 1 * GiB
    card_padding: bool = True
    eager_promotion: bool = True
    dynamic_migration: bool = True
    #: Multiplier on static (background + refresh) power.  Down-scaled
    #: runs shrink traffic linearly but capacity x time quadratically;
    #: setting this to 1/scale restores the full-scale static/dynamic
    #: balance so normalised energy results are scale-invariant.
    static_energy_factor: float = 1.0
    #: Sensitivity knobs for the NVM technology: the paper quotes NVM
    #: read latency at "2-4x" DRAM and bandwidth at "1/8-1/3" of DRAM;
    #: these multipliers move the emulated device within that range
    #: (1.0 = Table 2's defaults).
    nvm_latency_factor: float = 1.0
    nvm_bandwidth_factor: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.heap_bytes <= 0:
            raise ConfigError("heap_bytes must be positive")
        if self.dram_bytes < 0 or self.nvm_bytes < 0:
            raise ConfigError("memory capacities must be non-negative")
        if self.heap_bytes > self.total_memory_bytes:
            raise ConfigError(
                f"heap ({self.heap_bytes}) exceeds physical memory "
                f"({self.total_memory_bytes})"
            )
        if not 0.0 < self.nursery_fraction < 1.0:
            raise ConfigError("nursery_fraction must be in (0, 1)")
        if self.nursery_bytes > self.dram_bytes:
            raise ConfigError(
                "the young generation must fit in DRAM "
                f"(nursery {self.nursery_bytes} > DRAM {self.dram_bytes})"
            )

    @property
    def total_memory_bytes(self) -> int:
        """Combined physical DRAM + NVM capacity."""
        return self.dram_bytes + self.nvm_bytes

    @property
    def dram_ratio(self) -> float:
        """Fraction of physical memory that is DRAM."""
        return self.dram_bytes / self.total_memory_bytes

    @property
    def nursery_bytes(self) -> int:
        """Young generation size."""
        return int(self.heap_bytes * self.nursery_fraction)

    @property
    def old_gen_bytes(self) -> int:
        """Old generation size."""
        return self.heap_bytes - self.nursery_bytes

    @property
    def old_dram_bytes(self) -> int:
        """DRAM left over for the old generation once the nursery took its
        share (zero under policies that put the whole old gen in NVM)."""
        if self.policy is PolicyName.DRAM_ONLY:
            return self.old_gen_bytes
        if self.policy in (
            PolicyName.KINGSGUARD_NURSERY,
            PolicyName.KINGSGUARD_WRITES,
        ):
            # Kingsguard keeps only the nursery (and, for KW, a small
            # migration target) in DRAM; the old generation starts in NVM.
            if self.policy is PolicyName.KINGSGUARD_WRITES:
                return min(
                    self.old_gen_bytes,
                    max(0, self.dram_bytes - self.nursery_bytes),
                )
            return 0
        return min(self.old_gen_bytes, max(0, self.dram_bytes - self.nursery_bytes))

    @property
    def old_nvm_bytes(self) -> int:
        """NVM share of the old generation."""
        return self.old_gen_bytes - self.old_dram_bytes

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        """Every field as a JSON-safe dict, in field order.

        The canonical serialisation used by the experiment engine's
        content-addressed cache keys: enums become their values, so the
        output is stable across processes and Python versions.
        """
        out = dataclasses.asdict(self)
        out["policy"] = self.policy.value
        return out

    def fingerprint(self) -> str:
        """Stable SHA-256 content hash of this configuration."""
        import hashlib
        import json

        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


def hybrid_config(
    heap_gb: float,
    dram_ratio: float,
    policy: PolicyName = PolicyName.PANTHERA,
    **kwargs,
) -> SystemConfig:
    """Build a hybrid-memory configuration the way the paper states them.

    The paper sizes physical memory to the heap and quotes "DRAM to memory
    ratio": a 64 GB heap at ratio 1/3 runs on ~21 GB DRAM + ~43 GB NVM.

    Args:
        heap_gb: managed heap size in GB.
        dram_ratio: DRAM fraction of total memory (1/4, 1/3, or 1.0).
        policy: placement policy.
        **kwargs: forwarded to :class:`SystemConfig`.
    """
    heap = int(heap_gb * GiB)
    dram = int(heap * dram_ratio)
    nvm = heap - dram
    return SystemConfig(
        heap_bytes=heap, dram_bytes=dram, nvm_bytes=nvm, policy=policy, **kwargs
    )


def dram_only_config(heap_gb: float, **kwargs) -> SystemConfig:
    """A configuration whose physical memory is DRAM only (the baseline)."""
    heap = int(heap_gb * GiB)
    return SystemConfig(
        heap_bytes=heap,
        dram_bytes=heap,
        nvm_bytes=0,
        policy=PolicyName.DRAM_ONLY,
        **kwargs,
    )
