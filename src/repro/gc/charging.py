"""Per-device charge totals of one GC phase.

A collection is priced per device: tracing is latency-bound, copying and
card scanning are bandwidth-bound (§5.3: NVM's bandwidth binds Parallel
Scavenge).  A GC phase's cost therefore depends on four integers per
device — streamed bytes read and written, latency-bound reads and
writes — and :class:`ChargeAccumulator` holds exactly those: one flat
list of integer totals indexed ``device_index * 4 + kind``.  The charge
primitives add straight into it; :meth:`ChargeAccumulator.visit_all`
counts a whole visit sequence per device before adding.

:meth:`ChargeAccumulator.batch` prices the phase as one ``(rows,
cpu_ns)`` batch, its rows in ``DeviceKind`` order; a collection settles
its whole cycle — fixed pause, then its two phases' batches — as one
:meth:`~repro.memory.machine.Machine.run_batch` series.  Which device a
phase touched first is not observable:

* device counters and bandwidth bins are kept per device;
* a batch's duration is a max over devices;
* the one sum across devices, the GC CPU term, adds exact integers —
  except the minor GC's non-integer DRAM floor, which is added after the
  integer sums and is DRAM's, so it comes first in any order.

The golden-digest corpus (``tests/golden/``) pins the resulting GC logs,
traces and bandwidth series byte for byte.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.config import GC_NS_PER_BYTE, DeviceKind
from repro.errors import GCError
from repro.heap.object_model import HEADER_BYTES, HeapObject

#: Charge kinds within one device's block of four totals, in the column
#: order of a :meth:`~repro.memory.machine.Machine.run_batch` row.
KIND_READ = 0
KIND_WRITE = 1
KIND_RANDOM_READ = 2
KIND_RANDOM_WRITE = 3

_DEVICE_LIST: Tuple[DeviceKind, ...] = tuple(DeviceKind)
_DEV_BASE: Dict[DeviceKind, int] = {
    device: index * 4 for index, device in enumerate(_DEVICE_LIST)
}


class ChargeAccumulator:
    """One GC phase's traffic as per-device integer totals.

    Attributes:
        totals: ``totals[device_index * 4 + kind]`` is the phase's
            integer total of that charge kind on that device.
    """

    __slots__ = ("totals",)

    def __init__(self) -> None:
        self.totals: List[int] = [0] * (len(_DEVICE_LIST) * 4)

    # -- charge primitives ----------------------------------------------

    def visit(self, obj: HeapObject) -> None:
        """Tracing cost of visiting one object: a latency-bound read plus
        its header bytes on the device it resides on."""
        space = obj.space
        if space is None or obj.addr is None:
            raise GCError(f"tracing an unplaced object: {obj!r}")
        device = space.device
        if device is None:
            device = space.chunk_map.device_of(obj.addr)
        base = _DEV_BASE[device]
        totals = self.totals
        totals[base] += HEADER_BYTES  # KIND_READ
        totals[base + KIND_RANDOM_READ] += 1

    def visit_all(self, objs: Iterable[HeapObject]) -> None:
        """Tracing cost of a whole visit sequence: one :meth:`visit` per
        object, counted per device and added once."""
        counts = [0] * len(self.totals)  # visits per device block
        prev_space = None
        base = 0
        for obj in objs:
            space = obj.space
            if space is None or obj.addr is None:
                raise GCError(f"tracing an unplaced object: {obj!r}")
            if space is not prev_space:
                device = space.device
                if device is None:
                    device = space.chunk_map.device_of(obj.addr)
                    prev_space = None  # chunked: resolve per object
                else:
                    prev_space = space
                base = _DEV_BASE[device]
            counts[base] += 1
        totals = self.totals
        for base in _DEV_BASE.values():
            n = counts[base]
            if n:
                totals[base] += n * HEADER_BYTES  # KIND_READ
                totals[base + KIND_RANDOM_READ] += n

    def stream_read(self, obj: HeapObject) -> None:
        """Streamed read of an object's full payload (card scanning)."""
        totals = self.totals
        for device, nbytes in obj.space.object_traffic(obj):
            totals[_DEV_BASE[device]] += nbytes  # KIND_READ

    def copy(self, src_pieces, obj: HeapObject, dst_space) -> int:
        """Streamed copy of an object into ``dst_space``.

        ``src_pieces`` is the per-device split of the object's *source*
        location, captured before the move; the write lands on the device
        under ``dst_space``'s bump pointer (charged before placement, as
        the copying GC streams into its allocation cursor).
        """
        dst_device = dst_space.device_of(min(dst_space.top, dst_space.end - 1))
        totals = self.totals
        for device, nbytes in src_pieces:
            totals[_DEV_BASE[device]] += nbytes  # KIND_READ
        totals[_DEV_BASE[dst_device] + KIND_WRITE] += obj.size
        return obj.size

    def read(self, device: DeviceKind, nbytes: int) -> None:
        """Streamed read of ``nbytes`` on one device."""
        self.totals[_DEV_BASE[device]] += nbytes

    def write(self, device: DeviceKind, nbytes: int) -> None:
        """Streamed write of ``nbytes`` on one device."""
        self.totals[_DEV_BASE[device] + KIND_WRITE] += nbytes

    # -- settling --------------------------------------------------------

    def rows(self, dram_stream: float = 0.0) -> List[tuple]:
        """The phase's :meth:`~repro.memory.machine.Machine.run_batch`
        rows: one per touched device, in ``DeviceKind`` order.

        ``dram_stream`` bytes (the minor GC's floor) are added to DRAM's
        read and write totals after the integer sums, and a positive
        floor makes DRAM a touched device.
        """
        totals = self.totals
        rows = []
        for device, base in _DEV_BASE.items():
            read_bytes, write_bytes, random_reads, random_writes = totals[
                base : base + 4
            ]
            if device is DeviceKind.DRAM and dram_stream > 0:
                read_bytes = dram_stream + read_bytes
                write_bytes = dram_stream + write_bytes
            elif not (read_bytes or write_bytes or random_reads or random_writes):
                continue
            rows.append((device, read_bytes, write_bytes, random_reads, random_writes))
        return rows

    def batch(self, dram_stream: float = 0.0) -> Tuple[List[tuple], float]:
        """The phase as one :meth:`~repro.memory.machine.Machine.run_batch`
        batch ``(rows, cpu_ns)``, to run on
        :data:`~repro.config.GC_THREADS` (no rows and no CPU time when no
        device was touched).

        The batch's CPU term is the GC's object work: tracing, copying
        and card scanning are header checks, forwarding updates and
        reference fix-ups, not pure memcpy, so aggregate GC throughput
        is CPU-capped at :data:`~repro.config.GC_NS_PER_BYTE` (0.04 ns)
        per processed byte, read plus write — 25 GB/s across the 16
        threads.  On DRAM this cap binds; on NVM the 10 GB/s device
        bandwidth binds instead, which is §5.3's observation that
        Parallel Scavenge's parallelism is crippled by NVM bandwidth.
        """
        rows = self.rows(dram_stream)
        processed = 0.0
        for _, read_bytes, write_bytes, _, _ in rows:
            processed += read_bytes + write_bytes
        return rows, processed * GC_NS_PER_BYTE
