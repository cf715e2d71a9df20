"""Column-batched GC cost charging.

The GC phases charge per-object costs (trace visits, card-scan streams,
evacuation copies) to a :class:`~repro.memory.machine.TrafficSet`.  Doing
that with one ``TrafficSet.add`` call per object is the single hottest
path of the simulator: each call pays keyword marshalling, a dict
``setdefault`` and four attribute updates for what is arithmetically just
"+= a few integers".

:class:`ChargeAccumulator` instead stores one phase's charges as parallel
``(device*4 + kind, amount)`` columns — :class:`ChargeColumns`,
``array``-module buffers with a numpy reduction when numpy is importable
— and the GC phases charge *runs* of objects in bulk
(:meth:`ChargeAccumulator.visit_all`) instead of one Python call per
object.  ``flush`` settles the columns into per-device sums and deposits
them with one ``TrafficSet.add`` per device per phase.

This is bit-identical to depositing every charge on its own:

* all increments are integers (object sizes, header bytes, access
  counts), so the per-device sums are exact regardless of addition order;
* devices are deposited in first-touch order — the columns preserve row
  order, so the first row naming a device is where a per-charge deposit
  would first have inserted it — and the ``TrafficSet``'s dict insertion
  order, which downstream float reductions iterate in, matches.

The golden-digest corpus (``tests/golden/``) pins the resulting GC logs,
traces and bandwidth series byte for byte, with and without numpy.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

from repro.config import DeviceKind
from repro.errors import GCError
from repro.heap.object_model import HEADER_BYTES, HeapObject
from repro.memory.machine import TrafficSet

try:  # numpy accelerates the column reduction; the array fallback is exact
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the fallback path
    _np = None

#: Charge-kind codes within one device's column block; the order matches
#: the ``[read_bytes, write_bytes, random_reads, random_writes]`` totals
#: :meth:`ChargeColumns.reduce` returns and the keyword order of
#: ``TrafficSet.add``.
KIND_READ = 0
KIND_WRITE = 1
KIND_RANDOM_READ = 2
KIND_RANDOM_WRITE = 3

#: Device index tables: a column row stores ``device_index * 4 + kind``
#: in a signed byte, so the whole row fits two machine words.
_DEVICE_LIST: Tuple[DeviceKind, ...] = tuple(DeviceKind)
_DEV_BASE: Dict[DeviceKind, int] = {
    device: index * 4 for index, device in enumerate(_DEVICE_LIST)
}

#: Below this many rows the scalar reduction beats numpy's fixed call
#: overhead (measured crossover ~160 rows on CPython 3.11 / numpy 2.4 —
#: ``np.add.at`` plus ``np.unique`` cost ~16 us flat); the cutover only
#: changes wall time (both reductions are exact integer sums), never
#: results.
_NUMPY_MIN_ROWS = 192


class ChargeColumns:
    """Parallel columns of one phase's charges: ``codes[i]`` is
    ``device_index * 4 + kind`` and ``amounts[i]`` the integer amount.

    The zero-dependency representation is a pair of ``array`` buffers
    (``'b'`` codes, ``'q'`` amounts); :meth:`reduce` sums them into
    per-device ``[read, write, random_reads, random_writes]`` totals with
    numpy (``np.add.at`` over an ``int64`` accumulator — exact) when it
    is importable and the column is long enough to amortise the call
    overhead, else with a plain loop.  Row order is preserved, so the
    first row naming a device defines its first-touch position.
    """

    __slots__ = ("codes", "amounts")

    def __init__(self) -> None:
        self.codes = array("b")
        self.amounts = array("q")

    def __len__(self) -> int:
        return len(self.codes)

    def clear(self) -> None:
        """Drop all rows (the phase was settled)."""
        del self.codes[:]
        del self.amounts[:]

    def reduce(self) -> List[Tuple[DeviceKind, List[int]]]:
        """Sum the columns into per-device totals, in first-touch order."""
        codes = self.codes
        n = len(codes)
        if _np is not None and n >= _NUMPY_MIN_ROWS:
            code_arr = _np.frombuffer(codes, dtype=_np.int8)
            amount_arr = _np.frombuffer(self.amounts, dtype=_np.int64)
            acc = _np.zeros(len(_DEVICE_LIST) * 4, dtype=_np.int64)
            _np.add.at(acc, code_arr, amount_arr)
            device_codes = code_arr >> 2
            uniq, first = _np.unique(device_codes, return_index=True)
            out: List[Tuple[DeviceKind, List[int]]] = []
            for dev in uniq[_np.argsort(first)]:
                base = int(dev) * 4
                out.append(
                    (
                        _DEVICE_LIST[int(dev)],
                        [int(v) for v in acc[base : base + 4]],
                    )
                )
            return out
        by_device: Dict[int, List[int]] = {}
        get = by_device.get
        for code, amount in zip(codes, self.amounts):
            dev = code >> 2
            entry = get(dev)
            if entry is None:
                entry = by_device[dev] = [0, 0, 0, 0]
            entry[code & 3] += amount
        return [(_DEVICE_LIST[dev], entry) for dev, entry in by_device.items()]


class ChargeAccumulator:
    """Accumulates one GC phase's per-device traffic as charge columns,
    then deposits it into the phase's
    :class:`~repro.memory.machine.TrafficSet`.

    Args:
        traffic: the phase batch to deposit into.
    """

    __slots__ = ("traffic", "_cols", "_code_append", "_amount_append")

    def __init__(self, traffic: TrafficSet) -> None:
        self.traffic = traffic
        cols = self._cols = ChargeColumns()
        # Bound appends: clear() empties the buffers in place, so these
        # stay valid across flushes.
        self._code_append = cols.codes.append
        self._amount_append = cols.amounts.append

    def _charge_row(self, code: int, amount: int) -> None:
        """Append one column row, coalescing into either of the last two
        rows when the code matches.

        Merging into an earlier row is identity-safe: per-(device, kind)
        totals are exact integer sums in any order, and the device's
        first-touch position was fixed when that row was first appended.
        The two-row lookback collapses the alternating patterns the GC
        singles produce — copy loops (src-read / dst-write), compaction
        (read / write) and repeated visits (header-read / random-read) —
        so singles cost O(1) rows instead of O(charges).
        """
        cols = self._cols
        codes = cols.codes
        n = len(codes)
        if n:
            if codes[n - 1] == code:
                cols.amounts[n - 1] += amount
                return
            if n > 1 and codes[n - 2] == code:
                cols.amounts[n - 2] += amount
                return
        self._code_append(code)
        self._amount_append(amount)

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
        # Fast pair-merge: a previous visit on the same device left
        # [header-read, random-read] as the last two rows.
        cols = self._cols
        codes = cols.codes
        n = len(codes)
        if n > 1 and codes[n - 2] == base and codes[n - 1] == base + KIND_RANDOM_READ:
            amounts = cols.amounts
            amounts[n - 2] += HEADER_BYTES
            amounts[n - 1] += 1
            return
        self._charge_row(base, HEADER_BYTES)  # KIND_READ
        self._charge_row(base + KIND_RANDOM_READ, 1)

    def visit_all(self, objs: Sequence[HeapObject]) -> None:
        """Tracing cost of a whole visit sequence, charged in bulk.

        Consecutive same-device objects group into one
        ``(n * HEADER_BYTES, n)`` run — O(runs) rows instead of
        O(objects), and O(1) rows for the common case of a
        young-generation trace (eden and the survivors are one DRAM
        run).  Totals and first-touch order equal one :meth:`visit` per
        object.
        """
        if len(objs) < 12:
            # Small segments (card-scan children, mostly 1-3 objects):
            # the coalescing single-row path beats the run-grouping
            # loop's setup.  Identical totals and first-touch order
            # either way, so the cutover is a pure wall-time choice.
            for obj in objs:
                self.visit(obj)
            return
        charge_row = self._charge_row
        run_base = -1
        run_n = 0
        prev_space = None
        prev_device = None
        for obj in objs:
            space = obj.space
            if space is None or obj.addr is None:
                raise GCError(f"tracing an unplaced object: {obj!r}")
            if space is prev_space:
                device = prev_device
            else:
                device = space.device
                if device is None:
                    device = space.chunk_map.device_of(obj.addr)
                    prev_space = None  # chunked: resolve per object
                else:
                    prev_space = space
                prev_device = device
            base = _DEV_BASE[device]
            if base == run_base:
                run_n += 1
                continue
            if run_n:
                charge_row(run_base, run_n * HEADER_BYTES)
                charge_row(run_base + KIND_RANDOM_READ, run_n)
            run_base = base
            run_n = 1
        if run_n:
            charge_row(run_base, run_n * HEADER_BYTES)
            charge_row(run_base + KIND_RANDOM_READ, run_n)

    def stream_read(self, obj: HeapObject) -> None:
        """Streamed read of an object's full payload (card scanning)."""
        charge_row = self._charge_row
        for device, nbytes in obj.space.object_traffic(obj):
            charge_row(_DEV_BASE[device], nbytes)  # KIND_READ

    def copy(self, src_pieces, obj: HeapObject, dst_space) -> int:
        """Streamed copy of an object into ``dst_space``.

        ``src_pieces`` is the per-device split of the object's *source*
        location, captured before the move; the write lands on the device
        under ``dst_space``'s bump pointer (charged before placement, as
        the copying GC streams into its allocation cursor).
        """
        dst_device = dst_space.device_of(min(dst_space.top, dst_space.end - 1))
        dst_code = _DEV_BASE[dst_device] + KIND_WRITE
        if len(src_pieces) == 1:
            # Fast pair-merge: a previous same-shaped copy left
            # [src-read, dst-write] as the last two rows.
            src_device, src_bytes = src_pieces[0]
            src_code = _DEV_BASE[src_device]
            cols = self._cols
            codes = cols.codes
            n = len(codes)
            if n > 1 and codes[n - 2] == src_code and codes[n - 1] == dst_code:
                amounts = cols.amounts
                amounts[n - 2] += src_bytes
                amounts[n - 1] += obj.size
                return obj.size
            self._charge_row(src_code, src_bytes)
            self._charge_row(dst_code, obj.size)
            return obj.size
        charge_row = self._charge_row
        for device, nbytes in src_pieces:
            charge_row(_DEV_BASE[device], nbytes)  # KIND_READ
        charge_row(dst_code, obj.size)
        return obj.size

    def read(self, device: DeviceKind, nbytes: int) -> None:
        """Streamed read of ``nbytes`` on one device."""
        self._charge_row(_DEV_BASE[device], nbytes)

    def write(self, device: DeviceKind, nbytes: int) -> None:
        """Streamed write of ``nbytes`` on one device."""
        self._charge_row(_DEV_BASE[device] + KIND_WRITE, nbytes)

    # -- deposit ---------------------------------------------------------

    def flush(self) -> None:
        """Deposit the accumulated charges into the phase batch (one
        ``TrafficSet.add`` per device, in first-touch order) and clear."""
        cols = self._cols
        if not cols.codes:
            return
        add = self.traffic.add
        for device, entry in cols.reduce():
            add(device, entry[0], entry[1], entry[2], entry[3])
        cols.clear()
