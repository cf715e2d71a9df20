"""The serialized off-heap tier's data plane: packed column batches.

A persisted RDD landing in the serialized tier (see
:mod:`repro.spark.storage`) stores each partition as one
:class:`SerializedColumnBatch` — a packed, GC-invisible buffer in the
native region.  A partition that is already a
:class:`~repro.spark.columnar.ColumnBatch` (any column schema: scalar,
vector, pair, CSR list, tuple-key or constant columns) *is* the packed
form, and the tier adopts it by reference and reads it back as that
batch, so a serialized persist keeps its readers on the columnar
plane.  A record list of numeric ``(key, value)`` pairs packs into two
columnar arrays (numpy-backed when numpy is importable, ``array``
module otherwise — the same ladder the vectorised cost plane uses);
any other record list byte-packs through ``pickle``.  Every form
round-trips bit-exactly: ``unpack()`` rebuilds the exact records that
went in, which the hypothesis property suite pins for every workload's
record shapes and every column schema.

The batches are the *data plane* only.  The simulated costs — the
serialize-on-persist and deserialize-on-access batches charged through
``Machine.run_batch`` — are derived from the RDD's modelled byte sizes
(``bytes_per_record`` × ``ser_factor``), exactly like every other
storage path, so traces and clocks stay a pure function of
(workload, config, scale) regardless of the packing backend.
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Sequence

from repro.spark import columnar as _columnar
from repro.spark.partition import Record

try:  # numpy is optional, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

try:
    from array import array as _pyarray
except ImportError:  # pragma: no cover - array is stdlib, always present
    _pyarray = None

#: Exact-representation bounds for packing Python ints into int64 columns.
_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _column_code(values: Sequence) -> Optional[str]:
    """The columnar type code for one column, or None if not packable.

    ``"q"`` (int64) when every value is a plain ``int`` in int64 range,
    ``"d"`` (float64) when every value is a plain ``float``.  ``bool``
    is an ``int`` subclass and floats outside float64 cannot occur in
    Python, so these two codes round-trip bit-exactly.  Mixed or
    non-numeric columns fall back to byte packing.
    """
    all_int = True
    all_float = True
    for v in values:
        if type(v) is int:
            all_float = False
            if not (_INT64_MIN <= v <= _INT64_MAX):
                return None
        elif type(v) is float:
            all_int = False
        else:
            return None
    if all_int:
        return "q"
    if all_float:
        return "d"
    return None


def _pack_column(values: Sequence, code: str):
    """Pack one numeric column with the best available backend."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64 if code == "q" else _np.float64)
    return _pyarray(code, values)


class SerializedColumnBatch:
    """One partition of a serialized-tier block, in packed form.

    Attributes:
        count: number of records in the batch.
        columnar: True when the partition is held as columns (an adopted
            :class:`~repro.spark.columnar.ColumnBatch`, or numeric
            key/value arrays) rather than as pickled bytes.
    """

    __slots__ = ("count", "columnar", "_batch", "_keys", "_values", "_payload")

    def __init__(self, records: Sequence[Record]) -> None:
        self._batch = None
        self._keys = None
        self._values = None
        self._payload: Optional[bytes] = None
        if _columnar.is_batch(records):
            # A column batch already *is* the packed form, whatever its
            # schema: adopt it (batches are never mutated).
            self.count = len(records)
            self.columnar = True
            self._batch = records
            return
        records = list(records)
        self.count = len(records)
        key_code = value_code = None
        if records and all(
            type(r) is tuple and len(r) == 2 for r in records
        ):
            key_code = _column_code([k for k, _ in records])
            value_code = _column_code([v for _, v in records]) if key_code else None
        self.columnar = key_code is not None and value_code is not None
        if self.columnar:
            keys = _pack_column([k for k, _ in records], key_code)
            values = _pack_column([v for _, v in records], value_code)
            if _np is not None:
                self._batch = _columnar.ColumnBatch(
                    _columnar.ScalarColumn(keys), _columnar.ScalarColumn(values)
                )
            else:
                self._keys, self._values = keys, values
        else:
            self._payload = pickle.dumps(records, protocol=4)

    @classmethod
    def pack(cls, records: Sequence[Record]) -> "SerializedColumnBatch":
        """Pack one partition's records."""
        return cls(records)

    def unpack(self) -> List[Record]:
        """Rebuild the exact record list that was packed.

        Columnar partitions come back as their
        :class:`~repro.spark.columnar.ColumnBatch` when the columnar
        plane is active, so the read stays on it; otherwise they come
        back as records (``tolist()`` returns plain Python ints/floats,
        so int64 and float64 columns reproduce the original objects
        bit-exactly).  Byte-packed partitions unpickle.
        """
        if self._batch is not None:
            if _columnar.columnar_active():
                return self._batch
            return self._batch.to_records()
        if self.columnar:  # ``array`` module columns: numpy is absent
            return list(zip(self._keys.tolist(), self._values.tolist()))
        return pickle.loads(self._payload)

    def payload_bytes(self) -> int:
        """Actual packed size in this process (reporting only — the
        simulated packed size is ``bytes_per_record × ser_factor``):
        the bytes of every array behind the columns, or of the pickle."""
        if self._batch is not None:
            return self._batch.nbytes
        if self.columnar:
            return len(self._keys) * self._keys.itemsize + len(
                self._values
            ) * self._values.itemsize
        return len(self._payload or b"")

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        form = "columnar" if self.columnar else "packed"
        return f"SerializedColumnBatch({self.count} records, {form})"


def pack_partitions(
    parts: Sequence[Sequence[Record]],
) -> List[SerializedColumnBatch]:
    """Pack every partition of a block."""
    return [SerializedColumnBatch.pack(p) for p in parts]
