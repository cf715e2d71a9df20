"""Columnar whole-stage execution: the numeric and graph workloads.

Whenever numpy is importable, a partition of int-keyed records flows
through the miniature Spark as one :class:`ColumnBatch` — packed numpy
columns extending the serialized tier's representation
(:mod:`repro.spark.serialized`) — and workload UDFs with a registered
kernel transform whole batches at once: the K-Means assign step becomes
one distance matrix + ``argmin``, the LR gradient becomes matrix–vector
products, and ``reduce_by_key`` becomes a stable key grouping with
per-segment ordered folds.  Shuffle bucketing over int-key columns is
one vectorised ``& 0x7FFFFFFF`` / ``% n`` pass instead of a per-record
loop, and a map stage whose outputs are all batches splits once: one
stable radix sort of the bucket ids, one gather per column, each bucket
a slice.  Without numpy no batch is ever built and everything runs on
the per-record plane.

The graph programs (PageRank, connected components, SSSP) stay in
batches from ``group_by_key`` to the final ``collect``: adjacency lists
are one CSR :class:`ListColumn` (int64 ``offsets`` + ``flat``), nested
in :class:`PairColumn` for the ``(vid, (state, [nbr…]))`` graph rows;
``group_by_key`` is a first-occurrence grouping plus a stable
reordering of the values, an inner join of two int-keyed batches is
one ``searchsorted`` match (duplicate keys group into CSR lists on
both sides first, and the join's flatten expands each key's cross
product in left-major order), and the message fan-outs are
``np.repeat`` over the CSR lengths.  ``distinct`` (PageRank's prologue,
transitive closure) keys its pairs by a 2-int tuple-key column (a
:class:`PairColumn` of two int64 columns), buckets it by
``_stable_hash``'s tuple rule and keeps each pair's first occurrence.

The house rule is byte-identity: simulated time, GC logs, trace
streams, bandwidth CSVs, fault checksums *and computed workload
answers* are identical with and without the columnar plane (the
golden-digest corpus checks both).  Three disciplines make the float
kernels reproduce the record plane exactly:

* **Sequential fold order.**  Every reduction replays the record
  plane's left fold: per-dimension ``acc += term`` loops,
  ``np.add.at`` (unbuffered, applied in index order) and prefix sums
  (``np.cumsum`` / ``ufunc.accumulate``, sequential by definition) —
  never ``np.sum`` / ``ufunc.reduce`` / ``ufunc.reduceat``, which may
  sum pairwise and so reorder the float additions.
* **First-value initialisation.**  Grouped folds seed each key's
  accumulator with the key's *first* value (the dict fold's
  ``acc[k] = v``), not zeros — ``0.0 + v`` is not always ``v``
  (``-0.0``), and the dict fold never adds a leading zero.
* **Scalar transcendentals.**  ``numpy``'s ``exp`` is not bit-identical
  to ``math.exp``; kernels that need it (LR) map ``math.exp`` over the
  elements into ``np.fromiter`` and vectorise everything around it
  (elementwise float64 ``+ - * /`` and negation round as Python
  floats do).

Order-sensitive operations a kernel cannot replay decline instead: the
grouped ``min`` declines float batches holding a NaN or a ``-0.0`` (the
only values for which ``min``'s fold order shows).  Schemas a kernel
does not cover decline too: a join with duplicate keys needs int64
values on both sides, since its CSR lists hold int64 only.  Unpacking is exact by the same argument as
the serialized tier: ``tolist()`` on int64/float64 columns rebuilds the
original Python ints/floats bit-for-bit.  Records and UDFs with no
registered kernel fall back to the per-record path, so the plane is a
pure optimisation.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, List, Optional, Sequence

try:  # numpy is optional, never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

_MASK = 0x7FFFFFFF


def columnar_active() -> bool:
    """Whether batches are built and kernels run: numpy is importable.
    Kernel registration is harmless without numpy — batches simply
    never exist — but workloads use this to skip building kernel
    closures."""
    return _np is not None


# ---------------------------------------------------------------------------
# columns
# ---------------------------------------------------------------------------


class ScalarColumn:
    """One numeric column: an int64 or float64 numpy array.

    ``tolist()`` rebuilds the exact Python ints/floats that were packed
    (the serialized tier's bit-exactness argument).
    """

    __slots__ = ("arr",)

    def __init__(self, arr) -> None:
        self.arr = arr

    def __len__(self) -> int:
        return len(self.arr)

    def tolist(self) -> list:
        """The exact Python ints/floats this column packs."""
        return self.arr.tolist()

    def select(self, idx) -> "ScalarColumn":
        """Row subset by fancy index (order-preserving)."""
        return ScalarColumn(self.arr[idx])

    def slice(self, lo: int, hi: int) -> "ScalarColumn":
        """Rows ``lo:hi`` as a view."""
        return ScalarColumn(self.arr[lo:hi])

    @property
    def nbytes(self) -> int:
        return self.arr.nbytes

    @property
    def is_int(self) -> bool:
        return self.arr.dtype.kind == "i"


class ConstColumn:
    """A column whose every row is the same object (LR's ``"grad"`` key)."""

    __slots__ = ("value", "n")

    def __init__(self, value: Any, n: int) -> None:
        self.value = value
        self.n = n

    def __len__(self) -> int:
        return self.n

    def tolist(self) -> list:
        """The repeated value, one per row."""
        return [self.value] * self.n

    def select(self, idx) -> "ConstColumn":
        """Row subset: the same constant, fewer rows."""
        return ConstColumn(self.value, len(idx))

    def slice(self, lo: int, hi: int) -> "ConstColumn":
        """Rows ``lo:hi``: the same constant, fewer rows."""
        return ConstColumn(self.value, hi - lo)

    #: No array behind it.
    nbytes = 0


class VecColumn:
    """A tuple-of-floats column as one ``(N, D)`` float64 matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        self.mat = mat

    def __len__(self) -> int:
        return self.mat.shape[0]

    def tolist(self) -> list:
        """The exact float tuples this column packs."""
        return [tuple(row) for row in self.mat.tolist()]

    def select(self, idx) -> "VecColumn":
        """Row subset by fancy index (order-preserving)."""
        return VecColumn(self.mat[idx])

    def slice(self, lo: int, hi: int) -> "VecColumn":
        """Rows ``lo:hi`` as a view."""
        return VecColumn(self.mat[lo:hi])

    @property
    def nbytes(self) -> int:
        return self.mat.nbytes


class PairColumn:
    """A 2-tuple value column built from two inner columns (the
    ``(vec_sum, count)`` shape of the ML aggregations)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second

    def __len__(self) -> int:
        return len(self.first)

    def tolist(self) -> list:
        """The exact 2-tuple values this column packs."""
        return list(zip(self.first.tolist(), self.second.tolist()))

    def select(self, idx) -> "PairColumn":
        """Row subset by fancy index (order-preserving)."""
        return PairColumn(self.first.select(idx), self.second.select(idx))

    def slice(self, lo: int, hi: int) -> "PairColumn":
        """Rows ``lo:hi`` (views of both inner columns)."""
        return PairColumn(self.first.slice(lo, hi), self.second.slice(lo, hi))

    @property
    def nbytes(self) -> int:
        return self.first.nbytes + self.second.nbytes


class ListColumn:
    """A ``list[int]`` column in CSR form: row ``i`` is
    ``flat[offsets[i]:offsets[i + 1]]`` (int64 ``offsets`` starting at
    0, int64 ``flat``) — the adjacency lists of the graph workloads."""

    __slots__ = ("offsets", "flat")

    def __init__(self, offsets, flat) -> None:
        self.offsets = offsets
        self.flat = flat

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def lengths(self):
        """Per-row list lengths (int64)."""
        return _np.diff(self.offsets)

    def tolist(self) -> list:
        """The exact ``list[int]`` values this column packs (fresh
        lists, like the record plane's grouping builds)."""
        flat = self.flat.tolist()
        bounds = self.offsets.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]

    def select(self, idx) -> "ListColumn":
        """Row subset by fancy index (order-preserving)."""
        lens = self.lengths()[idx]
        offsets = offsets_of(lens)
        starts = self.offsets[:-1][idx]
        flat_idx = _np.repeat(starts - offsets[:-1], lens) + _np.arange(
            offsets[-1]
        )
        return ListColumn(offsets, self.flat[flat_idx])

    def slice(self, lo: int, hi: int) -> "ListColumn":
        """Rows ``lo:hi``: a view of their entries, offsets rebased to 0."""
        offsets = self.offsets[lo : hi + 1]
        base = offsets[0]
        return ListColumn(offsets - base, self.flat[base : offsets[-1]])

    @property
    def nbytes(self) -> int:
        return self.offsets.nbytes + self.flat.nbytes

    def emptied(self, keep) -> "ListColumn":
        """The same rows, with every row where ``keep`` is False made
        an empty list."""
        lens = self.lengths()
        return ListColumn(
            offsets_of(_np.where(keep, lens, 0)),
            self.flat[_np.repeat(keep, lens)],
        )


class SingletonColumn:
    """A column of one-element lists ``[v]`` around an inner column —
    a cogroup slot when each key has exactly one value on that side."""

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = inner

    def __len__(self) -> int:
        return len(self.inner)

    def tolist(self) -> list:
        """The exact one-element lists this column packs."""
        return [[v] for v in self.inner.tolist()]

    def select(self, idx) -> "SingletonColumn":
        """Row subset by fancy index (order-preserving)."""
        return SingletonColumn(self.inner.select(idx))

    def slice(self, lo: int, hi: int) -> "SingletonColumn":
        """Rows ``lo:hi`` (a view of the inner column)."""
        return SingletonColumn(self.inner.slice(lo, hi))

    @property
    def nbytes(self) -> int:
        return self.inner.nbytes


def offsets_of(lengths):
    """CSR offsets (int64, leading 0) of a row-length array."""
    offsets = _np.zeros(len(lengths) + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=offsets[1:])
    return offsets


def _radix_ids(ids, n: int):
    """``ids`` (each in ``range(n)``) cast to ``uint8`` / ``uint16``
    where ``n`` allows, so that numpy's stable argsort of them is a
    radix sort."""
    if n <= 1 << 8:
        return ids.astype(_np.uint8)
    if n <= 1 << 16:
        return ids.astype(_np.uint16)
    return ids


def _concat_columns(cols: Sequence[Any]) -> Optional[Any]:
    """Concatenate compatible columns, or None when shapes/kinds mix."""
    head = cols[0]
    t = type(head)
    if any(type(c) is not t for c in cols):
        return None
    if t is ScalarColumn:
        if any(c.arr.dtype != head.arr.dtype for c in cols):
            return None
        return ScalarColumn(_np.concatenate([c.arr for c in cols]))
    if t is ConstColumn:
        # Equal is not enough: 1 == 1.0 == True, and the merged column
        # would unpack one segment's value type for every row.
        vt = type(head.value)
        if any(type(c.value) is not vt or c.value != head.value for c in cols):
            return None
        return ConstColumn(head.value, sum(c.n for c in cols))
    if t is VecColumn:
        if any(c.mat.shape[1] != head.mat.shape[1] for c in cols):
            return None
        return VecColumn(_np.concatenate([c.mat for c in cols]))
    if t is PairColumn:
        first = _concat_columns([c.first for c in cols])
        second = _concat_columns([c.second for c in cols])
        if first is None or second is None:
            return None
        return PairColumn(first, second)
    if t is ListColumn:
        flat = _concat_columns([ScalarColumn(c.flat) for c in cols])
        if flat is None:
            return None
        lens = _np.concatenate([c.lengths() for c in cols])
        return ListColumn(offsets_of(lens), flat.arr)
    if t is SingletonColumn:
        inner = _concat_columns([c.inner for c in cols])
        return None if inner is None else SingletonColumn(inner)
    return None


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


class ColumnBatch:
    """One partition of ``(key, value)`` records in columnar form.

    Sequence-like on purpose: ``len``, iteration and indexing all work,
    so every per-record consumer (aggregation fallbacks, cogroup loops,
    actions) treats a batch exactly like the record list it unpacks to
    — the unpacked list is built lazily and cached.
    """

    __slots__ = ("keys", "values", "_records", "_len")

    def __init__(self, keys, values) -> None:
        self.keys = keys
        self.values = values
        self._records: Optional[list] = None
        self._len = len(keys)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return iter(self.to_records())

    def __getitem__(self, idx):
        return self.to_records()[idx]

    def __eq__(self, other) -> bool:
        # Equal to the record list it unpacks to, like any sequence.
        if type(other) is ColumnBatch:
            other = other.to_records()
        return self.to_records() == other

    __hash__ = None  # type: ignore[assignment]

    def to_records(self) -> list:
        """The exact record list this batch packs (cached)."""
        if self._records is None:
            self._records = list(
                zip(self.keys.tolist(), self.values.tolist())
            )
        return self._records

    def select(self, idx) -> "ColumnBatch":
        """Row subset (order-preserving fancy index)."""
        return ColumnBatch(self.keys.select(idx), self.values.select(idx))

    def slice(self, lo: int, hi: int) -> "ColumnBatch":
        """Rows ``lo:hi``, as views of this batch's arrays."""
        return ColumnBatch(self.keys.slice(lo, hi), self.values.slice(lo, hi))

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays behind every column, nested ones included."""
        return self.keys.nbytes + self.values.nbytes

    # -- packing -----------------------------------------------------------

    @classmethod
    def from_records(cls, records) -> Optional["ColumnBatch"]:
        """Pack a record list, or None when the shape is not columnar.

        Supported shapes (everything the numeric workloads shuffle, and
        grouped adjacency): int64 keys with int / float /
        tuple-of-float / ``(tuple, int)`` / ``list[int]`` values.
        Exact-type checks (``type(v) is int``, excluding ``bool``)
        guarantee ``unpack`` rebuilds the original objects.
        """
        if _np is None or isinstance(records, ColumnBatch):
            return records if isinstance(records, ColumnBatch) else None
        records = records if isinstance(records, list) else list(records)
        if not records:
            return None
        for r in records:
            if type(r) is not tuple or len(r) != 2:
                return None
        keys = _pack_int_column([r[0] for r in records])
        if keys is None:
            return None
        values = _pack_value_column([r[1] for r in records])
        if values is None:
            return None
        batch = cls(keys, values)
        # The pack's exact-type checks guarantee tolist() rebuilds these
        # records bit-for-bit, so the input list *is* the unpack cache —
        # per-record fallbacks iterate it for free, never double-storing
        # a reconstruction (record lists are never mutated, repo-wide).
        batch._records = records
        return batch

    @staticmethod
    def concat(batches: Sequence["ColumnBatch"]) -> Optional["ColumnBatch"]:
        """Concatenate batches with compatible schemas, or None."""
        keys = _concat_columns([b.keys for b in batches])
        if keys is None:
            return None
        values = _concat_columns([b.values for b in batches])
        if values is None:
            return None
        return ColumnBatch(keys, values)


def split_columns(keys, values, dim: int, num_partitions: int) -> list:
    """Round-robin split of typed columns into source partitions.

    ``keys`` is an ``array('q')``; ``values`` an ``array('q')`` or
    ``array('d')`` holding ``dim`` floats per row (one value when
    ``dim`` is 0).  Partition ``p`` takes rows ``p::num_partitions``, as
    :func:`~repro.spark.partition.split_evenly` does, packed as the
    batch :meth:`ColumnBatch.from_records` builds from those rows; an
    empty partition is ``[]``.
    """
    all_keys = _np.frombuffer(keys, dtype=_np.int64)
    all_values = _np.frombuffer(
        values, dtype=_np.float64 if values.typecode == "d" else _np.int64
    )
    if dim:
        all_values = all_values.reshape(-1, dim)
    parts: list = []
    for p in range(num_partitions):
        part_keys = all_keys[p::num_partitions]
        if not len(part_keys):
            parts.append([])
            continue
        part_values = all_values[p::num_partitions].copy()
        values_col = VecColumn(part_values) if dim else ScalarColumn(part_values)
        parts.append(ColumnBatch(ScalarColumn(part_keys.copy()), values_col))
    return parts


def is_batch(records: Any) -> bool:
    """Whether a partition payload is a column batch."""
    return type(records) is ColumnBatch


def _pack_int_column(values: list) -> Optional[ScalarColumn]:
    # Exact ints only (no bools); numpy raises OverflowError for ints
    # beyond int64 rather than wrapping them.
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return ScalarColumn(_np.asarray(values, dtype=_np.int64))
    except OverflowError:
        return None


def _pack_float_matrix(rows: list) -> Optional[VecColumn]:
    head = rows[0]
    if type(head) is not tuple:
        return None
    dim = len(head)
    if dim == 0:
        return None
    for row in rows:
        if type(row) is not tuple or len(row) != dim:
            return None
        for x in row:
            if type(x) is not float:
                return None
    return VecColumn(_np.asarray(rows, dtype=_np.float64))


def _pack_value_column(values: list):
    head = values[0]
    th = type(head)
    if th is int:
        return _pack_int_column(values)
    if th is float:
        if not set(map(type, values)) <= {float}:
            return None
        return ScalarColumn(_np.asarray(values, dtype=_np.float64))
    if th is tuple and len(head) == 2 and type(head[0]) is tuple:
        # the (vec_sum, count) aggregation shape
        for v in values:
            if type(v) is not tuple or len(v) != 2:
                return None
        vecs = _pack_float_matrix([v[0] for v in values])
        if vecs is None:
            return None
        counts = _pack_int_column([v[1] for v in values])
        if counts is None:
            return None
        return PairColumn(vecs, counts)
    if th is tuple:
        return _pack_float_matrix(values)
    if th is list:
        lens = []
        flat: list = []
        for v in values:
            if type(v) is not list:
                return None
            lens.append(len(v))
            flat.extend(v)
        flat_col = _pack_int_column(flat)
        if flat_col is None:
            return None
        return ListColumn(offsets_of(lens), flat_col.arr)
    return None


# ---------------------------------------------------------------------------
# kernel registry
# ---------------------------------------------------------------------------

class _KernelRegistry:
    """UDF -> batch kernel.  Weak keys: kernels registered on
    per-program closures die with their program.  Builtins (``min``)
    cannot be weakly referenced and are held strongly.  A kernel takes
    a ColumnBatch and returns a ColumnBatch (or None to decline,
    falling back per-record)."""

    __slots__ = ("_weak", "_strong")

    def __init__(self) -> None:
        self._weak: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._strong: dict = {}

    def __setitem__(self, fn: Callable, kernel: Callable) -> None:
        try:
            self._weak[fn] = kernel
        except TypeError:
            self._strong[fn] = kernel

    def __len__(self) -> int:
        return len(self._weak) + len(self._strong)

    def get(self, fn: Callable) -> Optional[Callable]:
        kern = self._strong.get(fn)
        if kern is not None:
            return kern
        try:
            return self._weak.get(fn)
        except TypeError:
            return None


_MAP_KERNELS = _KernelRegistry()
_FLAT_MAP_KERNELS = _KernelRegistry()
_MAP_VALUES_KERNELS = _KernelRegistry()
_REDUCE_KERNELS = _KernelRegistry()


def register_map_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``map`` UDF."""
    _MAP_KERNELS[fn] = kernel
    return fn


def register_flat_map_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``flat_map`` UDF: it returns
    every row's output records, concatenated in row order."""
    _FLAT_MAP_KERNELS[fn] = kernel
    return fn


def register_map_values_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a whole-batch kernel for a ``map_values`` UDF."""
    _MAP_VALUES_KERNELS[fn] = kernel
    return fn


def register_reduce_kernel(fn: Callable, kernel: Callable) -> Callable:
    """Register a grouped-fold kernel for a ``reduce_by_key`` combiner
    (used both map-side and reduce-side)."""
    _REDUCE_KERNELS[fn] = kernel
    return fn


def map_kernel_for(fn: Callable) -> Optional[Callable]:
    """The batch kernel registered for a ``map`` UDF, or None."""
    return _MAP_KERNELS.get(fn)


def map_values_kernel_for(fn: Callable) -> Optional[Callable]:
    """The batch kernel registered for a ``map_values`` UDF, or None."""
    return _MAP_VALUES_KERNELS.get(fn)


def reduce_kernel_for(fn: Callable) -> Optional[Callable]:
    """The grouped-fold kernel registered for a combiner, or None."""
    return _REDUCE_KERNELS.get(fn)


def identity_kernel(batch: ColumnBatch) -> ColumnBatch:
    """Kernel for identity maps (``lambda r: r``): the batch unchanged.

    Valid because the record plane's output tuples are *equal* to its
    input tuples, and no consumer relies on tuple identity.
    """
    return batch


def apply_map_batch(fn: Callable, records: Any):
    """Run a registered map kernel over a batch, or None to fall back."""
    kern = _MAP_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


def apply_flat_map_batch(fn: Callable, records: Any):
    """Run a registered flat_map kernel over a batch, or None to fall
    back."""
    kern = _FLAT_MAP_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


# ---------------------------------------------------------------------------
# grouped ordered folds (the reduce_by_key engine)
# ---------------------------------------------------------------------------


def _group_structure(keys):
    """First-occurrence-ordered grouping of a key column.

    Returns ``(out_keys, seg, first_pos)`` where ``out_keys`` is the key
    column of the folded output (dict insertion order — first
    occurrence), ``seg[i]`` is the output row of input record ``i``, and
    ``first_pos`` are the input indices of each group's first record.
    None when the key column cannot group vectorised.
    """
    if type(keys) is ConstColumn:
        n = len(keys)
        return (
            ConstColumn(keys.value, min(n, 1)),
            _np.zeros(n, dtype=_np.intp),
            _np.zeros(min(n, 1), dtype=_np.intp),
        )
    if type(keys) is ScalarColumn and keys.is_int:
        arr = keys.arr
        n = len(arr)
        if n == 0:
            empty = _np.zeros(0, dtype=_np.intp)
            return keys, empty, empty
        lo = int(arr.min())
        span = int(arr.max()) - lo + 1
        if span <= 4 * n + 1024:
            # Dense keys (vertex ids, cluster labels): direct addressing
            # in O(n + span), no sort.  first[k] is the earliest index
            # holding key lo + k (np.minimum.at: exact in any order).
            off = arr - lo
            first = _np.full(span, n, dtype=_np.intp)
            _np.minimum.at(first, off, _np.arange(n, dtype=_np.intp))
            is_first = _np.zeros(n + 1, dtype=bool)
            is_first[first] = True
            first_pos = _np.flatnonzero(is_first[:n])
            group_of = _np.empty(span, dtype=_np.intp)
            group_of[off[first_pos]] = _np.arange(
                len(first_pos), dtype=_np.intp
            )
            return ScalarColumn(arr[first_pos]), group_of[off], first_pos
        _uniq, first_idx, inv = _np.unique(
            arr, return_index=True, return_inverse=True
        )
        order = _np.argsort(first_idx, kind="stable")
        rank = _np.empty(len(order), dtype=_np.intp)
        rank[order] = _np.arange(len(order), dtype=_np.intp)
        first_pos = first_idx[order]
        return ScalarColumn(arr[first_pos]), rank[inv.ravel()], first_pos
    return None


#: Fewest rows per group at which a 2-D grouped sum takes the
#: prefix-sum path of :func:`_ordered_grouped_sum` instead of
#: ``np.add.at``.  Measured crossover on (n, 8) and (n, 10) float64
#: rows, n from 128 to 5000: the two paths tie at about 40 rows per
#: group, and from 64 up the prefix sums are at least 1.2x faster.
PREFIX_FOLD_ROWS_PER_GROUP = 64


def _ordered_grouped_sum(arr, seg, first_pos):
    """Per-group left-fold sum of ``arr`` rows in record order, seeded
    with each group's first row (the dict fold's ``acc[k] = v``).

    Two paths replay that fold exactly:

    * **Prefix sums** (2-D rows, at least
      :data:`PREFIX_FOLD_ROWS_PER_GROUP` rows per group — the ML
      vector folds).  The rows are gathered in the stable order of
      their group, and each group's sum is the last row of
      ``np.cumsum(axis=0)`` over its slice.  A prefix sum is
      sequential and starts from the slice's first row — the group's
      first record — so it is the seeded left fold, ``-0.0``, inf and
      NaN included.
    * **``np.add.at``** (1-D values, or many small groups).  Each
      group is seeded with its first row, and the remaining rows are
      added unbuffered, in index order, so each accumulator sees its
      rows in exactly the record order the per-record fold used.
    """
    groups = len(first_pos)
    if arr.ndim == 2 and groups * PREFIX_FOLD_ROWS_PER_GROUP <= arr.shape[0]:
        if groups == 1:
            return _np.cumsum(arr, axis=0)[-1:].copy()
        rows = arr[_np.argsort(_radix_ids(seg, groups), kind="stable")]
        bounds = offsets_of(_np.bincount(seg, minlength=groups)).tolist()
        out = _np.empty((groups, arr.shape[1]), dtype=arr.dtype)
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            out[g] = _np.cumsum(rows[lo:hi], axis=0)[-1]
        return out
    out = arr[first_pos].copy()
    mask = _np.ones(arr.shape[0], dtype=bool)
    mask[first_pos] = False
    if mask.any():
        _np.add.at(out, seg[mask], arr[mask])
    return out


def make_scalar_add_reduce_kernel() -> Callable:
    """Grouped-fold kernel for ``fn(a, b) = a + b`` over scalar values
    (PageRank's rank summation)."""

    def kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
        if type(batch.values) is not ScalarColumn:
            return None
        if batch.values.is_int:
            # int64 sums can wrap where Python ints cannot — decline.
            return None
        grouping = _group_structure(batch.keys)
        if grouping is None:
            return None
        out_keys, seg, first_pos = grouping
        summed = _ordered_grouped_sum(batch.values.arr, seg, first_pos)
        return ColumnBatch(out_keys, ScalarColumn(summed))

    return kernel


def make_vec_count_merge_kernel() -> Callable:
    """Grouped-fold kernel for the ML merge shape
    ``fn((va, ca), (vb, cb)) = (va + vb elementwise, ca + cb)``
    (K-Means / LR / Naive Bayes aggregation)."""

    def kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
        values = batch.values
        if (
            type(values) is not PairColumn
            or type(values.first) is not VecColumn
            or type(values.second) is not ScalarColumn
        ):
            return None
        grouping = _group_structure(batch.keys)
        if grouping is None:
            return None
        out_keys, seg, first_pos = grouping
        vec_sums = _ordered_grouped_sum(values.first.mat, seg, first_pos)
        counts = _ordered_grouped_sum(values.second.arr, seg, first_pos)
        return ColumnBatch(
            out_keys, PairColumn(VecColumn(vec_sums), ScalarColumn(counts))
        )

    return kernel


def min_reduce_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """Grouped-fold kernel for builtin ``min`` over scalar values
    (the CC/SSSP message combiner).

    ``min(acc, v)`` keeps ``acc`` unless ``v < acc``, so the fold's
    result depends on its order only among values that compare equal
    or unordered yet differ: ``±0.0`` and NaN.  Int64 batches and float
    batches free of NaN and ``-0.0`` therefore fold to each group's
    unique minimum in any order — ``np.minimum.at`` — and other float
    batches decline.
    """
    values = batch.values
    if type(values) is not ScalarColumn:
        return None
    arr = values.arr
    if not values.is_int and (
        _np.isnan(arr).any() or (_np.signbit(arr) & (arr == 0.0)).any()
    ):
        return None
    grouping = _group_structure(batch.keys)
    if grouping is None:
        return None
    out_keys, seg, first_pos = grouping
    out = arr[first_pos]
    _np.minimum.at(out, seg, arr)
    return ColumnBatch(out_keys, ScalarColumn(out))


register_reduce_kernel(min, min_reduce_kernel)


def group_lists_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """``group_by_key`` of an int-valued batch into a CSR list column.

    Keys come out in first-occurrence order and each group's values in
    record order (a stable ordering of the group ids) — the dict
    grouping's insertion order and ``append`` order.  None when the
    values are not int64 or the keys cannot group vectorised.
    """
    if int_array(batch.values) is None:
        return None
    grouping = _group_structure(batch.keys)
    if grouping is None:
        return None
    out_keys, seg, first_pos = grouping
    # The stable order of the group ids, as a plain sort of the unique
    # composite ``seg * n + i`` — several times faster than numpy's
    # stable sort of int64.
    n = len(seg)
    order = _np.argsort(seg.astype(_np.int64) * n + _np.arange(n))
    counts = _np.bincount(seg, minlength=len(first_pos))
    return ColumnBatch(
        out_keys, ListColumn(offsets_of(counts), batch.values.arr[order])
    )


#: Reduce partitions smaller than this stay on the dict grouping, and
#: so keep the whole graph loop built on them per-record: the graph
#: kernels pay a fixed cost per numpy call that adjacency partitions of
#: a few hundred rows do not repay.
MIN_GROUP_ROWS = 512


def group_by_key_batch(records: Any) -> Optional[ColumnBatch]:
    """Group a shuffled reduce partition into CSR form, or None to fall
    back to the dict grouping (no numpy, a partition below
    :data:`MIN_GROUP_ROWS` rows, or a schema the kernel declines).  A
    plain record list is packed first."""
    if _np is None or len(records) < MIN_GROUP_ROWS:
        return None
    batch = records if type(records) is ColumnBatch else (
        ColumnBatch.from_records(records)
    )
    if batch is None:
        return None
    return group_lists_kernel(batch)


def int_pair_arrays(keys) -> Optional[tuple]:
    """The two int64 arrays of a 2-int tuple-key column (a
    :class:`PairColumn` of int :class:`ScalarColumn` s), else None."""
    if type(keys) is not PairColumn:
        return None
    first = int_array(keys.first)
    second = int_array(keys.second)
    if first is None or second is None:
        return None
    return first, second


def distinct_key_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """``distinct``'s keying ``r -> (r, None)`` over an int-key /
    int-value batch: the ``(src, dst)`` pairs become a 2-int tuple-key
    column, the values a column of None.  Other schemas decline."""
    if int_array(batch.keys) is None or int_array(batch.values) is None:
        return None
    return ColumnBatch(
        PairColumn(batch.keys, batch.values), ConstColumn(None, len(batch))
    )


def distinct_unkey_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """``distinct``'s unkeying ``r -> r[0]`` over a tuple-key batch: the
    key pair's two columns become the key and value columns again."""
    keys = batch.keys
    if type(keys) is not PairColumn:
        return None
    return ColumnBatch(keys.first, keys.second)


def keep_first_kernel(batch: ColumnBatch) -> Optional[ColumnBatch]:
    """Grouped-fold kernel for ``fn(a, b) = a`` over 2-int tuple keys:
    the first row of each key, rows kept in input order (the dict
    fold's first-occurrence order, holding each key's first value).

    Each pair packs into one int64 code ``(a - a_lo) * span_b +
    (b - b_lo)``; a plain argsort of the codes groups equal pairs, and
    the minimum original position per run is the first occurrence.
    Declines when the code span reaches 2**62 (it could not pack).
    """
    pair = int_pair_arrays(batch.keys)
    if pair is None:
        return None
    a, b = pair
    n = len(a)
    if n < 2:
        return batch
    a_lo = int(a.min())
    b_lo = int(b.min())
    span_b = int(b.max()) - b_lo + 1
    if (int(a.max()) - a_lo + 1) * span_b >= 1 << 62:
        return None
    code = (a - a_lo) * span_b + (b - b_lo)
    order = _np.argsort(code)
    run = code[order]
    starts = _np.flatnonzero(run[1:] != run[:-1]) + 1
    if len(starts) == n - 1:
        return batch  # no duplicate pair
    first = _np.minimum.reduceat(order, _np.concatenate(([0], starts)))
    first.sort()
    return batch.select(first)


def join_batches(left: Any, right: Any) -> Optional[ColumnBatch]:
    """The vectorised inner cogroup of two int-keyed batches, or None to
    fall back to the dict cogroup.

    Rows are ``(k, ([lv…], [rv…]))`` in the left side's first-occurrence
    key order, filtered to keys the right side holds — exactly the dict
    cogroup's insertion order (left keys first) once keys present on one
    side only are dropped — with each side's values in record order.
    When keys are unique on both sides each slot is a
    :class:`SingletonColumn` around that side's values (any schema).
    Otherwise both sides group into CSR :class:`ListColumn` s
    (:func:`group_lists_kernel`), which takes int64 values; other value
    schemas decline.  An inner join with an empty side is empty (``[]``).
    """
    if not len(left) or not len(right):
        return []
    if type(left) is not ColumnBatch or type(right) is not ColumnBatch:
        return None
    if int_array(left.keys) is None or int_array(right.keys) is None:
        return None
    unique = not (
        _has_duplicates(left.keys.arr) or _has_duplicates(right.keys.arr)
    )
    if not unique:
        left = group_lists_kernel(left)
        right = None if left is None else group_lists_kernel(right)
        if right is None:
            return None
    lk = left.keys.arr
    r_order = _np.argsort(right.keys.arr)
    r_sorted = right.keys.arr[r_order]
    pos = _np.minimum(_np.searchsorted(r_sorted, lk), len(r_sorted) - 1)
    hit = r_sorted[pos] == lk
    rvalues = right.values.select(r_order[pos[hit]])
    if hit.all():
        keys, lvalues = left.keys, left.values
    else:
        lsel = _np.flatnonzero(hit)
        keys, lvalues = left.keys.select(lsel), left.values.select(lsel)
    if unique:
        lvalues, rvalues = SingletonColumn(lvalues), SingletonColumn(rvalues)
    return ColumnBatch(keys, PairColumn(lvalues, rvalues))


def _has_duplicates(arr) -> bool:
    if len(arr) < 2:
        return False
    arr = _np.sort(arr)
    return bool((arr[1:] == arr[:-1]).any())


def flatten_join(batch: Any) -> Optional[ColumnBatch]:
    """``join``'s flatten over a :func:`join_batches` result, or None
    when ``batch`` is not one.

    Singleton slots give one ``(k, (lv, rv))`` row per key.  CSR slots
    expand each key's cross product in the record plane's left-major
    order: with ``a``/``b`` the per-key list lengths and ``c = a·b``,
    output entry ``j`` of key ``g`` pairs left entry ``j // b[g]`` with
    right entry ``j % b[g]``.
    """
    if type(batch) is not ColumnBatch:
        return None
    values = batch.values
    if type(values) is not PairColumn:
        return None
    left, right = values.first, values.second
    if type(left) is SingletonColumn and type(right) is SingletonColumn:
        return ColumnBatch(batch.keys, PairColumn(left.inner, right.inner))
    if type(left) is not ListColumn or type(right) is not ListColumn:
        return None
    b = right.lengths()
    c = left.lengths() * b
    starts = offsets_of(c)
    row = _np.repeat(_np.arange(len(c)), c)
    j = _np.arange(starts[-1]) - starts[:-1][row]
    b_row = b[row]
    li = left.offsets[:-1][row] + j // b_row
    ri = right.offsets[:-1][row] + j % b_row
    return ColumnBatch(
        batch.keys.select(row),
        PairColumn(ScalarColumn(left.flat[li]), ScalarColumn(right.flat[ri])),
    )


def apply_reduce_kernel(fn: Callable, records: Any):
    """Grouped fold of a batch through ``fn``'s registered kernel.

    Returns the folded ColumnBatch, or None to fall back per-record
    (no kernel, not a batch, or the kernel declined the schema).
    """
    if type(records) is not ColumnBatch:
        return None
    kern = _REDUCE_KERNELS.get(fn)
    if kern is None:
        return None
    return kern(records)


# ---------------------------------------------------------------------------
# vectorised shuffle bucketing
# ---------------------------------------------------------------------------


def split_batch(batch: ColumnBatch, partitioner) -> Optional[list]:
    """Partition a batch into ``(bucket_index, sub_batch)`` pieces, in
    ascending bucket order, each holding its rows in batch order.

    Int-key columns bucket in one vectorised pass — bulk
    ``& 0x7FFFFFFF`` then ``% n``, exactly the inline int path of
    ``HashPartitioner.bucket_into`` (identical for every int64 key:
    numpy's two's-complement ``&`` matches Python's).  2-int tuple keys
    hash by ``_stable_hash``'s tuple rule, ``((a & M) * 1_000_003 + (b
    & M)) & M`` (below 2**52 before the mask, so int64 cannot
    overflow).  Constant keys hash once through ``partition_of``.

    The rows are then gathered once, in the stable order of their
    bucket ids — cast to ``uint8`` / ``uint16`` where the bucket count
    allows, so the stable argsort is a radix sort — and each bucket is a
    contiguous slice (views) of the gathered columns, bounded by
    ``np.bincount``.  None when the key column needs the per-record
    path (other key types).
    """
    keys = batch.keys
    n = partitioner.num_partitions
    if type(keys) is ConstColumn:
        return [(partitioner.partition_of(keys.value), batch)]
    arr = int_array(keys)
    if arr is not None:
        hashed = arr & _MASK
    else:
        pair = int_pair_arrays(keys)
        if pair is None:
            return None
        a, b = pair
        hashed = ((a & _MASK) * 1_000_003 + (b & _MASK)) & _MASK
    if n == 1:
        return [(0, batch)]
    bucket_of = hashed % n
    counts = _np.bincount(bucket_of, minlength=n)
    filled = _np.flatnonzero(counts).tolist()
    if len(filled) <= 1:
        return [(b, batch) for b in filled]
    bucket_of = _radix_ids(bucket_of, n)
    ordered = batch.select(_np.argsort(bucket_of, kind="stable"))
    bounds = offsets_of(counts).tolist()
    return [(b, ordered.slice(bounds[b], bounds[b + 1])) for b in filled]


def bucket_into_segments(partitioner, outputs: list, buckets: List[list]) -> None:
    """Bucket a whole shuffle map stage into ``buckets`` (one empty
    list per reduce partition), from its map outputs in map-partition
    order.

    When every non-empty output is a batch and their schemas
    concatenate (:func:`concat_segments`), the stage splits once
    (:func:`split_batch`) and each filled bucket becomes one sub-batch:
    a stable split of the map-ordered concatenation holds exactly the
    per-bucket record sequence ``bucket_into`` appends, map partition
    by map partition.  Any other stage — record lists, schemas that do
    not concatenate, keys ``split_batch`` declines — goes through the
    per-record ``bucket_into``, partition by partition.
    """
    if all(type(out) is ColumnBatch or not out for out in outputs):
        fused = concat_segments(outputs)
        if type(fused) is ColumnBatch:
            pieces = split_batch(fused, partitioner)
            if pieces is not None:
                for bidx, sub in pieces:
                    buckets[bidx] = sub
                return
    for out in outputs:
        partitioner.bucket_into(
            out.to_records() if type(out) is ColumnBatch else out, buckets
        )


def concat_segments(segments: list):
    """Fuse ordered pieces (batches or record sequences) into one:
    a single concatenated batch when every piece is schema-compatible,
    else the flattened record list (identical contents either way).
    Empty pieces drop out first."""
    segments = [p for p in segments if p]
    if not segments:
        return []
    if len(segments) == 1:
        return segments[0]
    if all(type(p) is ColumnBatch for p in segments):
        merged = ColumnBatch.concat(segments)
        if merged is not None:
            return merged
    flat: list = []
    for piece in segments:
        flat.extend(
            piece.to_records() if type(piece) is ColumnBatch else piece
        )
    return flat


# ---------------------------------------------------------------------------
# workload kernel helpers
# ---------------------------------------------------------------------------


def vec_matrix(column) -> Optional[Any]:
    """The ``(N, D)`` float64 matrix of a VecColumn, else None."""
    return column.mat if type(column) is VecColumn else None


def int_array(column) -> Optional[Any]:
    """The int64 array of an integer ScalarColumn, else None."""
    if type(column) is ScalarColumn and column.is_int:
        return column.arr
    return None


def float_array(column) -> Optional[Any]:
    """The float64 array of a float ScalarColumn, else None."""
    if type(column) is ScalarColumn and not column.is_int:
        return column.arr
    return None


def int_column(arr) -> ScalarColumn:
    """Wrap an int64 array as a key/value column."""
    return ScalarColumn(arr)


def float_column(arr) -> ScalarColumn:
    """Wrap a float64 array as a value column."""
    return ScalarColumn(arr)


def vec_count_column(mat, counts) -> PairColumn:
    """Build the ``(vec, count)`` value column of the ML aggregations."""
    return PairColumn(VecColumn(mat), ScalarColumn(counts))


def ones_int(n: int):
    """An int64 column of ones (the ``count = 1`` seed)."""
    return ScalarColumn(_np.ones(n, dtype=_np.int64))


def interleave(a, b):
    """``a[0], b[0], a[1], b[1], …`` of two equal-length arrays."""
    out = _np.empty(2 * len(a), dtype=a.dtype)
    out[0::2] = a
    out[1::2] = b
    return out


def ones_float(n: int):
    """A float64 column of ``1.0`` (PageRank's initial ranks)."""
    return ScalarColumn(_np.ones(n, dtype=_np.float64))


def csr_spread(lists: ListColumn, row_values) -> ColumnBatch:
    """One ``(entry, row_values[i])`` record per entry of row ``i``'s
    list, in row order (PageRank's contribution fan-out)."""
    return ColumnBatch(
        ScalarColumn(lists.flat),
        ScalarColumn(_np.repeat(row_values, lists.lengths())),
    )


def csr_fan_out(
    lists: ListColumn, fan_values, own_keys, own_values, own_first: bool
) -> ColumnBatch:
    """The graph programs' message fan-out, in row order.

    Row ``i`` emits ``(own_keys[i], own_values[i])`` plus one
    ``(nbr, fan_values[i])`` per entry ``nbr`` of its list, the own
    record first (``own_first``) or last.  ``own_values`` and
    ``fan_values`` share a dtype.
    """
    lens = lists.lengths()
    ends = _np.cumsum(lens + 1)
    starts = ends - (lens + 1)
    own_pos = starts if own_first else ends - 1
    first_nbr = starts + 1 if own_first else starts
    nbr_pos = _np.repeat(first_nbr - lists.offsets[:-1], lens) + _np.arange(
        len(lists.flat)
    )
    total = int(ends[-1]) if len(ends) else 0
    keys = _np.empty(total, dtype=_np.int64)
    keys[own_pos] = own_keys
    keys[nbr_pos] = lists.flat
    values = _np.empty(total, dtype=own_values.dtype)
    values[own_pos] = own_values
    values[nbr_pos] = _np.repeat(fan_values, lens)
    return ColumnBatch(ScalarColumn(keys), ScalarColumn(values))
