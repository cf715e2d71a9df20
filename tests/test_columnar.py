"""Tests for the columnar execution plane.

Covers its activation (numpy importable), the kernel machinery (grouped
ordered folds, first-occurrence key order, the ``np.add.at`` in-order
accumulation the folds rely on), vectorised shuffle bucketing,
pack/unpack round-trips over every workload's real record shapes, the
``_stable_hash`` non-finite float fix, and the per-record fallback for
unregistered UDFs, and byte-identity with the per-record plane (numpy
absent) on traced + fault-injected cells and random pipelines.
"""

import math
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import PolicyName
from repro.spark import columnar as _columnar
from repro.spark.columnar import (
    ColumnBatch,
    ConstColumn,
    ListColumn,
    PairColumn,
    ScalarColumn,
    SingletonColumn,
    VecColumn,
    bucket_into_segments,
    concat_segments,
    make_scalar_add_reduce_kernel,
    make_vec_count_merge_kernel,
    split_batch,
)
from repro.spark.partition import HashPartitioner, _stable_hash
from repro.spark.storage import StorageLevel
from tests.conftest import numpy_absent, small_context
from tests.golden import corpus
from tests.test_properties_spark import DATASET, STEP, run_traced_pipeline

np = pytest.importorskip("numpy")


class TestActivation:
    def test_active_iff_numpy_importable(self, monkeypatch):
        assert _columnar.columnar_active() is True
        monkeypatch.setattr(_columnar, "_np", None)
        assert _columnar.columnar_active() is False


# -- pack / unpack round-trips ----------------------------------------------


class TestPackRoundtrip:
    def _assert_roundtrip(self, records):
        batch = ColumnBatch.from_records(list(records))
        assert batch is not None
        out = batch.to_records()
        assert out == list(records)
        for (k, v), (ko, vo) in zip(records, out):
            assert type(ko) is type(k)
            assert type(vo) is type(v)
        # A re-pack of a freshly unpacked copy is bit-exact too.
        copied = [tuple(r) for r in records]
        rebuilt = ColumnBatch.from_records(copied)
        assert rebuilt.keys.tolist() == batch.keys.tolist()

    def test_every_workload_source_packs(self):
        from repro.workloads.datasets import (
            kdd_points,
            ml_points,
            pagerank_graph,
        )

        for ds in (
            ml_points(scale=0.02),
            kdd_points(scale=0.02),
            pagerank_graph(scale=0.02),
        ):
            self._assert_roundtrip(list(ds.records)[:80])

    def test_vec_count_shape_packs(self):
        records = [(i % 3, ((1.5 * i, -0.25 * i), 1)) for i in range(20)]
        self._assert_roundtrip(records)

    def test_scalar_float_values_pack(self):
        records = [(i % 5, 0.15 + 0.85 * i) for i in range(30)]
        self._assert_roundtrip(records)

    @pytest.mark.parametrize(
        "records",
        [
            [],
            [(1, 2), (True, 3)],  # bool key: exact-type check rejects
            [(1, 2), (2, 2.0)],  # mixed value types
            [("a", 1)],  # non-int key
            [(1, None)],
            [(1, (1.0, 2.0)), (2, (1.0,))],  # ragged vectors
            [(2**63, 1)],  # beyond int64
            [(1, (1.0, 2)), (2, (1.0, 3))],  # non-float tuple element
        ],
    )
    def test_unpackable_shapes_return_none(self, records):
        assert ColumnBatch.from_records(records) is None

    def test_packed_batch_shares_the_input_list(self):
        """from_records installs the input list as the unpack cache, so
        per-record fallbacks never pay a reconstruction."""
        records = [(i, float(i)) for i in range(10)]
        batch = ColumnBatch.from_records(records)
        assert batch.to_records() is records

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-(2**62), max_value=2**62),
                st.one_of(
                    st.integers(min_value=-(2**62), max_value=2**62),
                    st.floats(allow_nan=False),
                    st.tuples(
                        st.floats(allow_nan=False), st.floats(allow_nan=False)
                    ),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_uniform_numeric_records_roundtrip(self, records):
        """Any uniformly-shaped numeric record list round-trips
        type-exactly (or is declined outright — never mangled)."""
        head_type = type(records[0][1])
        uniform = all(type(v) is head_type for _, v in records) and (
            head_type is not tuple
            or len({len(v) for _, v in records}) == 1
        )
        batch = ColumnBatch.from_records(list(records))
        if not uniform:
            if batch is None:
                return
        assert batch is not None
        out = batch.to_records()
        assert out == records
        assert all(
            type(vo) is type(v) for (_, v), (_, vo) in zip(records, out)
        )


# -- kernel machinery -------------------------------------------------------


def _dict_fold(records):
    """The record plane's ``reduce_by_key`` of the ML merge shape: a
    dict fold seeded with each key's first value."""
    acc = {}
    for k, (vec, c) in records:
        if k in acc:
            pv, pc = acc[k]
            acc[k] = (tuple(x + y for x, y in zip(pv, vec)), pc + c)
        else:
            acc[k] = (vec, c)
    return list(acc.items())


_FOLD_FLOAT = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1e16, -1e16, math.inf, -math.inf, math.nan]),
)


@st.composite
def _vec_fold_records(draw):
    """``(k, (vec, 1))`` rows: d from 1, 1 to n groups, and optionally a
    group whose every coordinate is ``-0.0``."""
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=80))
    groups = draw(st.integers(min_value=1, max_value=n))
    keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=groups - 1),
            min_size=n,
            max_size=n,
        )
    )
    vecs = draw(
        st.lists(
            st.tuples(*[_FOLD_FLOAT] * d), min_size=n, max_size=n
        )
    )
    if draw(st.booleans()):
        vecs = [(-0.0,) * d if k == keys[0] else v for k, v in zip(keys, vecs)]
    return [(k, (v, 1)) for k, v in zip(keys, vecs)]


_VEC_FOLD_RECORDS = _vec_fold_records()


class TestGroupedFolds:
    def test_np_add_at_accumulates_in_index_order(self):
        """The grouped folds' bit-identity rests on np.add.at applying
        repeated-index contributions unbuffered, in order.  Pin it with
        additions whose result depends on order: (big + tiny) + -big
        differs from (big + -big) + tiny in the last bit."""
        vals = [1.0, 1e16, -1e16, 1.0]
        acc = np.zeros(1)
        np.add.at(acc, [0, 0, 0, 0], np.array(vals))
        sequential = 0.0
        for v in vals:
            sequential += v
        assert sequential == 1.0  # pairwise would give 0.0
        assert float(acc[0]) == sequential

    def test_np_cumsum_last_row_is_a_left_fold(self):
        """The prefix-sum vector fold rests on ``np.cumsum(axis=0)``
        adding rows one after another, starting from the first row
        itself (no leading zero): its last row is the Python left fold,
        in the last bit and in the sign of zero."""
        rows = [
            (1.0, -0.0, 1e16),
            (1e16, -0.0, 1.0),
            (-1e16, -0.0, -1e16),
            (1.0, -0.0, 1.0),
        ]
        acc = rows[0]
        for row in rows[1:]:
            acc = tuple(x + y for x, y in zip(acc, row))
        assert acc[0] == 1.0  # pairwise would give 0.0
        last = np.cumsum(np.asarray(rows), axis=0)[-1]
        assert repr(tuple(last.tolist())) == repr(acc)

    def test_scalar_add_matches_dict_fold(self):
        records = [(7, 0.1), (3, 0.2), (7, 0.3), (3, 0.4), (7, 1e-17)]
        batch = ColumnBatch.from_records(records)
        folded = make_scalar_add_reduce_kernel()(batch)
        acc = {}
        for k, v in records:
            acc[k] = acc[k] + v if k in acc else v
        assert folded.to_records() == list(acc.items())

    def test_first_occurrence_key_order(self):
        records = [(9, 1.0), (2, 1.0), (9, 1.0), (5, 1.0), (2, 1.0)]
        folded = make_scalar_add_reduce_kernel()(
            ColumnBatch.from_records(records)
        )
        assert [k for k, _ in folded.to_records()] == [9, 2, 5]

    def test_first_value_seeds_the_accumulator(self):
        """The dict fold starts with ``acc[k] = v`` (no leading zero);
        -0.0 first values expose any zeros-init shortcut, because
        0.0 + -0.0 is +0.0 while the fold keeps -0.0."""
        records = [(1, -0.0), (2, -0.0), (2, -0.0)]
        folded = make_scalar_add_reduce_kernel()(
            ColumnBatch.from_records(records)
        )
        out = folded.to_records()
        assert [repr(v) for _, v in out] == ["-0.0", "-0.0"]

    def test_vec_count_merge_matches_dict_fold(self):
        records = [
            (i % 3, ((0.1 * i, 1e16 if i % 2 else 1.0), 1)) for i in range(12)
        ]
        folded = make_vec_count_merge_kernel()(
            ColumnBatch.from_records(records)
        )
        assert repr(folded.to_records()) == repr(_dict_fold(records))

    def test_const_keys_fold_to_one_group(self):
        batch = ColumnBatch(
            ConstColumn("grad", 3),
            PairColumn(
                VecColumn(np.asarray([[1.0], [2.0], [4.0]])),
                ScalarColumn(np.ones(3, dtype=np.int64)),
            ),
        )
        folded = make_vec_count_merge_kernel()(batch)
        assert folded.to_records() == [("grad", ((7.0,), 3))]

    def test_empty_const_key_batch_folds_to_nothing(self):
        """An empty constant-key batch has no group: the fold returns an
        empty batch instead of indexing a phantom first row."""
        from repro.workloads.pagerank import _add

        batch = ColumnBatch(
            ConstColumn("grad", 0), ScalarColumn(np.zeros(0, dtype=np.float64))
        )
        folded = _columnar.apply_reduce_kernel(_add, batch)
        assert isinstance(folded, ColumnBatch)
        assert folded.to_records() == []

    def test_const_columns_of_equal_values_but_different_types_stay_apart(self):
        """1 == 1.0 == True: merging such segments would unpack one
        segment's value type for every row."""
        int_ones, float_ones = ConstColumn(1, 2), ConstColumn(1.0, 2)
        assert _columnar._concat_columns([int_ones, float_ones]) is None
        assert _columnar._concat_columns([int_ones, ConstColumn(True, 1)]) is None
        merged = concat_segments(
            [
                ColumnBatch(int_ones, ScalarColumn(np.arange(2))),
                ColumnBatch(float_ones, ScalarColumn(np.arange(2))),
            ]
        )
        assert [repr(k) for k, _ in merged] == ["1", "1", "1.0", "1.0"]

    def test_kernels_decline_foreign_schemas(self):
        ints = ColumnBatch.from_records([(1, 2), (3, 4)])
        assert make_scalar_add_reduce_kernel()(ints) is None
        assert make_vec_count_merge_kernel()(ints) is None

    def _spy_cumsum(self, monkeypatch):
        """Record the ndim of every array ``np.cumsum`` is called on."""
        calls = []
        real = np.cumsum

        def spy(a, *args, **kwargs):
            calls.append(np.ndim(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "cumsum", spy)
        return calls

    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_vector_fold_takes_prefix_sums_from_the_crossover(
        self, monkeypatch, groups
    ):
        """At ``PREFIX_FOLD_ROWS_PER_GROUP`` rows per group the vector
        fold runs on 2-D prefix sums; one row fewer keeps ``add.at``."""
        per_group = _columnar.PREFIX_FOLD_ROWS_PER_GROUP
        for rows, prefix in (
            (groups * per_group, True),
            (groups * per_group - 1, False),
        ):
            records = [(i % groups, ((0.1 * i, -0.0), 1)) for i in range(rows)]
            calls = self._spy_cumsum(monkeypatch)
            folded = make_vec_count_merge_kernel()(
                ColumnBatch.from_records(records)
            )
            monkeypatch.undo()
            assert (2 in calls) is prefix
            assert repr(folded.to_records()) == repr(_dict_fold(records))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(records=_VEC_FOLD_RECORDS, per_group=st.sampled_from([1, None]))
    def test_vector_fold_matches_dict_fold(self, records, per_group):
        """Both vector-fold paths — prefix sums (every batch, when the
        crossover is 1 row per group) and ``add.at`` (never) — equal
        the record plane's dict fold, bit for bit: d = 1 and up, one
        group to one per row, all-``-0.0`` groups, infinities and NaN."""
        if per_group is None:
            per_group = len(records) + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_columnar, "PREFIX_FOLD_ROWS_PER_GROUP", per_group)
            with np.errstate(invalid="ignore"):  # inf + -inf is NaN
                folded = make_vec_count_merge_kernel()(
                    ColumnBatch.from_records(records)
                )
        assert repr(folded.to_records()) == repr(_dict_fold(records))


class TestVectorisedBucketing:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_split_batch_matches_bucket_into(self, n):
        records = [((i * 37) % 23 - 11, float(i)) for i in range(200)]
        part = HashPartitioner(n)
        expected = part.split(records)
        pieces = split_batch(ColumnBatch.from_records(records), part)
        got = [[] for _ in range(n)]
        for bidx, sub in pieces:
            got[bidx].extend(sub.to_records())
        assert got == expected

    def test_split_batch_handles_const_keys(self):
        batch = ColumnBatch(
            ConstColumn("grad", 4),
            ScalarColumn(np.arange(4, dtype=np.int64)),
        )
        part = HashPartitioner(5)
        [(bidx, sub)] = split_batch(batch, part)
        assert bidx == part.partition_of("grad")
        assert len(sub) == 4

    def test_segments_preserve_map_partition_order(self):
        """A stage mixing batch and plain-record outputs buckets
        per-record, replaying bucket_into's append order exactly."""
        part = HashPartitioner(2)
        p0 = ColumnBatch.from_records([(0, 1.0), (1, 2.0), (2, 3.0)])
        p1 = [(0, 4.0), (1, 5.0)]  # a per-record map partition
        p2 = ColumnBatch.from_records([(2, 6.0), (3, 7.0)])
        buckets = [[] for _ in range(2)]
        bucket_into_segments(part, [p0, p1, p2], buckets)
        expected = [[] for _ in range(2)]
        for records in (p0.to_records(), p1, p2.to_records()):
            part.bucket_into(records, expected)
        assert buckets == expected

    def test_all_batch_segments_fuse_to_one_batch(self):
        part = HashPartitioner(1)
        buckets = [[]]
        outputs = [
            ColumnBatch.from_records([(i, float(i)) for i in range(lo, lo + 5)])
            for lo in (0, 10)
        ]
        bucket_into_segments(part, outputs + [[]], buckets)
        assert isinstance(buckets[0], ColumnBatch)
        assert len(buckets[0]) == 10


#: Key ids for stage splits: duplicates, negatives and the int64 edges.
_STAGE_ID = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)
_STAGE_VALUE_KINDS = ("int", "float", "mixed", "vec", "pair", "list", "singleton")


def _stage_keys(data, kind, size):
    if kind == "const":
        return ConstColumn("grad", size)
    ids = st.lists(_STAGE_ID, min_size=size, max_size=size)
    first = ScalarColumn(np.asarray(data.draw(ids), dtype=np.int64))
    if kind == "int":
        return first
    return PairColumn(first, ScalarColumn(np.asarray(data.draw(ids), dtype=np.int64)))


def _stage_values(data, kind, size, dim):
    ints = ScalarColumn(
        np.asarray(
            data.draw(st.lists(_STAGE_ID, min_size=size, max_size=size)),
            dtype=np.int64,
        )
    )
    if kind == "mixed":  # int or float per output: the concat declines
        kind = data.draw(st.sampled_from(["int", "float"]))
    if kind == "int":
        return ints
    if kind == "singleton":
        return SingletonColumn(ints)
    if kind == "list":
        lists = data.draw(
            st.lists(st.lists(_VID, max_size=4), min_size=size, max_size=size)
        )
        return _columnar._pack_value_column(lists)
    floats = data.draw(
        st.lists(_FLOAT, min_size=size * dim, max_size=size * dim)
    )
    if kind == "float":
        return ScalarColumn(np.asarray(floats[:size], dtype=np.float64))
    vecs = VecColumn(np.asarray(floats, dtype=np.float64).reshape(size, dim))
    return vecs if kind == "vec" else PairColumn(vecs, ints)


class TestStageSplit:
    """A shuffle map stage's outputs bucket exactly as the per-record
    ``bucket_into`` over their unpacked records, map partition by map
    partition — one split of the whole stage when it is all batches."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.data(),
        st.sampled_from(["int", "pair", "const"]),
        st.sampled_from(_STAGE_VALUE_KINDS),
        st.integers(min_value=1, max_value=300),
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6),
        st.booleans(),
    )
    def test_stage_split_matches_per_record_bucketing(
        self, data, key_kind, value_kind, n, sizes, some_lists
    ):
        dim = data.draw(st.integers(min_value=1, max_value=3))
        outputs = []
        for size in sizes:
            if size == 0:
                outputs.append([])
                continue
            batch = ColumnBatch(
                _stage_keys(data, key_kind, size),
                _stage_values(data, value_kind, size, dim),
            )
            as_list = some_lists and data.draw(st.booleans())
            outputs.append(batch.to_records() if as_list else batch)
        part = HashPartitioner(n)
        buckets = [[] for _ in range(n)]
        bucket_into_segments(part, outputs, buckets)
        expected = [[] for _ in range(n)]
        for out in outputs:
            part.bucket_into(list(out), expected)
        assert _same([list(b) for b in buckets], expected)
        whole_stage_split = value_kind != "mixed" and all(
            type(out) is ColumnBatch or not out for out in outputs
        )
        if whole_stage_split:
            assert all(type(b) is ColumnBatch for b in buckets if len(b))

    def test_split_pieces_are_slices_of_one_gather(self):
        """Buckets come out ascending, as views of one gathered copy; a
        CSR list column's slices rebase their offsets to 0."""
        lists = [[i] * (i % 3) for i in range(40)]
        batch = ColumnBatch(
            ScalarColumn(np.arange(40, dtype=np.int64)),
            _columnar._pack_value_column(lists),
        )
        pieces = split_batch(batch, HashPartitioner(7))
        assert [b for b, _ in pieces] == sorted(b for b, _ in pieces)
        bases = {id(sub.values.flat.base) for _, sub in pieces}
        assert len(bases) == 1
        for bidx, sub in pieces:
            assert sub.values.offsets[0] == 0
            assert sub.to_records() == [
                (k, lists[k]) for k in range(40) if k % 7 == bidx
            ]


# -- _stable_hash: non-finite floats (satellite fix) ------------------------


class TestStableHashFloats:
    @pytest.mark.parametrize(
        "key", [math.inf, -math.inf, math.nan, 1e308, -1e308, 2**53 / 1e6]
    )
    def test_extreme_floats_hash_without_raising(self, key):
        h = _stable_hash(key)
        assert 0 <= h <= 0x7FFFFFFF
        assert _stable_hash(key) == h  # deterministic

    def test_non_finite_values_stay_distinct(self):
        hashes = {_stable_hash(k) for k in (math.inf, -math.inf, math.nan)}
        assert len(hashes) == 3

    def test_finite_floats_keep_their_legacy_hash(self):
        for key in (0.0, -0.0, 1.0, 2.5, -3.75, 1234.5678):
            assert _stable_hash(key) == _stable_hash(int(key * 1e6))

    @pytest.mark.parametrize("key", [math.inf, -math.inf, math.nan, 1e308])
    def test_bucketing_agrees_across_planes(self, key):
        part = HashPartitioner(7)
        reference = _stable_hash(key) % 7
        assert part.partition_of(key) == reference
        buckets = part.split([(key, "v")])
        assert buckets[reference] == [(key, "v")]


# -- byte-identity with the per-record plane -------------------------------


class TestColumnarIdentity:
    @pytest.mark.parametrize("workload", ["KM", "LR", "PR"])
    def test_traced_faulted_cell_identical_either_plane(self, workload):
        """The corpus's traced, shuffle-killed s0.01 cell digests the
        same on the columnar plane and on the per-record plane."""
        cell = corpus.Cell(workload, PolicyName.PANTHERA, corpus.PRESSURES[0])
        columnar = cell.run()
        with numpy_absent(_columnar):
            record = cell.run()
        assert columnar == record

    def test_naive_bayes_cell_identical_either_plane(self):
        cell = corpus.Cell("BC", PolicyName.PANTHERA, corpus.PRESSURES[0])
        columnar = cell.run()
        with numpy_absent(_columnar):
            record = cell.run()
        assert columnar == record

    def test_serialized_persist_identical_either_plane(self):
        """The columnar plane feeding the serialized tier (batches held
        by SerializedColumnBatch at persist) changes nothing."""
        cell = corpus.Cell(
            "KM",
            PolicyName.PANTHERA,
            corpus.PRESSURES[0],
            StorageLevel.MEMORY_ONLY_SER,
        )
        columnar = cell.run()
        with numpy_absent(_columnar):
            record = cell.run()
        assert columnar == record


class TestColumnarPropertyAB:
    """Random traced (and sometimes faulted) pipelines are byte-identical
    on the columnar plane and on the per-record plane."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        records=DATASET,
        steps=st.lists(STEP, min_size=1, max_size=5),
        kill=st.booleans(),
    )
    def test_random_pipelines_identical_across_planes(
        self, records, steps, kill
    ):
        columnar = run_traced_pipeline(records, steps, kill)
        with numpy_absent(_columnar):
            record = run_traced_pipeline(records, steps, kill)
        assert columnar == record


# -- fallbacks --------------------------------------------------------------


class TestFallbacks:
    def test_unregistered_udf_falls_back_per_record(self):
        """A batch reaching a kernel-less map unpacks and maps per
        record — same answer as mapping the plain records."""
        records = [(i, float(i)) for i in range(40)]
        ctx = small_context(PolicyName.PANTHERA)
        source = ctx.parallelize(records, 3, 2**20, name="fb-src")
        rdd = source.map(lambda r: (r[0] % 4, r[1] * 2.0))
        result = sorted(ctx.scheduler.run_action(rdd, "collect"))
        assert isinstance(source._partitions[0], ColumnBatch)
        assert result == sorted((k % 4, v * 2.0) for k, v in records)

    def test_kernel_registry_is_weak(self):
        import gc as _gc

        def fn(r):
            return r

        _columnar.register_map_kernel(fn, _columnar.identity_kernel)
        assert _columnar.map_kernel_for(fn) is not None
        del fn
        _gc.collect()
        # No strong reference retained by the registry itself.
        assert len(_columnar._MAP_KERNELS) >= 0


# -- the graph plane --------------------------------------------------------

#: Vertex ids: a small range (so duplicate edges and self-loops are
#: common), negatives, and ids at and beyond 2**31 up to the int64 edges.
_VID = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.sampled_from([2**31 - 1, 2**31, 2**31 + 7, 2**63 - 1, -(2**63)]),
)
_EDGES = st.lists(st.tuples(_VID, _VID), max_size=40)
#: Floats with every value whose ordering is special: NaN, ±0.0, ±inf.
_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0]),
)
_ADJ = st.lists(_VID, max_size=5)
_GRAPH_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _same(a, b) -> bool:
    """Bit-level record equality: repr tells NaN and -0.0 apart."""
    return repr(a) == repr(b)


def _dict_group(records):
    grouped = {}
    for k, v in records:
        grouped.setdefault(k, []).append(v)
    return list(grouped.items())


def _graph_batch(rows, state_is_float):
    """A batch of ``(vid, (state, [nbr…]))`` rows, built column-wise."""
    vids = np.asarray([r[0] for r in rows], dtype=np.int64)
    states = np.asarray(
        [r[1] for r in rows], dtype=np.float64 if state_is_float else np.int64
    )
    lists = _columnar._pack_value_column([r[2] for r in rows])
    return ColumnBatch(
        ScalarColumn(vids), PairColumn(ScalarColumn(states), lists)
    )


@contextmanager
def _min_group_rows(rows):
    saved = _columnar.MIN_GROUP_ROWS
    _columnar.MIN_GROUP_ROWS = rows
    try:
        yield
    finally:
        _columnar.MIN_GROUP_ROWS = saved


def _per_record_flat_map(fn, records):
    return [out for record in records for out in fn(record)]


class TestListColumn:
    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_VID, _ADJ), min_size=1, max_size=20))
    def test_adjacency_records_roundtrip(self, records):
        batch = ColumnBatch.from_records(list(records))
        assert type(batch.values) is ListColumn
        rebuilt = ColumnBatch(batch.keys, batch.values).to_records()
        assert rebuilt == records
        assert all(type(v) is list for _, v in rebuilt)

    @_GRAPH_SETTINGS
    @given(
        st.lists(_ADJ, min_size=1, max_size=12),
        st.lists(_ADJ, min_size=1, max_size=12),
        st.data(),
    )
    def test_select_concat_emptied_match_lists(self, first, second, data):
        a = _columnar._pack_value_column(first)
        b = _columnar._pack_value_column(second)
        idx = data.draw(
            st.lists(st.integers(0, len(first) - 1), max_size=len(first))
        )
        assert a.select(np.asarray(idx, dtype=np.intp)).tolist() == [
            first[i] for i in idx
        ]
        assert _columnar._concat_columns([a, b]).tolist() == first + second
        keep = data.draw(
            st.lists(st.booleans(), min_size=len(first), max_size=len(first))
        )
        assert a.emptied(np.asarray(keep)).tolist() == [
            lst if k else [] for lst, k in zip(first, keep)
        ]

    @pytest.mark.parametrize(
        "records",
        [
            [(1, [2**63])],  # beyond int64
            [(1, [-(2**63) - 1])],
            [(1, [2, True])],  # bool element
            [(1, [2]), (2, (3,))],  # mixed list / tuple values
            [(1, [2.0])],  # float element
        ],
    )
    def test_unpackable_lists_decline(self, records):
        assert ColumnBatch.from_records(records) is None

    def test_batch_equals_its_record_list(self):
        records = [(1, [2, 3]), (4, [])]
        batch = ColumnBatch.from_records(records)
        assert batch == records
        assert batch == ColumnBatch.from_records(list(records))
        assert batch != [(1, [2, 3])]


class TestGraphKernels:
    @_GRAPH_SETTINGS
    @given(_EDGES)
    def test_group_by_key_matches_dict_grouping(self, edges):
        expected = _dict_group(edges)
        with _min_group_rows(1):
            grouped = _columnar.group_by_key_batch(edges)
            if not edges:
                assert grouped is None  # an empty partition stays a list
                return
            assert grouped.to_records() == expected
            # A batch input groups the same way.
            batch = ColumnBatch(
                ScalarColumn(np.asarray([k for k, _ in edges], dtype=np.int64)),
                ScalarColumn(np.asarray([v for _, v in edges], dtype=np.int64)),
            )
            assert _columnar.group_by_key_batch(batch).to_records() == expected

    @pytest.mark.parametrize("bad", [(2**63, 1), (1, 2**63), (1, 2.0)])
    def test_group_by_key_declines_beyond_int64(self, bad):
        with _min_group_rows(1):
            assert _columnar.group_by_key_batch([(1, 2), bad]) is None

    def test_small_partitions_stay_on_the_dict_grouping(self):
        edges = [(i % 5, i) for i in range(_columnar.MIN_GROUP_ROWS)]
        assert _columnar.group_by_key_batch(edges[:-1]) is None
        grouped = _columnar.group_by_key_batch(edges)
        assert type(grouped.values) is ListColumn
        assert grouped.to_records() == _dict_group(edges)

    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_VID, _ADJ, _FLOAT), min_size=1, max_size=15))
    def test_pagerank_contribs_fan_out(self, rows):
        from repro.workloads.pagerank import _contribs_record

        records = [(v, (nbrs, rank)) for v, nbrs, rank in rows]
        batch = ColumnBatch(
            ScalarColumn(np.asarray([r[0] for r in rows], dtype=np.int64)),
            PairColumn(
                _columnar._pack_value_column([r[1] for r in rows]),
                ScalarColumn(np.asarray([r[2] for r in rows], dtype=np.float64)),
            ),
        )
        out = _columnar.apply_flat_map_batch(_contribs_record, batch)
        assert _same(
            out.to_records(), _per_record_flat_map(_contribs_record, records)
        )

    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_VID, _VID, _ADJ), min_size=1, max_size=15))
    def test_cc_send_labels_fan_out(self, rows):
        from repro.workloads.graphx import _send_labels

        batch = _graph_batch(rows, state_is_float=False)
        records = batch.to_records()
        out = _columnar.apply_flat_map_batch(_send_labels, batch)
        assert out.to_records() == _per_record_flat_map(_send_labels, records)

    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_VID, _FLOAT, _ADJ), min_size=1, max_size=15))
    def test_sssp_relax_fan_out(self, rows):
        from repro.workloads.graphx import _relax

        batch = _graph_batch(rows, state_is_float=True)
        records = batch.to_records()
        out = _columnar.apply_flat_map_batch(_relax, batch)
        assert _same(out.to_records(), _per_record_flat_map(_relax, records))

    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_VID, _VID), min_size=1, max_size=30))
    def test_cc_undirected_expansion(self, edges):
        from repro.workloads.graphx import _both_directions

        out = _columnar.apply_flat_map_batch(
            _both_directions, ColumnBatch.from_records(edges)
        )
        assert out.to_records() == _per_record_flat_map(_both_directions, edges)

    @_GRAPH_SETTINGS
    @given(
        st.one_of(
            st.lists(st.tuples(_VID, _VID), min_size=1, max_size=30),
            st.lists(st.tuples(_VID, _FLOAT), min_size=1, max_size=30),
        )
    )
    def test_grouped_min_matches_dict_fold(self, records):
        acc = {}
        for k, v in records:
            acc[k] = min(acc[k], v) if k in acc else v
        expected = list(acc.items())
        values = [v for _, v in records]
        order_sensitive = type(values[0]) is float and any(
            v != v or (v == 0.0 and math.copysign(1.0, v) < 0) for v in values
        )
        folded = _columnar.apply_reduce_kernel(
            min, ColumnBatch.from_records(records)
        )
        if order_sensitive:
            assert folded is None
        else:
            assert _same(folded.to_records(), expected)

    @_GRAPH_SETTINGS
    @given(
        st.lists(st.tuples(_VID, _VID), max_size=20),
        st.one_of(
            st.lists(st.tuples(_VID, _VID), max_size=20),
            st.lists(st.tuples(_VID, _FLOAT), max_size=20),
        ),
    )
    @example(left=[(1, 10), (1, 11), (2, 12)], right=[(1, 20), (2, 21)])
    @example(left=[(1, 10), (2, 11)], right=[(2, 20), (1, 21), (2, 22)])
    @example(
        left=[(1, 10), (2, 11), (1, 12), (3, 13)],
        right=[(2, 20), (1, 21), (1, 22), (4, 23), (2, 24)],
    )
    @example(left=[(1, 10), (1, 11)], right=[(2, 20), (2, 21)])
    @example(left=[(5, 1), (6, 2)], right=[(6, 3.5), (7, -0.0)])
    def test_inner_join_matches_dict_cogroup(self, left, right):
        """Unique keys, duplicates on either or both sides, and keys on
        one side only: the cogroup rows equal the dict cogroup's and
        their flatten equals the record plane's nested loop.  Only
        duplicate keys over non-int values decline."""
        grouped = {}
        for k, v in left:
            grouped.setdefault(k, ([], []))[0].append(v)
        for k, v in right:
            grouped.setdefault(k, ([], []))[1].append(v)
        expected = [(k, v) for k, v in grouped.items() if all(v)]
        flat = [(k, (lv, rv)) for k, (ls, rs) in expected for lv in ls for rv in rs]
        joined = _columnar.join_batches(
            ColumnBatch.from_records(left) if left else [],
            ColumnBatch.from_records(right) if right else [],
        )
        if not left or not right:
            assert joined == []
            return
        unique = len({k for k, _ in left}) == len(left) and len(
            {k for k, _ in right}
        ) == len(right)
        if not unique and type(right[0][1]) is float:
            assert joined is None  # grouping takes int64 values only
            return
        assert _same(joined.to_records(), expected)
        assert _same(_columnar.flatten_join(joined).to_records(), flat)

    @_GRAPH_SETTINGS
    @given(
        st.one_of(
            st.lists(st.tuples(_VID, _VID, _ADJ, _VID), min_size=1, max_size=15),
            st.lists(
                st.tuples(_VID, _FLOAT, _ADJ, _FLOAT), min_size=1, max_size=15
            ),
        )
    )
    def test_update_state_is_python_min(self, rows):
        from repro.workloads.graphx import _update_state

        is_float = type(rows[0][1]) is float
        graph = _graph_batch([r[:3] for r in rows], state_is_float=is_float)
        incoming = ScalarColumn(
            np.asarray(
                [r[3] for r in rows], dtype=np.float64 if is_float else np.int64
            )
        )
        batch = ColumnBatch(graph.keys, PairColumn(graph.values, incoming))
        kernel = _columnar.map_values_kernel_for(_update_state)
        expected = [(k, _update_state(v)) for k, v in batch.to_records()]
        assert _same(kernel(batch).to_records(), expected)


class TestGraphPlaneEngagement:
    """Guards against a silent fallback: at s1 with numpy, PageRank's
    distinct prologue and contribs and CC's msgs shuffle through
    ``split_batch`` and never reach the per-record ``bucket_into``."""

    @pytest.mark.parametrize(
        "workload, value_type", [("PR", float), ("CC", int)]
    )
    def test_message_shuffles_bucket_vectorised(
        self, monkeypatch, workload, value_type
    ):
        from repro.harness.configs import paper_config
        from repro.harness.experiment import run_experiment

        per_record = []
        split = []
        bucket_into = HashPartitioner.bucket_into
        split_batch_fn = _columnar.split_batch

        def spy_bucket_into(self, records, buckets):
            records = list(records)
            per_record.append(records)
            return bucket_into(self, records, buckets)

        def spy_split_batch(batch, partitioner):
            split.append(batch)
            return split_batch_fn(batch, partitioner)

        monkeypatch.setattr(HashPartitioner, "bucket_into", spy_bucket_into)
        monkeypatch.setattr(_columnar, "split_batch", spy_split_batch)
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, 1.0)
        run_experiment(workload, config, scale=1.0, workload_kwargs={"iterations": 2})
        assert any(
            type(b.values) is ScalarColumn
            and type(b.values.arr.tolist()[0]) is value_type
            for b in split
        )
        assert per_record == []
        if workload == "PR":
            # The distinct prologue shuffles its (edge, None) records
            # under 2-int tuple keys.
            assert any(type(b.keys) is PairColumn for b in split)


    def test_transitive_closure_stays_columnar(self, monkeypatch):
        """TC at s0.1 (all six iterations, whose later joins meet empty
        buckets): its duplicate-key self-join runs as CSR cogroups and
        a cross-product flatten, and every shuffle (distinct, both join
        sides) splits vectorised — nothing reaches the per-record
        ``bucket_into`` or the dict cogroup loop."""
        from repro.harness.configs import paper_config
        from repro.harness.experiment import run_experiment

        per_record = []
        declined = []
        cogroups = []
        bucket_into = HashPartitioner.bucket_into
        join_batches = _columnar.join_batches

        def spy_bucket_into(self, records, buckets):
            records = list(records)
            per_record.append(records)
            return bucket_into(self, records, buckets)

        def spy_join_batches(left, right):
            out = join_batches(left, right)
            (declined if out is None else cogroups).append(out)
            return out

        monkeypatch.setattr(HashPartitioner, "bucket_into", spy_bucket_into)
        monkeypatch.setattr(_columnar, "join_batches", spy_join_batches)
        config = paper_config(36, 1 / 3, PolicyName.PANTHERA, 0.1)
        run_experiment("TC", config, scale=0.1)
        assert per_record == []
        assert declined == []
        assert any(
            type(out) is ColumnBatch and type(out.values.first) is ListColumn
            for out in cogroups
        )


class TestGraphPlaneSharing:
    def test_runs_share_the_packed_source_batch(self):
        """Every run over a memoised dataset reuses one split and one
        pack of it, and the runs stay byte-identical."""
        from repro.harness.configs import paper_config
        from repro.harness.experiment import run_experiment

        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.05)
        runs = [
            run_experiment(
                "CC",
                config,
                scale=0.05,
                workload_kwargs={"iterations": 2},
                keep_context=True,
                trace=True,
            )
            for _ in range(2)
        ]
        sources = [
            next(iter(r.context._sources.values()))[1] for r in runs
        ]
        assert sources[0] is not sources[1]
        assert sources[0]._partitions[0] is sources[1]._partitions[0]
        assert isinstance(sources[0]._partitions[0], ColumnBatch)
        assert corpus.fingerprint(runs[0]) == corpus.fingerprint(runs[1])

    def test_ser_persisted_batch_reads_back_as_a_batch(self):
        """MEMORY_ONLY_SER keeps a scalar batch columnar: the serialized
        tier holds the batch the map kernel built and reads it back,
        equal records."""
        from repro.spark.serialized import SerializedColumnBatch

        def same(record):
            return record

        _columnar.register_map_kernel(same, _columnar.identity_kernel)
        records = [(i % 7 - 3, 0.5 * i) for i in range(30)]
        batch = ColumnBatch.from_records(records)
        assert SerializedColumnBatch.pack(batch).unpack() is batch

        ctx = small_context(PolicyName.PANTHERA)
        source = ctx.parallelize(records, 2, 2**20, name="ser-src")
        persisted = source.map(same).persist(StorageLevel.MEMORY_ONLY_SER)
        persisted.count()
        block = ctx.block_manager.get(persisted.id)
        read = ctx.scheduler.get_records(persisted, 0)
        assert block.ser_batches is not None
        assert isinstance(read, ColumnBatch)
        assert read == list(source._partitions[0])


class TestGraphPlaneIdentity:
    """End-to-end identity with the graph kernels engaged: at s1 every
    adjacency partition is above ``MIN_GROUP_ROWS`` (the corpus's s0.01
    and s0.1 cells stay below it), and the traced, shuffle-killed run
    digests the same on the columnar and on the per-record plane."""

    @pytest.mark.parametrize(
        "workload, persist",
        [
            ("PR", None),
            ("PR", StorageLevel.MEMORY_ONLY_SER),
            ("CC", None),
            ("SSSP", None),
        ],
    )
    def test_s1_cell_identical_either_plane(self, workload, persist):
        cell = corpus.Cell(
            workload,
            PolicyName.PANTHERA,
            corpus.Pressure(1.0, 64.0, False),
            persist,
        )
        columnar = cell.run()
        with numpy_absent(_columnar):
            record = cell.run()
        assert columnar == record


class TestMlPlaneIdentity:
    """End-to-end identity with the ML kernels on 500-625-row
    partitions: at s1 the vector folds take their prefix-sum path (the
    corpus's s0.01 and s0.1 partitions hold at most 63 rows, below
    ``PREFIX_FOLD_ROWS_PER_GROUP`` per group), and the traced,
    shuffle-killed run digests the same on the columnar and on the
    per-record plane."""

    @pytest.mark.parametrize(
        "workload, persist",
        [
            ("KM", None),
            ("LR", None),
            ("BC", None),
            ("KM", StorageLevel.MEMORY_ONLY_SER),
        ],
    )
    def test_s1_cell_identical_either_plane(self, workload, persist):
        cell = corpus.Cell(
            workload,
            PolicyName.PANTHERA,
            corpus.Pressure(1.0, 64.0, False),
            persist,
        )
        columnar = cell.run()
        with numpy_absent(_columnar):
            record = cell.run()
        assert columnar == record


def _ml_udfs(spec, var):
    """The map UDF bound to loop variable ``var`` of an ML program, and
    the loop's driver update (which sets the model state)."""
    from repro.spark.program import AssignStmt, DriverStmt, LoopStmt

    (loop,) = [s for s in spec.program.body if isinstance(s, LoopStmt)]
    (udf,) = [
        s.expr.kwargs["fn"]
        for s in loop.body
        if isinstance(s, AssignStmt) and s.var == var
    ]
    (update,) = [s.fn for s in loop.body if isinstance(s, DriverStmt)]
    return udf, update


def _ml_dataset(records):
    from array import array

    from repro.workloads.datasets import DatasetSpec

    dim = len(records[0][1])
    return DatasetSpec(
        "ml-kernel-case",
        keys=array("q", [label for label, _ in records]),
        values=array("d", [x for _, vec in records for x in vec]),
        num_partitions=1,
        total_bytes=1e6,
        dim=dim,
    )


def _map_both_planes(udf, records):
    """``udf`` over ``records`` by its batch kernel and per record."""
    out = _columnar.apply_map_batch(udf, ColumnBatch.from_records(records))
    assert out is not None
    return out.to_records(), [udf(r) for r in records]


#: Finite coordinates plus the float edge cases where Python's scalar
#: rules and numpy's array rules could part: NaN, +-inf, +-0.0 and
#: squares that overflow.
_ML_COORD = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308]),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestMlKernels:
    """The LR gradient and K-means assign kernels against their UDFs."""

    def test_sigmoid_at_zero_and_clamped_margins(self):
        """Margins of +0.0 and -0.0 (zero vectors, either label) and
        margins clamped at +30 and -30 (far-out points)."""
        from repro.workloads.logistic_regression import (
            build_logistic_regression,
        )

        records = [
            (label, vec)
            for label in (0, 1)
            for vec in (
                (0.0, 0.0, 0.0),
                (-0.0, -0.0, -0.0),
                (1e6, 1e6, 1e6),
                (-1e6, -1e6, -1e6),
                (30.0, -30.0, 0.5),
            )
        ]
        spec = build_logistic_regression(dataset=_ml_dataset(records))
        gradient, _ = _ml_udfs(spec, "grads")
        columnar, record = _map_both_planes(gradient, records)
        # repr tells -0.0 from 0.0.
        assert repr(columnar) == repr(record)
        assert "-0.0" in repr(record)

    def test_nan_margin_clamps_like_python_min(self):
        """``min(30.0, nan)`` is 30.0, so a NaN margin (an ``inf * 0``
        or NaN dot product) clamps to +30 on both planes."""
        from repro.workloads.logistic_regression import (
            build_logistic_regression,
        )

        nan, inf = math.nan, math.inf
        records = [(1, (inf, inf)), (0, (nan, 2.0))]
        spec = build_logistic_regression(dataset=_ml_dataset(records))
        gradient, _ = _ml_udfs(spec, "grads")
        columnar, record = _map_both_planes(gradient, records)
        assert repr(columnar) == repr(record)
        (_, ((g0, g1), _)), (_, ((h0, h1), _)) = record
        assert (g0, g1) == (-inf, -inf)
        assert math.isnan(h0) and h1 == pytest.approx(1.87e-13, rel=1e-2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda d: st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=3),
                    st.tuples(*[_ML_COORD] * d),
                ),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_gradient_matches_udf(self, records):
        from repro.workloads.logistic_regression import (
            build_logistic_regression,
        )

        spec = build_logistic_regression(dataset=_ml_dataset(records))
        gradient, _ = _ml_udfs(spec, "grads")
        columnar, record = _map_both_planes(gradient, records)
        assert repr(columnar) == repr(record)

    def _assign(self, records, centers):
        from repro.workloads.kmeans import build_kmeans

        spec = build_kmeans(dataset=_ml_dataset(records), k=len(centers))
        assign, update_centers = _ml_udfs(spec, "closest")
        # A one-point sum per cluster sets each centre exactly (x * 1.0).
        update_centers(
            {"stats": [(i, (c, 1)) for i, c in enumerate(centers)]}
        )
        return _map_both_planes(assign, records)

    def test_tied_centers_and_nan_points(self):
        """Duplicate centres tie on every point (the first wins), a point
        with a NaN coordinate is NaN away from every centre (the first
        centre wins on both planes), and a NaN centre never wins."""
        nan = math.nan
        centers = [(5.0, 5.0), (1.0, 1.0), (1.0, 1.0), (-1.0, 1.0)]
        records = [
            (0, (1.0, 1.0)),
            (1, (0.0, 1.0)),
            (2, (nan, 0.0)),
            (3, (2.0, nan)),
            (4, (nan, nan)),
            (5, (-0.0, 1.0)),
        ]
        columnar, record = self._assign(records, centers)
        assert repr(columnar) == repr(record)
        assert [k for k, _ in record] == [1, 1, 0, 0, 0, 1]
        # A NaN distance never wins either, so a centre with a NaN
        # coordinate gets no point, and a row of NaN and inf distances
        # stays at centre 0.
        inf = math.inf
        records = [(0, (1.0, 1.0)), (1, (3.0, 3.0)), (2, (nan, 1.0)), (3, (inf, 0.0))]
        for centers, expected in (
            ([(0.0, 0.0), (nan, 0.0)], [0, 0, 0, 0]),
            ([(nan, 0.0), (0.0, 0.0)], [1, 1, 0, 0]),
            ([(inf, 0.0), (0.0, 0.0), (nan, 1.0)], [1, 1, 0, 0]),
        ):
            columnar, record = self._assign(records, centers)
            assert repr(columnar) == repr(record)
            assert [k for k, _ in record] == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=3),
                        st.tuples(*[_ML_COORD] * d),
                    ),
                    min_size=1,
                    max_size=40,
                ),
                st.lists(
                    st.tuples(*[_ML_COORD] * d), min_size=1, max_size=5
                ),
            )
        )
    )
    def test_assign_matches_udf(self, case):
        records, centers = case
        # Repeat a centre so ties occur.
        centers = centers + centers[:1]
        columnar, record = self._assign(records, centers)
        assert repr(columnar) == repr(record)


# -- distinct: tuple-key column and keep-first fold ------------------------

#: Ids with duplicates (a small range) plus the hash's edge cases.
_DISTINCT_ID = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([2**31 - 1, 2**31, -(2**31) - 1, 2**63 - 1, -(2**63)]),
)


def _int_pairs(pairs):
    return ColumnBatch(
        PairColumn(
            ScalarColumn(np.asarray([a for a, _ in pairs], dtype=np.int64)),
            ScalarColumn(np.asarray([b for _, b in pairs], dtype=np.int64)),
        ),
        ConstColumn(None, len(pairs)),
    )


def _distinct_then_group(partitions, num_partitions):
    """Persisted partition contents of ``distinct()`` and of the
    ``group_by_key()`` after it, over explicit source partitions."""
    from repro.spark.rdd import SourceRDD

    ctx = small_context(PolicyName.PANTHERA)
    source = SourceRDD(ctx, [list(p) for p in partitions], 64.0, name="pairs")
    deduped = source.distinct(num_partitions).persist(StorageLevel.MEMORY_ONLY)
    grouped = deduped.group_by_key().persist(StorageLevel.MEMORY_ONLY)
    grouped.count()
    return [
        list(ctx.block_manager.get(rdd.id).records)
        for rdd in (deduped, grouped)
    ]


def _unpacked(rdds):
    return [[list(part) for part in parts] for parts in rdds]


class TestDistinctPlane:
    _IDS = [0, 1, -1, 5, 2**31 - 1, 2**31, -(2**31), 2**63 - 1, -(2**63)]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pair_key_split_is_the_stable_tuple_hash(self, n):
        pairs = [(a, b) for a in self._IDS for b in self._IDS]
        part = HashPartitioner(n)
        expected = [[] for _ in range(n)]
        for key in pairs:
            expected[_stable_hash(key) % n].append(key)
        got = [[] for _ in range(n)]
        for bidx, sub in split_batch(_int_pairs(pairs), part):
            got[bidx].extend(k for k, _ in sub.to_records())
        assert got == expected

    def test_keying_roundtrips_through_the_tuple_key_column(self):
        edges = [(3, -1), (2**63 - 1, 0), (3, -1)]
        keyed = _columnar.distinct_key_kernel(ColumnBatch.from_records(edges))
        assert type(keyed.keys) is PairColumn
        assert keyed.to_records() == [(e, None) for e in edges]
        assert _columnar.distinct_unkey_kernel(keyed).to_records() == edges

    @_GRAPH_SETTINGS
    @given(st.lists(st.tuples(_DISTINCT_ID, _DISTINCT_ID), max_size=40))
    def test_keep_first_matches_the_dict_fold(self, pairs):
        batch = _int_pairs(pairs)
        folded = _columnar.keep_first_kernel(batch)
        if folded is None:  # the code span would overflow int64
            a = [x for x, _ in pairs]
            b = [y for _, y in pairs]
            assert (max(a) - min(a) + 1) * (max(b) - min(b) + 1) >= 2**62
            return
        assert folded.to_records() == [(k, None) for k in dict.fromkeys(pairs)]

    @_GRAPH_SETTINGS
    @given(
        st.lists(
            st.lists(st.tuples(_DISTINCT_ID, _DISTINCT_ID), max_size=12),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
    )
    def test_distinct_then_group_identical_either_plane(
        self, partitions, num_partitions
    ):
        with _min_group_rows(1):
            columnar = _distinct_then_group(partitions, num_partitions)
            with numpy_absent(_columnar):
                record = _distinct_then_group(partitions, num_partitions)
        assert _same(_unpacked(columnar), _unpacked(record))
        edges = {e for p in partitions for e in p}
        deduped = [e for part in record[0] for e in part]
        assert sorted(deduped) == sorted(edges)

    def test_pagerank_links_prologue_stays_columnar(self):
        edges = [(i % 50, (i * 7) % 50) for i in range(600)]
        with _min_group_rows(1):
            deduped, grouped = _distinct_then_group([edges[:300], edges[300:]], 3)
        assert all(isinstance(p, ColumnBatch) for p in deduped + grouped)
        assert type(deduped[0].keys) is ScalarColumn
        assert type(grouped[0].values) is ListColumn

    @pytest.mark.parametrize(
        "edges",
        [
            [(True, 1), (1, 1), (True, 1)],  # bools never pack
            [(1.0, 2.0), (1.0, 2.0), (-0.0, 0.0)],  # float pairs
            [(1, 2.0), (1, 2), (1, 2.0)],  # mixed pairs
            [(-(2**63), 0), (2**63 - 1, 5), (-(2**63), 0)],  # code span
        ],
    )
    def test_unsupported_pairs_decline_to_the_record_path(self, edges):
        columnar = _distinct_then_group([edges, edges[::-1]], 2)
        with numpy_absent(_columnar):
            record = _distinct_then_group([edges, edges[::-1]], 2)
        assert _same(_unpacked(columnar), _unpacked(record))

    def test_kernels_decline_what_they_cannot_replay(self):
        floats = ColumnBatch.from_records([(1, 2.0), (1, 2.0)])
        assert _columnar.distinct_key_kernel(floats) is None
        assert _columnar.keep_first_kernel(floats) is None
        assert _columnar.distinct_unkey_kernel(floats) is None
        mixed_key = ColumnBatch(
            PairColumn(floats.keys, floats.values), ConstColumn(None, 2)
        )
        assert split_batch(mixed_key, HashPartitioner(3)) is None
        assert _columnar.keep_first_kernel(mixed_key) is None
        wide = _int_pairs([(-(2**63), 0), (2**63 - 1, 1), (-(2**63), 0)])
        assert _columnar.keep_first_kernel(wide) is None
        # Just inside the bound the codes still pack.
        edge = _int_pairs([(0, 0), (2**31 - 1, 2**31 - 1)])
        assert _columnar.keep_first_kernel(edge) is None  # span 2**62
        narrow = _int_pairs([(0, 0), (2**31 - 1, 2**31 - 2), (0, 0)])
        assert _columnar.keep_first_kernel(narrow).to_records() == [
            ((0, 0), None),
            ((2**31 - 1, 2**31 - 2), None),
        ]
