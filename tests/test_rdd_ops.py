"""RDD transformation correctness: the dataflow really computes."""

import operator

import pytest

from repro.errors import SparkError
from repro.spark.rdd import CoGroupedRDD, NarrowDependency, ShuffleDependency
from repro.spark.partition import HashPartitioner
from tests.conftest import small_context


@pytest.fixture
def ctx():
    return small_context()


def parallelize(ctx, records, partitions=3, total_bytes=2 * 2**20):
    return ctx.parallelize(list(records), partitions, total_bytes, name="t")


def run(ctx, rdd):
    return sorted(ctx.scheduler.run_action(rdd, "collect"))


class TestNarrowOps:
    def test_map(self, ctx):
        rdd = parallelize(ctx, [(i, i) for i in range(10)]).map(
            lambda r: (r[0], r[1] * 2)
        )
        assert run(ctx, rdd) == [(i, 2 * i) for i in range(10)]

    def test_filter(self, ctx):
        rdd = parallelize(ctx, [(i, i) for i in range(10)]).filter(
            lambda r: r[0] % 2 == 0
        )
        assert run(ctx, rdd) == [(i, i) for i in range(0, 10, 2)]

    def test_flat_map(self, ctx):
        rdd = parallelize(ctx, [(i, 2) for i in range(3)]).flat_map(
            lambda r: [(r[0], j) for j in range(r[1])]
        )
        assert run(ctx, rdd) == sorted((i, j) for i in range(3) for j in range(2))

    def test_map_values_preserves_partitioner(self, ctx):
        grouped = parallelize(ctx, [(i % 3, i) for i in range(9)]).group_by_key()
        mapped = grouped.map_values(len)
        assert mapped.partitioner == grouped.partitioner
        assert run(ctx, mapped) == [(0, 3), (1, 3), (2, 3)]

    def test_union(self, ctx):
        a = parallelize(ctx, [(1, "a")])
        b = parallelize(ctx, [(2, "b")])
        assert run(ctx, a.union(b)) == [(1, "a"), (2, "b")]

    def test_map_preserving_partitioning_flag(self, ctx):
        grouped = parallelize(ctx, [(i % 3, i) for i in range(9)]).group_by_key()
        preserved = grouped.map(lambda r: r, preserves_partitioning=True)
        dropped = grouped.map(lambda r: r)
        assert preserved.partitioner == grouped.partitioner
        assert dropped.partitioner is None


class TestWideOps:
    def test_group_by_key(self, ctx):
        rdd = parallelize(ctx, [(i % 2, i) for i in range(6)]).group_by_key()
        result = dict(run(ctx, rdd))
        assert sorted(result[0]) == [0, 2, 4]
        assert sorted(result[1]) == [1, 3, 5]

    def test_reduce_by_key(self, ctx):
        rdd = parallelize(ctx, [(i % 3, 1) for i in range(9)]).reduce_by_key(
            lambda a, b: a + b
        )
        assert run(ctx, rdd) == [(0, 3), (1, 3), (2, 3)]

    def test_distinct(self, ctx):
        rdd = parallelize(ctx, [(1, "x")] * 5 + [(2, "y")] * 3).distinct()
        assert run(ctx, rdd) == [(1, "x"), (2, "y")]

    def test_join(self, ctx):
        a = parallelize(ctx, [(1, "a"), (2, "b"), (3, "c")])
        b = parallelize(ctx, [(1, 10), (2, 20), (4, 40)])
        assert run(ctx, a.join(b)) == [(1, ("a", 10)), (2, ("b", 20))]

    def test_join_with_duplicate_keys_is_cartesian_per_key(self, ctx):
        a = parallelize(ctx, [(1, "x"), (1, "y")])
        b = parallelize(ctx, [(1, 10), (1, 20)])
        result = run(ctx, a.join(b))
        assert len(result) == 4

    def test_count_action(self, ctx):
        rdd = parallelize(ctx, [(i, i) for i in range(7)])
        assert rdd.count() == 7

    def test_reduce_action(self, ctx):
        rdd = parallelize(ctx, [(i, i) for i in range(5)])
        total = rdd.reduce(lambda a, b: (0, a[1] + b[1]))
        assert total[1] == 10

    def test_reduce_by_key_shrinks_bytes_per_record(self, ctx):
        base = parallelize(ctx, [(i % 3, 1) for i in range(9)])
        reduced = base.reduce_by_key(lambda a, b: a + b)
        assert reduced.bytes_per_record < base.bytes_per_record


class TestPartitionCounts:
    @pytest.mark.parametrize("partitions", [0, -1])
    def test_parallelize_refuses_fewer_than_one_partition(self, ctx, partitions):
        with pytest.raises(SparkError, match="at least one partition"):
            parallelize(ctx, [(i, i) for i in range(4)], partitions)

    @pytest.mark.parametrize(
        "wide",
        [
            lambda rdd, n: rdd.reduce_by_key(operator.add, n),
            lambda rdd, n: rdd.group_by_key(n),
            lambda rdd, n: rdd.aggregate_by_key(0, operator.add, operator.add, n),
            lambda rdd, n: rdd.sort_by_key(num_partitions=n),
            lambda rdd, n: rdd.distinct(n),
        ],
        ids=[
            "reduce_by_key",
            "group_by_key",
            "aggregate_by_key",
            "sort_by_key",
            "distinct",
        ],
    )
    def test_wide_ops_refuse_zero_partitions_and_default_only_on_none(self, ctx, wide):
        rdd = parallelize(ctx, [(i % 3, i) for i in range(9)], partitions=3)
        with pytest.raises(ValueError, match="num_partitions must be positive"):
            wide(rdd, 0)
        assert wide(rdd, None).num_partitions == 3
        assert wide(rdd, 5).num_partitions == 5


class TestDependencies:
    def test_narrow_and_shuffle_classified(self, ctx):
        base = parallelize(ctx, [(i, i) for i in range(6)])
        mapped = base.map(lambda r: r)
        shuffled = base.group_by_key()
        assert isinstance(mapped.deps[0], NarrowDependency)
        assert isinstance(shuffled.deps[0], ShuffleDependency)

    def test_copartitioned_join_is_narrow(self, ctx):
        # §2: pre-partitioned parents need no shuffle — PageRank's links.
        grouped = parallelize(ctx, [(i % 3, i) for i in range(9)]).group_by_key()
        other = parallelize(ctx, [(i, i) for i in range(3)])
        joined = grouped.join(other)
        cogroup = joined.deps[0].parent
        assert isinstance(cogroup, CoGroupedRDD)
        kinds = [type(dep) for dep in cogroup.deps]
        assert NarrowDependency in kinds  # the grouped side
        assert ShuffleDependency in kinds  # the unpartitioned side

    def test_shuffle_ids_unique(self, ctx):
        base = parallelize(ctx, [(i, i) for i in range(4)])
        a = base.group_by_key()
        b = base.group_by_key()
        assert a.shuffle_dep.shuffle_id != b.shuffle_dep.shuffle_id

    def test_shuffled_rdd_partitioner_matches(self, ctx):
        shuffled = parallelize(ctx, [(i, i) for i in range(4)]).group_by_key(5)
        assert shuffled.partitioner == HashPartitioner(5)
        assert shuffled.num_partitions == 5


class TestLineageMemoization:
    def test_shuffle_files_written_once(self, ctx):
        base = parallelize(ctx, [(i % 2, i) for i in range(8)])
        reduced = base.reduce_by_key(lambda a, b: a + b)
        reduced.count()
        shuffle_id = reduced.shuffle_dep.shuffle_id
        assert ctx.shuffles.has(shuffle_id)
        reduced.count()  # second action reuses the files

    def test_iterative_lineage_executes_linear(self, ctx):
        rdd = parallelize(ctx, [(i % 4, 1) for i in range(16)])
        for _ in range(5):
            rdd = rdd.reduce_by_key(lambda a, b: a + b).flat_map(
                lambda r: [(r[0], r[1]), ((r[0] + 1) % 4, 0)]
            )
        result = dict(run(ctx, rdd.reduce_by_key(lambda a, b: a + b)))
        assert sum(result.values()) == 16
