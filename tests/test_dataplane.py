"""Tests for the scale-sweep data plane.

Covers cached shuffle hashing (O(1) hash work on repeated shuffles) and
its exactness against the reference bucket ``_stable_hash(key) % n``
for every key type, shared record batches (alias safety and equal
answers), byte-identity of the fast bucketing with the reference
bucketing on traced + fault-injected cells and random pipelines,
dataset memoisation, the scale-sweep mechanics, and the
``bench_compare`` sweep kinds.
"""

import copy
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import PolicyName
from repro.spark import partition as _partition
from repro.spark.partition import HashPartitioner, _stable_hash
from tests.conftest import small_context
from tests.golden import corpus
from tests.test_properties_spark import DATASET, STEP, run_traced_pipeline


def _reference_partition_of(self, key):
    """The reference bucket: ``_stable_hash(key) % n``."""
    return _stable_hash(key) % self.num_partitions


def _reference_bucket_into(self, records, buckets):
    for record in records:
        buckets[_reference_partition_of(self, record[0])].append(record)
    return buckets


def _reference_split(records, n):
    """The reference bucketing: each record to ``_stable_hash(key) % n``."""
    return _reference_bucket_into(
        HashPartitioner(n), records, [[] for _ in range(n)]
    )


@contextmanager
def reference_bucketing():
    """Bucket every record to ``_stable_hash(key) % n`` — no hash cache
    and no exact-type fast paths."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HashPartitioner, "partition_of", _reference_partition_of)
        mp.setattr(HashPartitioner, "bucket_into", _reference_bucket_into)
        yield


# -- satellite: cached shuffle hashing -------------------------------------


class TestHashCache:
    def test_repeated_split_does_no_hash_work(self, monkeypatch):
        """Second shuffle of the same string keys recomputes zero hashes."""
        calls = []
        monkeypatch.setattr(
            _partition,
            "_stable_hash",
            lambda key, _real=_stable_hash: (calls.append(key), _real(key))[1],
        )
        part = HashPartitioner(4)
        records = [(f"key-{i % 50}", i) for i in range(200)]
        first = part.split(records)
        assert len(calls) == 50  # one per distinct key, not per record
        calls.clear()
        second = part.split(records)
        assert calls == []  # O(1) hash work: all hits
        assert first == second

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(_partition, "_HASH_CACHE_LIMIT", 8)
        part = HashPartitioner(4)
        part.split([(f"key-{i}", i) for i in range(100)])
        assert len(part._hash_cache) <= 8

    @pytest.mark.parametrize(
        "key",
        [1, -1, 1.0, 2.5, True, False, None, "1", "", "key", b"key",
         (1,), (1.0,), (1, 2), (-3, 7), ("a", 1), (1, 2, 3), ((1, 2), 3)],
    )
    def test_bucketing_identical_to_legacy_per_key(self, key):
        """Equal-but-differently-typed keys (1 vs 1.0 vs True) must keep
        their reference buckets: only exact-type fast paths are allowed."""
        part = HashPartitioner(7)
        reference = _stable_hash(key) % 7
        assert part.partition_of(key) == reference
        buckets = part.split([(key, "v")])
        assert buckets[reference] == [(key, "v")]

    def test_split_matches_legacy_on_mixed_keys(self):
        records = [
            (k, i)
            for i, k in enumerate(
                [0, 1, 2**40, -5, "a", "bb", "a", 3.5, None, (1, 2),
                 (2, 1), ("x", 2), True, b"raw", (7,)] * 4
            )
        ]
        assert HashPartitioner(5).split(records) == _reference_split(records, 5)

    @pytest.mark.parametrize(
        "key",
        [(True, False), (False, True), (True, 1), (1, True), (0, False)],
    )
    def test_bool_tuples_dodge_the_int_pair_fast_path(self, key):
        """bucket_into's inline 2-int-tuple path uses ``type(...) is int``
        so bool elements (a subclass of int whose reference hash path
        differs) must take the slow path and keep their reference bucket."""
        part = HashPartitioner(7)
        reference = _stable_hash(key) % 7
        assert part.partition_of(key) == reference
        buckets = part.bucket_into([(key, "v")], [[] for _ in range(7)])
        assert buckets[reference] == [(key, "v")]

    def test_non_finite_float_keys_bucket_without_raising(self):
        """Regression: ``_stable_hash`` used to raise OverflowError on
        inf (and ValueError on nan) via ``int(key * 1e6)``."""
        import math

        records = [
            (k, i)
            for i, k in enumerate(
                [math.inf, -math.inf, math.nan, 1e308, -1e308, 0.5] * 3
            )
        ]
        split = HashPartitioner(5).split(records)
        assert repr(split) == repr(_reference_split(records, 5))


MIXED_KEY = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.booleans(),
    st.floats(),  # includes nan and ±inf
    st.text(max_size=8),
    st.binary(max_size=8),
    st.none(),
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=-(2**40), max_value=2**40),
    ),
    st.tuples(st.booleans(), st.booleans()),
    st.tuples(st.text(max_size=4), st.integers()),
)


class TestMixedKeyPropertyAB:
    """Property: the partitioner's fast paths bucket any mix of key types
    exactly as the reference ``_stable_hash(key) % n``."""

    @settings(max_examples=80, deadline=None)
    @given(
        keys=st.lists(MIXED_KEY, min_size=1, max_size=40),
        n=st.integers(min_value=1, max_value=9),
    )
    def test_partition_of_and_bucket_into_agree_across_planes(self, keys, n):
        records = [(k, i) for i, k in enumerate(keys)]
        part = HashPartitioner(n)
        # repr-compare so nan keys (unequal to themselves) still match.
        assert repr(part.split(records)) == repr(_reference_split(records, n))
        for key in keys:
            assert part.partition_of(key) == _stable_hash(key) % n


# -- satellite: shared record batches --------------------------------------


class TestSharedBatches:
    def _collect_twice(self, ctx):
        rdd = ctx.parallelize(
            [(i % 5, i) for i in range(40)], 3, 2 * 2**20, name="shared-src"
        ).map(lambda r: (r[0], r[1] + 1))
        rdd.persist()
        first = ctx.scheduler.run_action(rdd, "collect")
        return rdd, first

    def test_action_result_is_not_an_alias_of_the_block(self):
        """Mutating a collect() result must not corrupt the cached block."""
        ctx = small_context(PolicyName.PANTHERA)
        rdd, first = self._collect_twice(ctx)
        baseline = list(first)
        assert sorted(baseline) == sorted((i % 5, i + 1) for i in range(40))
        first.append(("junk", -1))
        first[0] = ("junk", -2)
        second = ctx.scheduler.run_action(rdd, "collect")
        assert second == baseline

    def test_shared_and_legacy_planes_compute_equal_results(self):
        """Both collects (computed, then read from the shared cached
        block) equal the answer computed over a private deep copy of the
        input, as a copying plane would."""
        source = [(i % 5, i) for i in range(40)]
        expected = sorted((k, v + 1) for k, v in copy.deepcopy(source))
        ctx = small_context(PolicyName.PANTHERA)
        rdd, first = self._collect_twice(ctx)
        second = ctx.scheduler.run_action(rdd, "collect")
        assert sorted(first) == expected
        assert second == first


# -- byte-identity with the reference bucketing ----------------------------


class TestDataPlaneIdentity:
    @pytest.mark.parametrize("workload", ["PR", "CC"])
    def test_traced_faulted_cell_identical_either_plane(self, workload):
        """The corpus's traced, shuffle-killed s0.01 cell digests the
        same with the fast bucketing and the reference bucketing."""
        cell = corpus.Cell(workload, PolicyName.PANTHERA, corpus.PRESSURES[0])
        fast = cell.run()
        with reference_bucketing():
            reference = cell.run()
        assert fast == reference


class TestDataPlanePropertyAB:
    """Random traced (and sometimes faulted) pipelines are byte-identical
    with the fast and the reference bucketing."""

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
    def test_random_pipelines_identical_across_planes(self, records, steps, kill):
        fast = run_traced_pipeline(records, steps, kill)
        with reference_bucketing():
            reference = run_traced_pipeline(records, steps, kill)
        assert fast == reference


# -- satellite: dataset memoisation ----------------------------------------


class TestDatasetMemoisation:
    def test_same_key_returns_cached_spec(self):
        from repro.workloads import datasets

        datasets.clear_dataset_caches()
        a = datasets.pagerank_graph(scale=0.05, seed=7)
        b = datasets.pagerank_graph(scale=0.05, seed=7)
        assert a is b  # memo hit: the exact same frozen spec
        hits, misses = datasets.dataset_cache_info()["pagerank_graph"]
        assert (hits, misses) == (1, 1)

    def test_distinct_keys_generate_distinct_specs(self):
        from repro.workloads import datasets

        datasets.clear_dataset_caches()
        base = datasets.pagerank_graph(scale=0.05, seed=7)
        assert datasets.pagerank_graph(scale=0.05, seed=8) is not base
        assert datasets.pagerank_graph(scale=0.1, seed=7) is not base
        # typed=True: int and float scales stay distinct (names differ).
        by_int = datasets.pagerank_graph(scale=1, seed=7)
        by_float = datasets.pagerank_graph(scale=1.0, seed=7)
        assert by_int is not by_float
        assert by_int.name != by_float.name

    def test_clear_resets_the_memo(self):
        from repro.workloads import datasets

        datasets.clear_dataset_caches()
        datasets.pagerank_graph(scale=0.05, seed=7)
        datasets.clear_dataset_caches()
        _, misses = datasets.dataset_cache_info()["pagerank_graph"]
        assert misses == 0


# -- satellite: scale-sweep mechanics and bench_compare kinds --------------


class TestScaleSweep:
    def test_tiny_real_sweep_emits_records_and_summary(self):
        from repro.bench import run_scale_sweep

        lines = []
        records = run_scale_sweep(
            scales=(0.01, 0.02),
            cells=[("PR", PolicyName.PANTHERA)],
            log=lines.append,
        )
        assert [r["kind"] for r in records] == [
            "sweep", "sweep", "sweep_summary"
        ]
        assert records[0]["name"] == "sweep.PR.panthera.s0.01"
        assert records[1]["name"] == "sweep.PR.panthera.s0.02"
        assert all(r["wall_s"] > 0 for r in records[:2])
        assert all(r["sim_s"] > 0 for r in records[:2])
        summary = records[2]
        assert summary["name"] == "sweep.PR.panthera.linearity"
        # Base is the scale closest to 1.0 — here the top scale itself,
        # so the ratio degenerates to exactly 1.0.
        assert summary["base_scale"] == 0.02
        assert summary["top_scale"] == 0.02
        assert summary["per_record_ratio"] == pytest.approx(1.0)
        assert summary["linear"] is True
        assert len(lines) == 3

    def test_summary_flags_superlinear_growth(self, monkeypatch):
        import repro.bench as bench

        def fake_cell(workload, policy, scale):
            return {
                "name": f"sweep.{workload}.{policy.value}.s{scale:g}",
                "kind": "sweep",
                "scale": scale,
                "wall_s": scale * scale,  # quadratic wall time
                "sim_s": 1.0,
                "sim_per_wall": 1.0,
                "n_records": int(1000 * scale),
                "wall_us_per_record": scale * 1000.0,
            }

        monkeypatch.setattr(bench, "run_sweep_cell", fake_cell)
        records = bench.run_scale_sweep(
            scales=(1.0, 10.0), cells=[("PR", PolicyName.PANTHERA)]
        )
        summary = records[-1]
        assert summary["kind"] == "sweep_summary"
        assert summary["per_record_ratio"] == pytest.approx(10.0)
        assert summary["linear"] is False

    def test_summary_accepts_linear_growth(self, monkeypatch):
        import repro.bench as bench

        def fake_cell(workload, policy, scale):
            return {
                "name": f"sweep.{workload}.{policy.value}.s{scale:g}",
                "kind": "sweep",
                "scale": scale,
                "wall_s": scale,
                "sim_s": 1.0,
                "sim_per_wall": 1.0,
                "n_records": int(1000 * scale),
                "wall_us_per_record": 1.0,  # flat per-record cost
            }

        monkeypatch.setattr(bench, "run_sweep_cell", fake_cell)
        records = bench.run_scale_sweep(
            scales=(0.1, 1.0, 10.0), cells=[("CC", PolicyName.PANTHERA)]
        )
        assert records[-1]["linear"] is True
        assert records[-1]["per_record_ratio"] == pytest.approx(1.0)


class TestBenchCompareSweepKinds:
    @staticmethod
    def _doc(*benchmarks):
        return {"schema": 1, "benchmarks": list(benchmarks)}

    def test_sweep_wall_regression_flagged(self):
        from repro.bench import compare_documents

        base = self._doc(
            {"name": "sweep.PR.panthera.s10", "kind": "sweep", "wall_s": 1.0}
        )
        curr = self._doc(
            {"name": "sweep.PR.panthera.s10", "kind": "sweep", "wall_s": 1.5}
        )
        report = compare_documents(base, curr, tolerance=0.20)
        assert report.regressions == ["sweep.PR.panthera.s10"]

    def test_sweep_summary_compares_machine_independent_ratio(self):
        from repro.bench import compare_documents

        base = self._doc(
            {"name": "sweep.PR.panthera.linearity", "kind": "sweep_summary",
             "per_record_ratio": 1.0, "wall_s": 123.0}
        )
        curr = self._doc(
            {"name": "sweep.PR.panthera.linearity", "kind": "sweep_summary",
             "per_record_ratio": 1.6, "wall_s": 0.001}
        )
        report = compare_documents(base, curr, tolerance=0.20)
        assert report.regressions == ["sweep.PR.panthera.linearity"]
        improved = compare_documents(curr, base, tolerance=0.20)
        assert improved.improvements == ["sweep.PR.panthera.linearity"]
