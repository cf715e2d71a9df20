"""Tests for SparkContext wiring and the mutator cost-model helpers."""

import pytest

from repro.config import DeviceKind, MiB, PolicyName
from repro.spark import costmodel
from repro.workloads.datasets import powerlaw_graph
from tests.conftest import small_config, small_context


class TestMutatorCosts:
    def test_array_bytes_share(self):
        assert costmodel.array_bytes_for(10 * MiB) == pytest.approx(
            10 * MiB * costmodel.ARRAY_SHARE
        )

    def test_array_bytes_floor(self):
        assert costmodel.array_bytes_for(10) == 512

    def test_hash_probes(self):
        assert costmodel.hash_probes_for(costmodel.HASH_GRAIN_BYTES * 10) == 10
        assert costmodel.hash_probes_for(0) == 0


class TestSparkContextWiring:
    def test_sources_cached_by_dataset_name(self):
        ctx = small_context()
        ds = powerlaw_graph("cache-me", 20, 60, total_bytes=MiB)
        a = ctx.source_rdd(ds)
        b = ctx.source_rdd(ds)
        assert a is b

    def test_different_datasets_not_conflated(self):
        ctx = small_context()
        a = ctx.source_rdd(powerlaw_graph("x", 20, 60, total_bytes=MiB))
        b = ctx.source_rdd(powerlaw_graph("y", 20, 60, total_bytes=MiB))
        assert a is not b

    def test_same_name_datasets_not_conflated(self):
        ctx = small_context()
        big = powerlaw_graph("x", 30, 80, total_bytes=MiB)
        small = powerlaw_graph("x", 20, 50, total_bytes=MiB)
        pairs = ctx.source_rdd(big).cogroup(ctx.source_rdd(small)).collect()
        assert sum(len(left) for _, (left, _) in pairs) == len(big.records)
        assert sum(len(right) for _, (_, right) in pairs) == len(small.records)

    def test_rdd_ids_unique_and_registered(self):
        ctx = small_context()
        rdds = [
            ctx.parallelize([(1, 1)], 1, MiB, name=f"r{i}") for i in range(5)
        ]
        ids = {r.id for r in rdds}
        assert len(ids) == 5
        for rdd in rdds:
            assert ctx.rdd_by_id(rdd.id) is rdd

    def test_runtime_only_under_panthera(self):
        assert small_context(PolicyName.PANTHERA).runtime is not None
        for policy in PolicyName:
            if policy is not PolicyName.PANTHERA:
                assert small_context(policy).runtime is None, policy

    def test_monitor_only_under_panthera(self):
        assert small_context(PolicyName.PANTHERA).monitor is not None
        assert small_context(PolicyName.DRAM_ONLY).monitor is None

    def test_on_rdd_call_gated_by_persistence(self):
        ctx = small_context(PolicyName.PANTHERA)
        plain = ctx.parallelize([(1, 1)], 1, MiB, name="plain")
        before = ctx.monitor.total_calls
        ctx.on_rdd_call(plain)  # not persisted, not cached: ignored
        assert ctx.monitor.total_calls == before
        plain.persist()
        assert ctx.monitor.total_calls == before + 1  # persist() itself counts
        ctx.on_rdd_call(plain)
        assert ctx.monitor.total_calls == before + 2

    def test_custom_policy_injection(self):
        from repro.gc.policies import DramOnlyPolicy
        from repro.spark.context import SparkContext

        config = small_config(PolicyName.DRAM_ONLY)
        custom = DramOnlyPolicy(config)
        ctx = SparkContext.create(config, policy=custom)
        assert ctx.policy is custom

    def test_layout_only_policy_computes_the_dram_only_answers(self):
        """A policy that defines only its old-generation layout takes
        every other decision from the defaults, and runs."""
        from repro.faults import action_checksums
        from repro.gc.policies import DramOnlyPolicy, PlacementPolicy
        from repro.harness.configs import paper_config
        from repro.harness.experiment import execute_spec
        from repro.heap.spaces import Space
        from repro.spark.context import SparkContext
        from repro.workloads.registry import build_workload

        class AllNvm(PlacementPolicy):
            def build_old_spaces(self, base):
                size = self.config.old_gen_bytes
                return [Space("old", base, size, "old", device=DeviceKind.NVM)]

        def checksums(policy_cls, name):
            config = paper_config(64, 1 / 3, name, 0.01)
            ctx = SparkContext.create(config, policy=policy_cls(config))
            spec = build_workload("PR", scale=0.01, iterations=2)
            results, analysis = execute_spec(spec, ctx)
            assert analysis is None and ctx.runtime is None
            old = ctx.heap.old_space_named("old")
            return action_checksums(results), old.device, old.used > 0

        answers, device, used = checksums(AllNvm, PolicyName.UNMANAGED)
        assert device is DeviceKind.NVM and used
        assert answers == checksums(DramOnlyPolicy, PolicyName.DRAM_ONLY)[0]
