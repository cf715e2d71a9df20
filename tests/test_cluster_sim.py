"""Tests for the multi-executor cluster simulator under live traffic.

Covers the tentpole and its oracle: seeded traffic generation, the
shared shuffle-service ownership overlay, the 1-executor byte-identity
oracle against ``run_experiment`` (gclog, trace stream, bandwidth CSV
and action checksums), hypothesis-driven report determinism across
``--jobs`` and repeated seeds, executor-kill fault composition with
lineage recovery at every stage boundary, the cluster report's metrics,
the ``repro cluster`` CLI and the ``cluster.*`` bench records.
"""

import gc
import json
import sys
import weakref

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.bench import _COMPARE_METRIC, run_cluster_bench
from repro.cli import main as cli_main
from repro.cluster import (
    Cluster,
    ClusterFaultPlan,
    Executor,
    ExecutorKill,
    JobSpec,
    ShuffleService,
    TrafficPlan,
    generate_traffic,
)
from repro.cluster.simulator import default_cluster_config
from repro.cluster.traffic import DEFAULT_WORKLOADS, TENANT_SCALE_CYCLE, tenant_scale
from repro.config import PolicyName
from repro.core.tags import MemoryTag
from repro.errors import FaultError, ReproError
from repro.faults import FaultInjector, FaultPlan, KillSpec, action_checksums
from repro.gc.gclog import render_log
from repro.gc.stats import percentile
from repro.harness.configs import paper_config
from repro.harness.experiment import execute_spec, run_experiment
from repro.harness.export import bandwidth_csv_from_machine
from repro.spark.context import SparkContext
from repro.spark.shuffle import ShuffleManager
from repro.workloads.registry import build_workload

SCALE = 0.02


def one_job_plan(workload="PR", scale=SCALE, arrival_s=0.0):
    """A single-job traffic plan (the fault-composition fixture)."""
    return TrafficPlan(
        jobs=(JobSpec(0, arrival_s, 0, workload, scale),),
        seed=0,
        rate_jobs_per_s=1.0,
        duration_s=max(arrival_s, 1.0),
    )


# -- traffic generation ----------------------------------------------------


class TestTrafficGenerator:
    def test_same_seed_same_plan(self):
        a = generate_traffic(seed=42, duration_s=50.0, rate_jobs_per_s=0.4)
        b = generate_traffic(seed=42, duration_s=50.0, rate_jobs_per_s=0.4)
        assert a.to_dict() == b.to_dict()

    def test_different_seed_different_plan(self):
        a = generate_traffic(seed=1, duration_s=50.0, rate_jobs_per_s=0.4)
        b = generate_traffic(seed=2, duration_s=50.0, rate_jobs_per_s=0.4)
        assert a.to_dict() != b.to_dict()

    def test_roundtrip(self):
        plan = generate_traffic(
            seed=9, duration_s=40.0, rate_jobs_per_s=0.3, iterations=2
        )
        assert TrafficPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_arrivals_sorted_within_horizon(self):
        plan = generate_traffic(seed=5, duration_s=30.0, rate_jobs_per_s=0.5)
        arrivals = [j.arrival_s for j in plan.jobs]
        assert arrivals == sorted(arrivals)
        assert all(0.0 < t < 30.0 for t in arrivals)
        assert [j.job_id for j in plan.jobs] == list(range(len(plan.jobs)))

    def test_diurnal_thinning_generates_fewer_jobs_than_peak(self):
        poisson = generate_traffic(
            seed=3, duration_s=200.0, rate_jobs_per_s=0.5
        )
        diurnal = generate_traffic(
            seed=3, duration_s=200.0, rate_jobs_per_s=0.5, process="diurnal"
        )
        assert not diurnal.is_empty
        # Thinning preserves the mean rate to first order.
        assert len(diurnal.jobs) == pytest.approx(len(poisson.jobs), rel=0.5)

    def test_tenant_scales_follow_cycle(self):
        plan = generate_traffic(seed=8, duration_s=60.0, rate_jobs_per_s=0.5)
        for job in plan.jobs:
            assert job.scale == tenant_scale(job.tenant, plan.base_scale)
        assert tenant_scale(0, 1.0) == TENANT_SCALE_CYCLE[0]
        assert tenant_scale(4, 1.0) == TENANT_SCALE_CYCLE[0]

    def test_tenant_submission_shares_are_skewed(self):
        plan = generate_traffic(
            seed=13, duration_s=2000.0, rate_jobs_per_s=0.5, tenants=4
        )
        counts = [0] * 4
        for job in plan.jobs:
            counts[job.tenant] += 1
        assert counts[0] > counts[3]

    def test_max_jobs_cap(self):
        plan = generate_traffic(
            seed=1, duration_s=1000.0, rate_jobs_per_s=1.0, max_jobs=5
        )
        assert len(plan.jobs) == 5

    def test_validation(self):
        with pytest.raises(ReproError):
            generate_traffic(seed=0, duration_s=0.0)
        with pytest.raises(ReproError):
            generate_traffic(seed=0, rate_jobs_per_s=0.0)
        with pytest.raises(ReproError):
            generate_traffic(seed=0, tenants=0)
        with pytest.raises(ReproError):
            generate_traffic(seed=0, process="bursty")
        with pytest.raises(ReproError):
            generate_traffic(seed=0, diurnal_amplitude=1.0)
        with pytest.raises(ReproError):
            generate_traffic(seed=0, workloads=[])


# -- shuffle service -------------------------------------------------------


class TestShuffleService:
    def test_single_executor_owns_everything(self):
        service = ShuffleService(1)
        assert all(
            service.owner_of(o, p) == 0 for o in range(5) for p in range(7)
        )

    def test_ownership_stripes_across_executors(self):
        service = ShuffleService(3)
        owners = {service.owner_of(0, p) for p in range(6)}
        assert owners == {0, 1, 2}
        # Pure function: same inputs, same owner, on any instance.
        other = ShuffleService(3)
        assert all(
            service.owner_of(o, p) == other.owner_of(o, p)
            for o in range(4)
            for p in range(8)
        )

    def test_hop_cost_latency_plus_wire_time(self):
        service = ShuffleService(2)
        assert service.hop_ns(0.0) == pytest.approx(2e5)
        one_gib = service.hop_ns(1024.0**3) - service.hop_ns(0.0)
        # 1 GiB over 10 Gb/s-as-GiB/s-decimal: 0.1 s of wire time.
        assert one_gib == pytest.approx(0.1e9)


# -- cluster fault plans ---------------------------------------------------


class TestClusterFaultPlan:
    def test_roundtrip(self):
        plan = ClusterFaultPlan(
            kills=[ExecutorKill(1, 2), ExecutorKill(0, 3, job_id=4)],
            max_recovery_attempts=2,
            seed=9,
        )
        assert ClusterFaultPlan.from_dict(plan.to_dict()).to_dict() == plan.to_dict()

    def test_kills_for_job_filters_pinned_kills(self):
        plan = ClusterFaultPlan(
            kills=[ExecutorKill(0, 1), ExecutorKill(1, 2, job_id=3)]
        )
        assert len(plan.kills_for_job(3)) == 2
        assert len(plan.kills_for_job(0)) == 1

    def test_random_is_seeded_and_bounded(self):
        a = ClusterFaultPlan.random(7, executors=4, max_boundary=5, kills=6)
        b = ClusterFaultPlan.random(7, executors=4, max_boundary=5, kills=6)
        assert a.to_dict() == b.to_dict()
        for kill in a.kills:
            assert 0 <= kill.executor < 4
            assert 1 <= kill.at_boundary <= 5

    def test_validation(self):
        with pytest.raises(FaultError):
            ExecutorKill(-1, 1)
        with pytest.raises(FaultError):
            ExecutorKill(0, 0)
        with pytest.raises(FaultError):
            ClusterFaultPlan(max_recovery_attempts=0)
        with pytest.raises(FaultError):
            ClusterFaultPlan.random(0, executors=0, max_boundary=1)


# -- the 1-executor oracle -------------------------------------------------


class TestSingleExecutorOracle:
    """A 1-executor cluster job is byte-identical to run_experiment —
    the cluster path is a strict generalisation, not a fork."""

    @pytest.fixture(scope="class")
    def pair(self):
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        executor = Executor(0, ShuffleService(1), config)
        record, artifacts = executor.run_job(
            JobSpec(0, 0.0, 0, "PR", SCALE), keep_artifacts=True
        )
        reference = run_experiment(
            "PR",
            paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE),
            scale=SCALE,
            keep_context=True,
            trace=True,
        )
        return record, artifacts, reference

    def test_action_checksums_identical(self, pair):
        record, _, reference = pair
        assert record.checksums == action_checksums(reference.action_results)

    def test_gclog_byte_identical(self, pair):
        _, artifacts, reference = pair
        expected = render_log(
            reference.context.collector.stats, reference.elapsed_s
        )
        assert artifacts.gclog == expected

    def test_trace_stream_identical(self, pair):
        _, artifacts, reference = pair
        assert artifacts.trace_events == reference.trace_events

    def test_bandwidth_series_byte_identical(self, pair):
        _, artifacts, reference = pair
        assert artifacts.bandwidth_csv == bandwidth_csv_from_machine(
            reference.context.machine
        )

    def test_scalar_metrics_identical(self, pair):
        record, _, reference = pair
        assert record.exec_s == reference.elapsed_s
        assert record.gc_s == pytest.approx(reference.gc_s, abs=1e-12)
        assert record.minor_gcs == reference.minor_gcs
        assert record.major_gcs == reference.major_gcs
        assert record.remote_fetches == 0
        assert record.net_s == 0.0

    def test_executor_reusable_after_cleanup(self):
        """Inter-job block cleanup keeps a lane viable across jobs."""
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        executor = Executor(0, ShuffleService(1), config)
        first, _ = executor.run_job(JobSpec(0, 0.0, 0, "PR", SCALE))
        second, _ = executor.run_job(JobSpec(1, 0.0, 0, "PR", SCALE))
        assert second.checksums == first.checksums
        assert second.wait_s == pytest.approx(first.exec_s)


# -- executor state across jobs -------------------------------------------


class TestBoundedExecutorState:
    """An executor ends each job holding nothing of it: its blocks,
    RDDs, their propagated tags and lifetime classes, and its shuffle
    outputs are released, and they free by reference counting."""

    JOBS = (
        (JobSpec(0, 0.0, 0, "PR", SCALE), ()),
        (JobSpec(1, 0.0, 0, "KM", SCALE), ()),
        (JobSpec(2, 0.0, 0, "PR", SCALE), (ExecutorKill(1, 2),)),
        (JobSpec(3, 0.0, 0, "CC", SCALE), ()),
    )

    @pytest.mark.parametrize("policy", [PolicyName.PANTHERA, PolicyName.DECA])
    def test_each_job_ends_holding_nothing_of_it(self, policy, monkeypatch):
        registered, written = [], []
        register, write = SparkContext.register_rdd, ShuffleManager.write

        def spy_register(ctx, rdd):
            registered.append(weakref.ref(rdd))
            register(ctx, rdd)

        def spy_write(manager, shuffle_id, buckets, *args, **kwargs):
            written.append((shuffle_id, buckets))
            write(manager, shuffle_id, buckets, *args, **kwargs)

        monkeypatch.setattr(SparkContext, "register_rdd", spy_register)
        monkeypatch.setattr(ShuffleManager, "write", spy_write)
        executor = Executor(
            0, ShuffleService(2), paper_config(64, 1 / 3, policy, SCALE)
        )
        ctx = executor.ctx
        kills = 0
        for job, job_kills in self.JOBS:
            registered.clear()
            written.clear()
            gc.disable()
            try:
                record, _ = executor.run_job(job, kills=job_kills)
                # Freed by refcount: nothing but this test holds the
                # job's last RDD or a bucket list it wrote.
                assert registered[-1]() is None
                shuffle_id, buckets = written.pop()
                assert sys.getrefcount(buckets) == 2
                del buckets
            finally:
                gc.enable()
            kills += record.kills_fired
            sources = {source.id for _, source in ctx._sources.values()}
            assert sources and set(ctx._rdds) == sources
            assert set(ctx.scheduler.runtime_tags) <= sources
            if ctx.heap.regions is not None:
                assert set(ctx.heap.regions._classes) <= sources
            assert ctx.block_manager.blocks() == []
            assert not ctx.shuffles.has(shuffle_id)
            assert ctx.shuffles._outputs == {} and ctx.shuffles._sizes == {}
            assert ctx.shuffles._lost == {}
        assert kills > 0
        assert executor.jobs_run == len(self.JOBS)

    def test_source_tags_survive_the_job(self):
        """A source's propagated tag is cross-job state: the next job's
        propagation merges into it."""
        executor = Executor(
            0,
            ShuffleService(1),
            paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE),
        )
        executor.run_job(JobSpec(0, 0.0, 0, "KM", SCALE))
        ctx = executor.ctx
        [(_, source)] = ctx._sources.values()
        assert ctx.scheduler.runtime_tags == {source.id: MemoryTag.DRAM}


# -- report determinism (hypothesis) ---------------------------------------


class TestReportDeterminism:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.2, max_value=0.6),
        process=st.sampled_from(["poisson", "diurnal"]),
        tenants=st.integers(min_value=1, max_value=4),
    )
    def test_report_identical_across_jobs_and_repeats(
        self, seed, rate, process, tenants
    ):
        """Random seeded traffic: serial, parallel and repeated runs
        produce byte-identical reports."""
        plan = generate_traffic(
            seed=seed,
            duration_s=30.0,
            rate_jobs_per_s=rate,
            process=process,
            tenants=tenants,
            base_scale=0.01,
            iterations=2,
            max_jobs=3,
        )
        assume(not plan.is_empty)
        serial = Cluster(2).run(plan)[0].to_json()
        parallel = Cluster(2).run(plan, jobs=4)[0].to_json()
        repeat = Cluster(2).run(plan)[0].to_json()
        assert serial == parallel
        assert serial == repeat


# -- fault composition -----------------------------------------------------


class TestFaultComposition:
    @pytest.fixture(scope="class")
    def clean(self):
        report, _ = Cluster(2).run(one_job_plan())
        return report

    def test_kill_at_every_boundary_converges(self, clean):
        """An executor kill at each stage boundary of a PageRank job
        always recovers through lineage to the same action checksums."""
        baseline = clean.jobs[0].checksums
        boundaries = clean.jobs[0].boundaries
        assert boundaries > 0
        for boundary in range(1, boundaries + 1):
            faults = ClusterFaultPlan(
                kills=[ExecutorKill(executor=1, at_boundary=boundary)]
            )
            report, _ = Cluster(2).run(one_job_plan(), faults=faults)
            job = report.jobs[0]
            assert job.checksums == baseline, f"diverged at boundary {boundary}"
            assert job.kills_fired == 1
            assert job.partitions_lost > 0
            assert job.partitions_recomputed > 0

    def test_recovery_visible_as_recompute_trace_events(self, clean):
        """The surviving executor announces each lineage recovery on
        its trace bus."""
        faults = ClusterFaultPlan(kills=[ExecutorKill(executor=1, at_boundary=3)])
        report, artifacts = Cluster(2).run(
            one_job_plan(), faults=faults, keep_artifacts=True
        )
        recomputes = [
            e for e in artifacts[0].trace_events if e.kind == "recompute"
        ]
        assert recomputes
        assert report.jobs[0].recompute_s > 0.0
        assert report.jobs[0].checksums == clean.jobs[0].checksums

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=st.data())
    def test_seeded_random_kill_plans_converge(self, case):
        """Random multi-workload plans under random executor kills
        recover every job to its fault-free checksums, and the faulted
        report is byte-identical serial and parallel."""
        workloads = case.draw(
            st.lists(st.sampled_from(DEFAULT_WORKLOADS), min_size=2, max_size=3)
        )
        executors = case.draw(st.integers(min_value=2, max_value=3))
        kill = st.builds(
            ExecutorKill,
            executor=st.integers(min_value=0, max_value=executors - 1),
            at_boundary=st.integers(min_value=1, max_value=20),
            job_id=st.none() | st.integers(0, len(workloads) - 1),
        )
        faults = ClusterFaultPlan(
            kills=case.draw(st.lists(kill, min_size=1, max_size=4))
        )
        plan = TrafficPlan(
            jobs=tuple(
                JobSpec(job_id, 0.0, 0, workload, SCALE)
                for job_id, workload in enumerate(workloads)
            ),
            seed=0,
            rate_jobs_per_s=1.0,
            duration_s=1.0,
        )
        clean, _ = Cluster(executors).run(plan)
        serial, _ = Cluster(executors).run(plan, faults=faults)
        parallel, _ = Cluster(executors).run(plan, faults=faults, jobs=2)
        assert [j.checksums for j in serial.jobs] == [
            j.checksums for j in clean.jobs
        ]
        assert serial.to_json() == parallel.to_json()

    def test_executor_kills_count_in_the_injector_report(self):
        """Executor kills armed beside a plan's kill fire from the same
        boundary loop and count once each in the injector's report."""
        executor = Executor(
            0,
            ShuffleService(2),
            paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE),
        )
        injector = FaultInjector.attach(
            FaultPlan(kills=[KillSpec("shuffle", 2)]),
            executor.ctx,
            executor_kills=[
                ExecutorKill(executor=1, at_boundary=2),
                ExecutorKill(executor=1, at_boundary=10_000),
            ],
        )
        execute_spec(build_workload("PR", scale=SCALE), executor.ctx)
        report = injector.report()
        assert report.kills_planned == 3
        assert report.kills_fired == 2
        assert report.kills_noop == 0
        assert injector.partitions_lost > 1

    def test_executor_kill_needs_a_cluster(self):
        """An executor kill armed on a standalone context is refused
        before anything is installed or charged."""
        ctx = SparkContext.create(
            paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        )
        with pytest.raises(FaultError, match="cluster executor"):
            FaultInjector.attach(
                FaultPlan(nvm_balloon_fraction=0.5),
                ctx,
                executor_kills=[ExecutorKill(executor=0, at_boundary=1)],
            )
        assert ctx.faults is None
        assert ctx.machine.clock.now_ns == 0.0
        assert ctx.machine.energy_j() == 0.0
        assert ctx.heap.pinned_old_bytes == 0

    def test_fault_free_plan_is_byte_neutral(self, clean):
        """Running under an empty fault plan changes nothing."""
        report, _ = Cluster(2).run(one_job_plan(), faults=ClusterFaultPlan())
        assert report.to_json() == clean.to_json()

    @pytest.mark.parametrize("workload", DEFAULT_WORKLOADS)
    def test_traffic_replay_per_workload(self, workload):
        """A 3-job seeded plan on two executors replays byte-identically
        and an executor kill converges job by job, having fired and
        recomputed something."""
        plan = generate_traffic(
            seed=11,
            duration_s=30.0,
            rate_jobs_per_s=0.3,
            workloads=[workload],
            base_scale=SCALE,
            max_jobs=3,
        )
        clean, _ = Cluster(2).run(plan)
        repeat, _ = Cluster(2).run(plan, jobs=2)
        assert repeat.to_json() == clean.to_json()
        faults = ClusterFaultPlan(kills=[ExecutorKill(1, 2)])
        faulted, _ = Cluster(2).run(plan, faults=faults, jobs=2)
        assert [j.checksums for j in faulted.jobs] == [
            j.checksums for j in clean.jobs
        ]
        assert faulted.faults["kills_fired"] > 0
        assert faulted.faults["partitions_recomputed"] > 0


# -- the report ------------------------------------------------------------


class TestClusterReport:
    @pytest.fixture(scope="class")
    def report(self):
        plan = generate_traffic(
            seed=7,
            duration_s=30.0,
            rate_jobs_per_s=0.3,
            base_scale=SCALE,
            max_jobs=6,
        )
        return Cluster(4).run(plan)[0]

    def test_percentile_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.99) == 5.0
        assert percentile([], 0.5) == 0.0

    def test_throughput_and_latency(self, report):
        assert report.n_jobs == 6
        assert report.throughput_jobs_per_s == pytest.approx(
            report.n_jobs / report.makespan_s
        )
        assert 0.0 < report.latency_p50_s <= report.latency_p99_s
        latencies = sorted(j.latency_s for j in report.jobs)
        assert report.latency_p99_s == latencies[-1]

    def test_tenant_utilisation_shares_sum_to_one(self, report):
        assert report.tenants
        assert sum(t["dram_share"] for t in report.tenants.values()) == (
            pytest.approx(1.0)
        )
        assert sum(t["nvm_share"] for t in report.tenants.values()) == (
            pytest.approx(1.0)
        )
        assert sum(t["jobs"] for t in report.tenants.values()) == report.n_jobs

    def test_remote_fetches_happen_on_a_real_cluster(self, report):
        assert report.service["remote_fetches"] > 0
        assert report.service["net_s"] > 0.0

    def test_per_job_latency_decomposition(self, report):
        for job in report.jobs:
            assert job.latency_s == pytest.approx(job.wait_s + job.exec_s)
            assert job.wait_s >= 0.0
            assert job.finish_s > job.arrival_s

    def test_summary_lines_name_the_headline_metrics(self, report):
        text = "\n".join(report.summary_lines())
        assert "throughput" in text
        assert "p50" in text and "p99" in text
        assert "tenant" in text
        assert "executor" in text

    def test_json_roundtrip(self, report):
        payload = json.loads(report.to_json())
        assert payload["executors"] == 4
        assert len(payload["jobs"]) == report.n_jobs

    def test_default_config_sized_for_largest_job(self):
        plan = generate_traffic(
            seed=7, duration_s=30.0, rate_jobs_per_s=0.3, base_scale=SCALE
        )
        config = default_cluster_config(plan)
        biggest = max(j.scale for j in plan.jobs)
        assert config.heap_bytes == paper_config(
            64, 1 / 3, PolicyName.PANTHERA, biggest
        ).heap_bytes

    def test_cluster_validation(self):
        with pytest.raises(ReproError):
            Cluster(0)
        with pytest.raises(ReproError):
            Cluster(2).run(TrafficPlan())


# -- CLI and bench ---------------------------------------------------------


class TestClusterCli:
    ARGS = (
        "cluster",
        "--executors",
        "2",
        "--seed",
        "3",
        "--duration",
        "20",
        "--rate",
        "0.4",
        "--max-jobs",
        "2",
        "--scale",
        "0.01",
        "--iterations",
        "2",
    )

    def test_reports_headline_metrics(self, capsys):
        code = cli_main(list(self.ARGS))
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "p50" in out and "p99" in out
        assert "tenant" in out

    def test_kill_and_export_json(self, capsys, tmp_path):
        path = tmp_path / "cluster.json"
        code = cli_main(
            list(self.ARGS)
            + ["--kill-executor", "1:2", "--export-json", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "kill executor 1" in out
        payload = json.loads(path.read_text())
        assert payload["executors"] == 2
        assert payload["fault_plan"]["kills"] == [
            {"executor": 1, "at_boundary": 2}
        ]

    def test_parallel_jobs_flag(self, capsys):
        code = cli_main(list(self.ARGS) + ["--jobs", "2"])
        assert code == 0


class TestClusterBench:
    def test_compare_metric_registered(self):
        assert _COMPARE_METRIC["cluster"] == "wall_s"

    def test_cluster_bench_record_shape(self):
        record = run_cluster_bench("e2", 2, 2, rounds=1)
        assert record["kind"] == "cluster"
        assert record["name"] == "cluster.mix.e2"
        assert record["executors"] == 2
        assert record["wall_s"] > 0.0
        assert record["throughput_jobs_per_s"] > 0.0
        assert record["latency_p99_s"] > 0.0
