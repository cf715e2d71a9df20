"""Fault-injection tests: kills converge, degradation degrades gracefully.

The headline property mirrors Spark's fault-tolerance contract: losing
any single partition (shuffle output or persisted block) at any stage
boundary must be invisible in the computed answers — lineage recovery
re-executes exactly what is needed and the action checksums match the
fault-free run.  The degradation ladder (NVM→DRAM fallback under an
exhausted NVM old space) must complete runs with counted fallbacks, not
aborts, and everything must stay byte-identical across ``--jobs``.
"""

import functools
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MiB, PolicyName
from repro.errors import FaultError
from repro.faults import (
    KILL_KINDS,
    FaultInjector,
    FaultPlan,
    FaultReport,
    KillSpec,
    ThrottleSchedule,
    ThrottleSpec,
    action_checksums,
)
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint
from repro.harness.experiment import run_experiment
from repro.spark.storage import StorageLevel
from tests.conftest import small_context


# ---------------------------------------------------------------------------
# plan validation and round-trips
# ---------------------------------------------------------------------------


class TestPlanValidation:
    def test_kill_kind_validated(self):
        with pytest.raises(FaultError):
            KillSpec("executor", 1)

    def test_kill_boundary_one_based(self):
        with pytest.raises(FaultError):
            KillSpec("shuffle", 0)

    def test_throttle_factor_is_slowdown(self):
        with pytest.raises(FaultError):
            ThrottleSpec(0, 1e9, 0.5)

    def test_throttle_duration_positive(self):
        with pytest.raises(FaultError):
            ThrottleSpec(0, 0, 2.0)

    def test_balloon_fraction_range(self):
        with pytest.raises(FaultError):
            FaultPlan(nvm_balloon_fraction=1.0)

    def test_attempts_bound_positive(self):
        with pytest.raises(FaultError):
            FaultPlan(max_recovery_attempts=0)

    def test_plan_round_trips_through_json(self):
        plan = FaultPlan(
            kills=[KillSpec("shuffle", 3, 1), KillSpec("block", 5)],
            throttles=[ThrottleSpec(1e8, 4e8, 4.0)],
            nvm_balloon_fraction=0.5,
            max_recovery_attempts=2,
            seed=9,
        )
        text = json.dumps(plan.to_dict(), sort_keys=True)
        assert FaultPlan.from_dict(json.loads(text)) == plan

    def test_report_round_trips(self):
        report = FaultReport(kills_fired=2, fallback_bytes=123.0)
        assert FaultReport.from_dict(report.to_dict()) == report

    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(7, max_boundary=10, kills=3)
        b = FaultPlan.random(7, max_boundary=10, kills=3)
        assert a == b
        assert a != FaultPlan.random(8, max_boundary=10, kills=3)
        assert all(1 <= k.at_boundary <= 10 for k in a.kills)

    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(kills=[KillSpec("block", 1)]).is_empty


class TestThrottleSchedule:
    def test_overlapping_windows_compound(self):
        schedule = ThrottleSchedule(
            [ThrottleSpec(0, 10, 2.0), ThrottleSpec(5, 10, 3.0)]
        )
        assert schedule.factor_at(2) == 2.0
        assert schedule.factor_at(7) == 6.0
        assert schedule.factor_at(12) == 3.0
        assert schedule.factor_at(20) == 1.0

    def test_apply_counts_and_stretches(self):
        schedule = ThrottleSchedule([ThrottleSpec(0, 10, 4.0)])
        assert schedule.apply(5, 100.0) == 400.0
        assert schedule.apply(50, 100.0) == 100.0
        assert schedule.throttled_batches == 1
        assert schedule.extra_ns == 300.0


# ---------------------------------------------------------------------------
# the convergence property: any single kill is invisible in the answers
# ---------------------------------------------------------------------------


def _mini_run(plan=None):
    """A small multi-stage pipeline with a persisted block and two
    shuffles — enough structure for both kill kinds to bite."""
    ctx = small_context()
    injector = FaultInjector.attach(plan, ctx) if plan is not None else None
    src = ctx.parallelize(
        [(i % 7, i) for i in range(42)], 4, 2 * MiB, name="src"
    )
    mapped = src.map(lambda r: (r[0], r[1] + 1))
    mapped.persist(StorageLevel.MEMORY_ONLY)
    summed = mapped.reduce_by_key(lambda a, b: a + b)
    results = {
        "sums": sorted(ctx.scheduler.run_action(summed, "collect")),
        "ordered": ctx.scheduler.run_action(
            summed.sort_by_key(num_partitions=2), "collect"
        ),
        "count": ctx.scheduler.run_action(mapped, "count"),
    }
    return results, (injector.report() if injector is not None else None), ctx


@functools.lru_cache(maxsize=1)
def _mini_baseline():
    """Fault-free reference: checksums plus the boundary count (probed
    with an empty plan so the injector counts without injecting)."""
    results, report, _ = _mini_run(FaultPlan())
    assert report.kills_fired == 0 and report.boundaries_seen >= 3
    return action_checksums(results), report.boundaries_seen


class TestKillConvergence:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_single_kill_converges(self, data):
        """Lose any one partition, anywhere: same answers."""
        clean_sums, boundaries = _mini_baseline()
        kill = KillSpec(
            kind=data.draw(st.sampled_from(KILL_KINDS)),
            at_boundary=data.draw(st.integers(1, boundaries)),
            partition=data.draw(st.integers(0, 7)),
        )
        results, report, ctx = _mini_run(FaultPlan(kills=[kill]))
        assert action_checksums(results) == clean_sums, kill
        assert report.kills_fired + report.kills_noop == 1
        # Recovery is lazy (demand-driven, like Spark): a kill at the
        # final boundary may destroy state nothing reads again, so
        # recomputation can legitimately be zero — but when it happened
        # it must have cost simulated time.
        if report.partitions_recomputed:
            assert report.recompute_s > 0.0
        from repro.heap.verify import verify_heap

        assert verify_heap(ctx.heap) == []

    def test_shuffle_kill_forces_map_rerun(self):
        clean_sums, _ = _mini_baseline()
        plan = FaultPlan(kills=[KillSpec("shuffle", 2, partition=1)])
        results, report, ctx = _mini_run(plan)
        assert action_checksums(results) == clean_sums
        assert report.kills_fired == 1
        assert report.partitions_recomputed >= 4  # one map stage re-ran
        assert report.recovery_attempts_max == 1

    def test_block_kill_recovers_through_lineage(self):
        clean_sums, _ = _mini_baseline()
        plan = FaultPlan(kills=[KillSpec("block", 3)])
        results, report, ctx = _mini_run(plan)
        assert action_checksums(results) == clean_sums
        assert report.kills_fired == 1
        assert ctx.block_manager.killed_count == 1
        # the killed block was rebuilt and re-registered
        assert ctx.block_manager.in_memory_bytes() > 0

    def test_kill_past_last_boundary_is_noop(self):
        clean_sums, boundaries = _mini_baseline()
        plan = FaultPlan(kills=[KillSpec("shuffle", boundaries + 50)])
        results, report, _ = _mini_run(plan)
        assert action_checksums(results) == clean_sums
        assert report.kills_fired == 0 and report.kills_noop == 0

    def test_bounded_retries_raise_fault_error(self):
        """A recovery that never restores the partition hits the retry
        bound instead of looping forever."""
        ctx = small_context()
        injector = FaultInjector.attach(
            FaultPlan(max_recovery_attempts=2), ctx
        )
        src = ctx.parallelize([(1, 1), (2, 2)], 2, MiB, name="s")
        summed = src.reduce_by_key(lambda a, b: a + b)
        ctx.scheduler.run_action(summed, "collect")
        dep = summed.deps[0]
        ctx.shuffles.invalidate(dep.shuffle_id, 0)

        class StuckScheduler:
            def _run_shuffle_map(self, dep, force=False):
                pass  # recovery that never restores anything

        with pytest.raises(FaultError):
            injector.ensure_shuffle_partition(StuckScheduler(), dep, 0)


@pytest.mark.parametrize("workload", ["PR", "KM", "LR", "TC", "CC", "SSSP", "BC"])
def test_kill_and_throttle_converge_on_every_workload(workload):
    """A shuffle kill plus an NVM throttle window changes no checksum,
    and the kill fired and was recovered (a kill that silently stops
    firing cannot pass as converged)."""
    config = paper_config(64, 1 / 3, PolicyName.PANTHERA, scale=0.02)
    clean = run_experiment(workload, config, scale=0.02)
    faulted = run_experiment(
        workload,
        config,
        scale=0.02,
        faults=FaultPlan(
            kills=[KillSpec("shuffle", 2, partition=1)],
            throttles=[ThrottleSpec(0, 2e9, 4.0)],
        ),
    )
    assert action_checksums(faulted.action_results) == action_checksums(
        clean.action_results
    )
    assert faulted.fault_report.kills_fired > 0
    assert faulted.fault_report.partitions_recomputed > 0


# ---------------------------------------------------------------------------
# degradation ladder: NVM exhaustion falls back, never silently corrupts
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def test_nvm_exhaustion_completes_with_counted_fallbacks(self):
        """A ballooned NVM old space degrades (NVM→DRAM fallback) and the
        run still finishes with correct, fault-free answers."""
        config = paper_config(32, 1 / 3, PolicyName.PANTHERA, scale=0.02)
        clean = run_experiment(
            "PR", config, scale=0.02, workload_kwargs={"iterations": 3}
        )
        faulted = run_experiment(
            "PR",
            config,
            scale=0.02,
            workload_kwargs={"iterations": 3},
            faults=FaultPlan(nvm_balloon_fraction=0.9),
        )
        report = faulted.fault_report
        assert report.balloon_bytes > 0
        assert report.fallback_events > 0
        assert report.fallback_bytes > 0
        assert action_checksums(faulted.action_results) == action_checksums(
            clean.action_results
        )

    def test_ballooned_run_satisfies_replay_oracle(self):
        """Every fallback placement is traced; replaying the stream
        reproduces the final heap exactly (live bytes conserved)."""
        from repro.trace import oracle_check
        from repro.trace.events import FALLBACK

        config = paper_config(32, 1 / 3, PolicyName.PANTHERA, scale=0.02)
        result = run_experiment(
            "PR",
            config,
            scale=0.02,
            workload_kwargs={"iterations": 3},
            keep_context=True,
            trace=True,
            faults=FaultPlan(nvm_balloon_fraction=0.9),
        )
        events = result.trace_events
        assert any(e.kind == FALLBACK for e in events)
        problems = oracle_check(
            result.context.heap, result.context.collector.stats, events
        )
        assert problems == []

    def test_balloon_ignored_without_nvm_spaces(self):
        config = paper_config(32, 1.0, PolicyName.DRAM_ONLY, scale=0.02)
        result = run_experiment(
            "PR",
            config,
            scale=0.02,
            workload_kwargs={"iterations": 3},
            faults=FaultPlan(nvm_balloon_fraction=0.9),
        )
        assert result.fault_report.balloon_bytes == 0


class TestThrottleBehaviour:
    def test_throttle_slows_but_does_not_change_answers(self):
        config = paper_config(32, 0.25, PolicyName.PANTHERA, scale=0.02)
        kwargs = dict(scale=0.02, workload_kwargs={"iterations": 3})
        clean = run_experiment("PR", config, **kwargs)
        throttled = run_experiment(
            "PR",
            config,
            faults=FaultPlan(throttles=[ThrottleSpec(0, 5e9, 8.0)]),
            **kwargs,
        )
        report = throttled.fault_report
        assert report.throttled_batches > 0
        assert report.throttle_extra_s > 0
        assert throttled.elapsed_s > clean.elapsed_s
        assert action_checksums(throttled.action_results) == action_checksums(
            clean.action_results
        )


# ---------------------------------------------------------------------------
# engine integration: fingerprints and --jobs byte-identity
# ---------------------------------------------------------------------------


def _pr_point(plan):
    config = paper_config(32, 0.25, PolicyName.PANTHERA, scale=0.02)
    return ExperimentPoint(
        "PR",
        config,
        scale=0.02,
        workload_kwargs={"iterations": 3},
        trace=True,
        faults=plan,
    )


FULL_PLAN = FaultPlan(
    kills=[KillSpec("shuffle", 3, 1), KillSpec("block", 5)],
    throttles=[ThrottleSpec(1e8, 4e8, 4.0)],
    nvm_balloon_fraction=0.5,
)


class TestEngineIntegration:
    def test_fingerprint_distinguishes_fault_plans(self):
        clean = _pr_point(None)
        faulted = _pr_point(FULL_PLAN)
        other = _pr_point(FaultPlan(kills=[KillSpec("shuffle", 4, 1)]))
        prints = {p.fingerprint() for p in (clean, faulted, other)}
        assert len(prints) == 3

    def test_injected_run_byte_identical_across_jobs(self):
        """The tentpole determinism requirement: serial and parallel
        injected runs agree on every canonical serialization."""
        from repro.trace import events_to_jsonl

        serial = ExperimentEngine(jobs=1).run([_pr_point(FULL_PLAN)])[0]
        parallel = ExperimentEngine(jobs=4).run([_pr_point(FULL_PLAN)])[0]
        assert serial.trace_events, "tracing recorded nothing"
        assert events_to_jsonl(serial.trace_events) == events_to_jsonl(
            parallel.trace_events
        )
        assert json.dumps(
            serial.fault_report.to_dict(), sort_keys=True
        ) == json.dumps(parallel.fault_report.to_dict(), sort_keys=True)
        assert action_checksums(serial.action_results) == action_checksums(
            parallel.action_results
        )
        assert serial.fault_report.kills_fired == 2

    def test_fault_report_survives_cache_round_trip(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        first = engine.run([_pr_point(FULL_PLAN)])[0]
        again = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
        second = again.run([_pr_point(FULL_PLAN)])[0]
        assert again.stats.cached == 1
        assert second.fault_report == first.fault_report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestFaultsCli:
    def _run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_kill_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = self._run(
            [
                "faults",
                "PR",
                "--scale",
                "0.02",
                "--iterations",
                "3",
                "--kill",
                "shuffle:3:1",
                "--export-report",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged" in out
        assert "kills: 1 fired" in out
        payload = json.loads(out_path.read_text())
        assert payload["converged"] is True
        assert payload["report"]["kills_fired"] == 1

    def test_empty_plan_rejected(self, capsys):
        code = self._run(["faults", "PR", "--scale", "0.02"])
        assert code == 2
        assert "empty" in capsys.readouterr().out

    def test_random_plan(self, capsys):
        code = self._run(
            [
                "faults",
                "PR",
                "--scale",
                "0.02",
                "--iterations",
                "3",
                "--random",
                "1",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_bad_kill_spec_rejected(self):
        with pytest.raises(SystemExit):
            self._run(["faults", "PR", "--kill", "executor:1"])

    def test_bad_throttle_spec_rejected(self):
        with pytest.raises(SystemExit):
            self._run(["faults", "PR", "--throttle", "1:2"])
