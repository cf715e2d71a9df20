"""The trace-replay oracle as a test oracle: random-program property
tests, workload-level checks, dynamic-migration invariants and the
``--jobs 1`` vs ``--jobs 4`` determinism regression."""

import pytest
from hypothesis import given, settings

from repro.config import PolicyName
from repro.core.tags import MemoryTag
from repro.faults import FaultPlan, KillSpec, ThrottleSpec
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint
from repro.harness.experiment import run_experiment
from repro.trace import (
    TraceSession,
    events_to_jsonl,
    heap_live_bytes,
    oracle_check,
    replay_events,
)
from repro.trace.events import (
    FALLBACK,
    FREE,
    MIGRATE_DRAM_TO_NVM,
    MIGRATE_KINDS,
    MIGRATE_NVM_TO_DRAM,
)
from tests.conftest import make_stack
from tests.test_properties_gc import OPERATIONS, apply_ops

SCALE = 0.02
YOUNG_SPACES = {"eden", "survivor-from", "survivor-to"}


# -- satellite: the oracle on random workload programs -----------------------


@pytest.mark.parametrize(
    "policy", [PolicyName.PANTHERA, PolicyName.UNMANAGED]
)
@settings(max_examples=55, deadline=None)
@given(ops=OPERATIONS)
def test_oracle_on_random_programs(policy, ops):
    """Replaying the trace of any random op sequence reconstructs the
    heap's live bytes per space and the pause list exactly."""
    stack = make_stack(policy)
    session = TraceSession.attach(stack.heap, stack.collector.stats)
    apply_ops(stack, ops)
    assert session.check() == []


@settings(max_examples=25, deadline=None)
@given(ops=OPERATIONS)
def test_replay_totals_match_alloc_minus_free(ops):
    """The replayed total equals traced allocations minus traced frees —
    moves (copies, promotions, migrations) never create or lose bytes."""
    stack = make_stack(PolicyName.PANTHERA)
    session = TraceSession.attach(stack.heap, stack.collector.stats)
    apply_ops(stack, ops)
    state = replay_events(session.events)
    allocated = sum(e.size for e in session.events if e.kind == "alloc")
    freed = sum(e.size for e in session.events if e.kind == FREE)
    assert state.total_live_bytes() == int(allocated - freed)


# -- satellite: the oracle on the real workloads -----------------------------


TIER1_WORKLOADS = ["PR", "KM", "LR", "TC", "CC", "SSSP", "BC"]
#: A shuffle kill, a 4x NVM throttle and a 30% NVM balloon: recompute and
#: throttle events and the balloon's allocation enter the replayed stream.
#: A 30% balloon leaves every placement its intended space, so no
#: ``fallback`` event does; :data:`FALLBACK_BALLOONS` covers those.
SMOKE_FAULTS = FaultPlan(
    kills=[KillSpec("shuffle", 2, partition=1)],
    throttles=[ThrottleSpec(0, 2e9, 4.0)],
    nvm_balloon_fraction=0.3,
)
#: Balloons that exhaust the NVM old space enough for placements to fall
#: back to DRAM (the degradation ladder's first rung) at :data:`SCALE`;
#: at these fractions KM, LR and BC abort with a ``GCError`` instead.
FALLBACK_BALLOONS = {"PR": 0.9, "TC": 0.7}


def _assert_oracle(workload, faults=None, trace=True):
    config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
    result = run_experiment(
        workload,
        config,
        scale=SCALE,
        keep_context=True,
        trace=trace,
        faults=faults,
    )
    if trace:
        ctx = result.context
        assert result.trace_events, "tracing recorded nothing"
        assert (
            oracle_check(ctx.heap, ctx.collector.stats, result.trace_events) == []
        )
    return result


@pytest.mark.parametrize("workload", TIER1_WORKLOADS)
def test_oracle_on_tier1_workloads(workload):
    _assert_oracle(workload)


@pytest.mark.parametrize("workload", TIER1_WORKLOADS)
def test_oracle_on_faulted_tier1_workloads(workload):
    _assert_oracle(workload, SMOKE_FAULTS)


@pytest.mark.parametrize("workload", sorted(FALLBACK_BALLOONS))
def test_oracle_replays_fallback_placements(workload):
    """Fallback placements are traced and replayed, and each is charged
    where it happened: the traced run, which settles the charge queue at
    every event, ends where the untraced one does."""
    faults = FaultPlan(
        kills=SMOKE_FAULTS.kills,
        throttles=SMOKE_FAULTS.throttles,
        nvm_balloon_fraction=FALLBACK_BALLOONS[workload],
    )
    traced = _assert_oracle(workload, faults)
    assert traced.fault_report.fallback_events > 0
    assert FALLBACK in {event.kind for event in traced.trace_events}
    untraced = _assert_oracle(workload, faults, trace=False)
    assert repr(untraced.elapsed_s) == repr(traced.elapsed_s)
    assert untraced.fault_report == traced.fault_report


# -- satellite: dynamic-migration invariants ---------------------------------


def _hot_nvm_stack():
    """Three rooted NVM-placed RDD arrays, aged one full cycle, then
    reported hot — the §4.2.2 recipe that forces NVM -> DRAM moves."""
    stack = make_stack(PolicyName.PANTHERA)
    heap = stack.heap
    session = TraceSession.attach(heap, stack.collector.stats)
    for i in range(3):
        heap.tag_wait.arm(MemoryTag.NVM)
        heap.add_root(heap.allocate_rdd_array(256 * 1024, rdd_id=10 + i))
    stack.collector.collect_major()  # survivors age to 1
    for i in range(3):
        for _ in range(5):  # >= HOT_CALL_THRESHOLD
            stack.monitor.record_call(10 + i)
    before = sum(heap_live_bytes(heap).values())
    stack.collector.collect_major()  # reassessment migrates NVM -> DRAM
    return stack, session, before


def test_forced_migration_emits_nvm_to_dram_events():
    _, session, _ = _hot_nvm_stack()
    migrations = [e for e in session.events if e.kind in MIGRATE_KINDS]
    assert migrations, "the hot-RDD recipe produced no migrations"
    assert all(e.kind == MIGRATE_NVM_TO_DRAM for e in migrations)


def test_migrations_cross_the_device_boundary_exactly_once():
    _, session, _ = _hot_nvm_stack()
    moved = set()
    for event in session.events:
        if event.kind not in MIGRATE_KINDS:
            continue
        # Each move crosses DRAM<->NVM: source and destination devices
        # are distinct and together cover both sides.
        assert {event.src_device, event.device} == {"dram", "nvm"}
        expected = (
            MIGRATE_NVM_TO_DRAM
            if event.device == "dram"
            else MIGRATE_DRAM_TO_NVM
        )
        assert event.kind == expected
        assert event.oid not in moved, "object migrated twice in one run"
        moved.add(event.oid)


def test_migrations_never_originate_in_the_young_generation():
    _, session, _ = _hot_nvm_stack()
    for event in session.events:
        if event.kind in MIGRATE_KINDS:
            assert event.src_space not in YOUNG_SPACES
            assert event.space not in YOUNG_SPACES


def test_migrating_major_gc_conserves_live_bytes():
    stack, session, before = _hot_nvm_stack()
    after = sum(heap_live_bytes(stack.heap).values())
    assert after == before  # every object was rooted: nothing may die
    assert session.check() == []


def test_cold_dram_arrays_migrate_to_nvm():
    stack = make_stack(PolicyName.PANTHERA)
    heap = stack.heap
    session = TraceSession.attach(heap, stack.collector.stats)
    heap.tag_wait.arm(MemoryTag.DRAM)
    heap.add_root(heap.allocate_rdd_array(256 * 1024, rdd_id=42))
    stack.collector.collect_major()  # ages to 1, resets the monitor
    for _ in range(4):  # MIN_COLD_CYCLE_MINORS of zero calls
        stack.collector.collect_minor()
    stack.collector.collect_major()
    migrations = [e for e in session.events if e.kind in MIGRATE_KINDS]
    assert migrations and all(
        e.kind == MIGRATE_DRAM_TO_NVM and e.src_space == "old-dram"
        for e in migrations
    )
    assert session.check() == []


def test_real_workload_migrations_respect_invariants():
    """Whatever migrations a real run produces obey the same rules."""
    config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
    result = run_experiment("KM", config, scale=SCALE, trace=True)
    for event in result.trace_events:
        if event.kind in MIGRATE_KINDS:
            assert {event.src_device, event.device} == {"dram", "nvm"}
            assert event.src_space not in YOUNG_SPACES


# -- satellite: serial vs parallel determinism -------------------------------


def _pr_points():
    return [
        ExperimentPoint(
            "PR",
            paper_config(64, 1 / 3, policy, SCALE),
            SCALE,
            workload_kwargs={"iterations": 2},
            trace=True,
        )
        for policy in (PolicyName.DRAM_ONLY, PolicyName.PANTHERA)
    ]


def test_trace_events_byte_identical_serial_vs_parallel():
    serial = ExperimentEngine(jobs=1).run(_pr_points())
    parallel = ExperimentEngine(jobs=4).run(_pr_points())
    assert len(serial) == len(parallel) == 2
    for lhs, rhs in zip(serial, parallel):
        assert lhs.trace_events, "tracing recorded nothing"
        assert events_to_jsonl(lhs.trace_events) == events_to_jsonl(
            rhs.trace_events
        )


def test_matrix_trace_output_byte_identical_across_jobs(capsys):
    from repro.cli import main

    def render(jobs: int) -> str:
        code = main(
            [
                "matrix",
                "--workloads",
                "PR",
                "--scale",
                str(SCALE),
                "--jobs",
                str(jobs),
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Progress lines carry wall-clock timings; everything else (the
        # report and every trace section) must be byte-identical.
        return "\n".join(
            line for line in out.splitlines() if not line.startswith("  [")
        )

    assert render(1) == render(4)


def test_trace_fingerprint_differs_from_untraced():
    """Traced and untraced runs never share a result-cache entry."""
    traced, untraced = _pr_points()[0], _pr_points()[0]
    untraced.trace = False
    assert traced.fingerprint() != untraced.fingerprint()
