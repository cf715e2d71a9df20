"""Property-based Spark-layer tests.

The central soundness property of the whole reproduction: *the placement
policy can never change computed answers*.  Random transformation
pipelines over a random dataset, at any persist level and with an
optional shuffle kill, must produce identical results under every
policy — only time/energy may differ.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import PolicyName
from repro.faults import FaultInjector, FaultPlan, KillSpec, action_checksums
from repro.spark.partition import split_evenly
from repro.spark.rdd import SourceRDD
from repro.spark.storage import StorageLevel
from repro.trace import TraceSession
from tests.conftest import small_context
from tests.golden.corpus import bandwidth_series

#: Every policy, so a new one cannot be left out of the invariance check.
POLICIES = list(PolicyName)

#: One pipeline step: (op name, parameter)
STEP = st.sampled_from(
    [
        ("map_inc", None),
        ("filter_even", None),
        ("flat_dup", None),
        ("group", None),
        ("reduce_sum", None),
        ("distinct", None),
        ("sort", None),
        ("sample", None),
        ("persist", StorageLevel.MEMORY_ONLY),
        ("persist_ser", StorageLevel.MEMORY_ONLY_SER),
        ("persist_off_heap", StorageLevel.OFF_HEAP),
        ("persist_disk_ser", StorageLevel.MEMORY_AND_DISK_SER),
        ("persist_disk", StorageLevel.DISK_ONLY),
    ]
)

DATASET = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(0, 100)),
    min_size=1,
    max_size=40,
)


def build_pipeline(ctx, records, steps):
    """Apply a step sequence to a fresh source RDD."""
    rdd = ctx.parallelize(list(records), 3, 2 * 2**20, name="prop-src")
    grouped = False
    for op, param in steps:
        if op == "map_inc":
            rdd = rdd.map(lambda r: (r[0], _bump(r[1])))
        elif op == "filter_even":
            rdd = rdd.filter(lambda r: _key_even(r[0]))
        elif op == "flat_dup":
            rdd = rdd.flat_map(lambda r: [r, (r[0], r[1])])
        elif op == "group":
            rdd = rdd.group_by_key().map_values(_sorted_group)
            grouped = True
        elif op == "reduce_sum" and not grouped:
            rdd = rdd.reduce_by_key(_add)
        elif op == "distinct" and not grouped:
            rdd = rdd.distinct()
        elif op == "sort":
            rdd = rdd.sort_by_key(num_partitions=1)
        elif op == "sample":
            rdd = rdd.sample(0.7, seed=5)
        elif op.startswith("persist"):
            rdd.persist(param)
    return rdd


def _bump(v):
    return (v + 1) if isinstance(v, int) else v


def _key_even(k):
    return k % 2 == 0


def _sorted_group(vs):
    return tuple(sorted(vs, key=repr))


def _add(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    return a


def run_traced_pipeline(records, steps, kill):
    """Collect a random pipeline on a traced PANTHERA context (with a
    shuffle kill when ``kill``); returns everything a byte-identity A/B
    compares: the answer, its checksums, elapsed time, the trace event
    stream and the bandwidth series."""
    ctx = small_context(PolicyName.PANTHERA)
    session = TraceSession.attach_to_context(ctx)
    if kill:
        FaultInjector.attach(FaultPlan(kills=[KillSpec("shuffle", 1, 0)], seed=3), ctx)
    result = ctx.scheduler.run_action(build_pipeline(ctx, records, steps), "collect")
    return {
        "result": sorted(result, key=repr),
        "checksums": action_checksums({"collect": result}),
        "elapsed": repr(ctx.machine.elapsed_s),
        "events": [repr(e) for e in session.events],
        "bandwidth": bandwidth_series(ctx.machine),
    }


def run_pipeline(policy, records, steps, kill=None):
    """Collect a random pipeline under ``policy`` on a traced context;
    ``kill``, when given, is a ``(stage boundary, reduce partition)``
    shuffle kill.  Every persisted RDD is unpersisted after the collect.
    Returns the sorted answer, the context and the trace session."""
    ctx = small_context(policy)
    session = TraceSession.attach_to_context(ctx)
    if kill is not None:
        plan = FaultPlan(kills=[KillSpec("shuffle", *kill)], seed=3)
        FaultInjector.attach(plan, ctx)
    rdd = build_pipeline(ctx, records, steps)
    result = sorted(ctx.scheduler.run_action(rdd, "collect"), key=repr)
    # Release every persisted block, so the heap checks and the strict
    # replay also cover each level's frees (native batches included).
    for persisted in list(ctx._rdds.values()):
        if persisted.persist_level is not None:
            persisted.unpersist()
    return result, ctx, session


#: An optional single shuffle kill: ``(stage boundary, reduce partition)``.
KILL = st.none() | st.tuples(st.integers(1, 3), st.integers(0, 2))


class TestPolicyInvariance:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(records=DATASET, steps=st.lists(STEP, min_size=1, max_size=6), kill=KILL)
    def test_results_identical_across_policies(self, records, steps, kill):
        """Every policy, under every persist level and an optional shuffle
        kill, computes the unkilled DRAM-only answer, leaves a consistent
        heap that its trace replays strictly, and repeats itself exactly."""
        from repro.heap.verify import verify_heap

        baseline, _, _ = run_pipeline(PolicyName.DRAM_ONLY, records, steps)
        for policy in POLICIES:
            result, ctx, session = run_pipeline(policy, records, steps, kill)
            assert result == baseline, policy
            assert verify_heap(ctx.heap) == [], policy
            assert session.check() == [], policy
            again, ctx2, _ = run_pipeline(policy, records, steps, kill)
            assert again == result, policy
            assert repr(ctx2.machine.elapsed_s) == repr(ctx.machine.elapsed_s)
            assert bandwidth_series(ctx2.machine) == bandwidth_series(ctx.machine)

    @settings(max_examples=15, deadline=None)
    @given(records=DATASET, steps=st.lists(STEP, min_size=1, max_size=5))
    def test_reexecution_is_deterministic(self, records, steps):
        a, ctx, _ = run_pipeline(PolicyName.PANTHERA, records, steps)
        b, _, _ = run_pipeline(PolicyName.PANTHERA, records, steps)
        assert a == b
        # Record lists are shared between stages, blocks and shuffle
        # files, never copied: the run must leave its input unmodified.
        [source] = [r for r in ctx._rdds.values() if isinstance(r, SourceRDD)]
        assert source._partitions == split_evenly(list(records), 3)

    @settings(max_examples=15, deadline=None)
    @given(records=DATASET, steps=st.lists(STEP, min_size=1, max_size=5))
    def test_heap_consistent_after_random_pipeline(self, records, steps):
        from repro.heap.verify import verify_heap

        _, ctx, _ = run_pipeline(PolicyName.PANTHERA, records, steps)
        assert verify_heap(ctx.heap) == []

    @settings(max_examples=15, deadline=None)
    @given(records=DATASET, steps=st.lists(STEP, min_size=1, max_size=5))
    def test_time_and_energy_always_positive(self, records, steps):
        _, ctx, _ = run_pipeline(PolicyName.PANTHERA, records, steps)
        assert ctx.machine.elapsed_s > 0
        assert ctx.machine.energy_j() > 0
