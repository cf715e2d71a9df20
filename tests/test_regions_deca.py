"""Lifetime-based region allocation (Deca, arXiv 1602.01959).

Covers the rival policy end to end: the lifetime classifier, the region
arenas (ephemeral / stage / per-RDD job regions), the wholesale-reset
accounting property (region resets free exactly the bytes the
incremental space counters attribute to the arenas — no drift vs
``verify_heap``), strict trace replay tolerating the informational
``region_alloc``/``region_reset`` kinds, the ``--jobs 1`` vs ``--jobs 4``
byte-identity of a Deca run, the zero-GC acceptance criterion, and the
``repro analyze`` placement of a ``MEMORY_ONLY_SER`` persist in the
serialized tier.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import PolicyName
from repro.core.static_analysis import analyze_program, classify_lifetimes
from repro.core.tags import Placement
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint
from repro.harness.experiment import run_experiment
from repro.heap.object_model import ObjKind
from repro.heap.regions import LifetimeClass, _ExtentAllocator
from repro.heap.verify import verify_heap
from repro.spark.storage import StorageLevel
from repro.trace import events_to_jsonl, oracle_check
from repro.trace.events import REGION_ALLOC, REGION_RESET
from repro.trace.replay import replay_events
from repro.workloads.registry import build_workload
from tests.conftest import small_context

SCALE = 0.02


def _deca_config():
    return paper_config(64, 1 / 3, PolicyName.DECA, SCALE)


# -- the lifetime classifier -------------------------------------------------


class TestLifetimeClassifier:
    def test_pagerank_classes(self):
        spec = build_workload("PR", scale=0.01, iterations=2)
        analysis = classify_lifetimes(spec.program)
        # Persisted across iterations: job-long.
        assert analysis.class_of("links") is LifetimeClass.JOB
        assert analysis.class_of("contribs") is LifetimeClass.JOB
        # Materialised by an action only: stage-local.
        assert analysis.class_of("ranks") is LifetimeClass.STAGE

    def test_never_materialised_is_ephemeral(self):
        spec = build_workload("KM", scale=0.01, iterations=2)
        analysis = classify_lifetimes(spec.program)
        ephemeral = {
            var
            for var, cls in analysis.classes.items()
            if cls is LifetimeClass.EPHEMERAL
        }
        for var in ephemeral:
            assert "never materialised" in analysis.rationale[var]

    def test_every_variable_has_a_rationale(self):
        spec = build_workload("LR", scale=0.01, iterations=2)
        analysis = classify_lifetimes(spec.program)
        assert set(analysis.classes) == set(analysis.rationale)
        assert analysis.classes, "classifier produced no classes"


# -- the extent allocator ----------------------------------------------------


class TestExtentAllocator:
    def test_first_fit_and_coalescing(self):
        alloc = _ExtentAllocator(0, 100)
        a = alloc.take(40)
        b = alloc.take(40)
        assert (a, b) == (0, 40)
        assert alloc.free_bytes == 20
        alloc.give(0, 40)
        alloc.give(40, 80)
        # Adjacent extents coalesce back into one hole spanning it all.
        assert alloc.free_bytes == 100
        assert alloc.largest_extent == 100

    def test_exhaustion_returns_none(self):
        alloc = _ExtentAllocator(0, 10)
        assert alloc.take(10) == 0
        assert alloc.take(1) is None
        alloc.give(0, 10)
        assert alloc.take(1) == 0


# -- satellite: wholesale-reset accounting property --------------------------

_REGION_OPS = st.lists(
    st.tuples(
        st.sampled_from(["job", "stage", "ephemeral", "boundary", "plain"]),
        st.integers(min_value=1, max_value=48),
    ),
    min_size=1,
    max_size=24,
)


class TestResetAccounting:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_REGION_OPS)
    def test_stage_boundary_frees_exactly_the_counted_bytes(self, ops):
        """A wholesale reset at a stage boundary releases exactly the
        bytes the incremental space counters attribute to the stage and
        ephemeral arenas, with no drift against ``verify_heap``'s
        recomputed ledger at any step."""
        ctx = small_context(PolicyName.DECA)
        heap = ctx.heap
        rm = heap.regions
        rids = itertools.count(1000)
        for kind, magnitude in ops:
            nbytes = magnitude * 1024
            if kind == "job":
                rid = next(rids)
                rm.note_rdd(rid, LifetimeClass.JOB)
                heap.new_object(ObjKind.DATA, nbytes, rdd_id=rid)
            elif kind == "stage":
                rid = next(rids)
                rm.note_rdd(rid, LifetimeClass.STAGE)
                heap.new_object(ObjKind.DATA, nbytes, rdd_id=rid)
            elif kind == "ephemeral":
                heap.allocate_ephemeral(nbytes)
            elif kind == "plain":
                heap.new_object(ObjKind.DATA, nbytes)
            else:  # boundary
                expected = rm.stage.used + rm.ephemeral.used
                before = rm.reset_bytes
                rm.stage_boundary(heap)
                assert rm.stage.used == 0
                assert rm.stage.live_bytes() == 0
                assert rm.ephemeral.used == 0
                assert rm.reset_bytes - before == expected
            assert verify_heap(heap) == []
        expected = rm.stage.used + rm.ephemeral.used + rm.job.live_bytes()
        before = rm.reset_bytes
        rm.job_end(heap)
        assert rm.reset_bytes - before == expected
        assert rm.job.live_bytes() == 0
        assert verify_heap(heap) == []

    def test_job_regions_recycle_freed_extents(self):
        """Freeing a job region returns its extent for reuse — the
        arena's free bytes plus its live bytes always cover the span."""
        ctx = small_context(PolicyName.DECA)
        heap = ctx.heap
        rm = heap.regions
        rm.note_rdd(7, LifetimeClass.JOB)
        objs = [
            heap.new_object(ObjKind.DATA, 64 * 1024, rdd_id=7)
            for _ in range(4)
        ]
        assert all(rm.job.holds(o) for o in objs)
        live = rm.job.live_bytes()
        assert rm._job_alloc.free_bytes == rm.job.size - live


# -- satellite: strict replay + oracle over a Deca run -----------------------


class TestDecaTraceReplay:
    @pytest.fixture(scope="class")
    def pr_result(self):
        return run_experiment(
            "PR",
            _deca_config(),
            scale=SCALE,
            workload_kwargs={"iterations": 2},
            keep_context=True,
            trace=True,
        )

    def test_region_kinds_are_emitted(self, pr_result):
        kinds = {e.kind for e in pr_result.trace_events}
        assert REGION_ALLOC in kinds
        assert REGION_RESET in kinds

    def test_strict_replay_skips_region_kinds(self, pr_result):
        # Strict replay must tolerate the informational region kinds
        # exactly like throttle/recompute — no ReplayError, and the
        # region bytes never enter the per-space ledger.
        state = replay_events(pr_result.trace_events, strict=True)
        for space in pr_result.context.heap.regions.spaces:
            assert space.name not in state.live_bytes

    def test_oracle_passes_on_a_deca_run(self, pr_result):
        ctx = pr_result.context
        assert (
            oracle_check(ctx.heap, ctx.collector.stats, pr_result.trace_events)
            == []
        )

    def test_region_classes_see_zero_gc_pauses(self, pr_result):
        # The acceptance criterion: region-managed classes are never
        # traced, so a Deca PR run completes without a single pause.
        assert pr_result.minor_gcs == 0
        assert pr_result.major_gcs == 0
        assert pr_result.gc_s == 0.0


# -- satellite: --jobs 1 vs --jobs 4 byte-identity ---------------------------


def _deca_points():
    return [
        ExperimentPoint(
            "PR",
            _deca_config(),
            SCALE,
            workload_kwargs={"iterations": 2},
            trace=True,
        ),
        ExperimentPoint(
            "KM",
            _deca_config(),
            SCALE,
            workload_kwargs={"iterations": 2},
            trace=True,
        ),
    ]


def test_deca_trace_byte_identical_serial_vs_parallel():
    serial = ExperimentEngine(jobs=1).run(_deca_points())
    parallel = ExperimentEngine(jobs=4).run(_deca_points())
    assert len(serial) == len(parallel) == 2
    for lhs, rhs in zip(serial, parallel):
        assert lhs.trace_events, "tracing recorded nothing"
        assert events_to_jsonl(lhs.trace_events) == events_to_jsonl(
            rhs.trace_events
        )


# -- analyze: a serialized-level persist is placed in the tier --------------


class TestAnalyzeTierPlacement:
    def test_active_tier_keeps_the_serialized_placement(self):
        spec = build_workload(
            "KM",
            scale=0.01,
            iterations=2,
            persist_level=StorageLevel.MEMORY_ONLY_SER,
        )
        analysis = analyze_program(spec.program)
        assert analysis.placement_of("points") is Placement.SERIALIZED_NVM
