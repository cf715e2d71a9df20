"""Stage and lineage tests: the stages the scheduler cuts at shuffles
(Figure 2(b)) and ``toDebugString``-style lineage trees."""

import pytest

from repro.spark.lineage import lineage_string
from repro.spark.storage import StorageLevel
from tests.conftest import small_context


@pytest.fixture
def ctx():
    return small_context()


def base(ctx, n=8, name="src"):
    return ctx.parallelize([(i % 4, i) for i in range(n)], 2, 2**20, name=name)


def map_stages(ctx, rdd, monkeypatch):
    """The shuffle dependencies whose map stages ``rdd.count()`` runs,
    in the order the scheduler runs them."""
    scheduler = ctx.scheduler
    run = scheduler._run_shuffle_map
    stages = []

    def record(dep, force=False):
        stages.append(dep)
        return run(dep, force)

    monkeypatch.setattr(scheduler, "_run_shuffle_map", record)
    rdd.count()
    return stages


class TestBuildStages:
    """The scheduler builds the stage DAG of Figure 2(b) as it runs an
    action: one shuffle map stage per missing shuffle below the action,
    parents first, and nothing for a narrow dependency."""

    def test_narrow_only_is_single_stage(self, ctx, monkeypatch):
        rdd = base(ctx).map(lambda r: r).filter(lambda r: True)
        assert map_stages(ctx, rdd, monkeypatch) == []

    def test_one_shuffle_makes_two_stages(self, ctx, monkeypatch):
        src = base(ctx)
        rdd = src.group_by_key().map_values(len)
        (stage,) = map_stages(ctx, rdd, monkeypatch)
        assert stage.parent is src

    def test_chained_shuffles_are_chained_stages(self, ctx, monkeypatch):
        reduced = base(ctx).reduce_by_key(lambda a, b: a + b)
        rdd = reduced.map(lambda r: r).group_by_key()
        first, second = map_stages(ctx, rdd, monkeypatch)
        assert first is reduced.shuffle_dep
        assert second is rdd.shuffle_dep

    def test_pagerank_stage_shape(self, ctx, monkeypatch):
        """Figure 2(b): the persisted, pre-partitioned links joins
        narrowly, so the contribs stage starts at links' shuffle and
        ends at the ranks' reduce."""
        links = base(ctx, name="links").group_by_key()
        links.persist(StorageLevel.MEMORY_ONLY)
        ranks = links.map_values(lambda v: 1.0)
        contribs = links.join(ranks).values().flat_map(lambda r: [r])
        new_ranks = contribs.reduce_by_key(lambda a, b: a + b)
        stages = map_stages(ctx, new_ranks, monkeypatch)
        assert stages == [links.shuffle_dep, new_ranks.shuffle_dep]

    def test_shared_shuffle_visited_once(self, ctx, monkeypatch):
        grouped = base(ctx).group_by_key()
        joined = grouped.map_values(len).join(grouped.map_values(sum))
        assert map_stages(ctx, joined, monkeypatch) == [grouped.shuffle_dep]


class TestRendering:
    def test_lineage_string_marks_persisted_and_shuffles(self, ctx):
        cached = base(ctx).map(lambda r: r)
        cached.persist(StorageLevel.MEMORY_ONLY)
        rdd = cached.group_by_key()
        text = lineage_string(rdd)
        assert "[persisted]" in text
        assert "+-(shuffle" in text
        assert "ShuffledRDD" in text

    def test_lineage_string_handles_diamonds(self, ctx):
        shared = base(ctx).map(lambda r: r)
        joined = shared.join(shared.map_values(lambda v: v))
        text = lineage_string(joined)
        assert "(...)" in text  # the shared subtree printed once

