"""The golden-digest corpus: the simulator's output is byte-identical to
the committed ``tests/golden/digests.json``.

Every cell runs twice: with numpy, and with numpy forced absent (the
per-record data plane and the per-row bandwidth settle), which must
reproduce the same digests.  A failure names the cell and the differing
digests; rerun ``scripts/golden.py --accept`` only if the change is
meant to alter simulated output.

Each run also checks that it frees by reference counting: run with the
cyclic collector paused, it must leave at most
:data:`CYCLIC_GARBAGE_BOUND` objects for that collector, a run that
aborts with its pinned error (charges still queued) included.  A failure
there means some member points back to its owner; DESIGN.md
("Ownership") has the rule.
"""

import pytest

from repro.memory import bandwidth
from repro.spark import columnar
from tests.golden import corpus

CELLS = {cell.key: cell for cell in corpus.cells()}
EXPECTED = corpus.load_digests()


@pytest.fixture(params=["numpy", "no-numpy"])
def platform(request, monkeypatch):
    """Run the test with numpy, or as on an install without it."""
    if request.param == "no-numpy":
        for module in (bandwidth, columnar):
            monkeypatch.setattr(module, "_np", None)
    return request.param


#: Objects a finished run may leave for CPython's cyclic collector.
CYCLIC_GARBAGE_BOUND = 0


def run_freeing_by_refcount(run):
    """``run()``'s digests, after checking the run left no more than
    :data:`CYCLIC_GARBAGE_BOUND` objects for the cyclic collector."""
    got, garbage = corpus.count_cyclic_garbage(run)
    assert garbage <= CYCLIC_GARBAGE_BOUND, (
        f"the run left {garbage} objects in reference cycles"
    )
    return got


def test_corpus_covers_exactly_the_cells():
    assert set(EXPECTED) == set(CELLS) | {corpus.CLUSTER_KEY, corpus.HADOOP_KEY}


@pytest.mark.parametrize("key", sorted(CELLS))
def test_cell_matches_golden(key, platform):
    assert run_freeing_by_refcount(CELLS[key].run) == EXPECTED[key]


def test_cluster_replay_matches_golden(platform):
    assert run_freeing_by_refcount(corpus.run_cluster) == EXPECTED[corpus.CLUSTER_KEY]


def test_hadoop_join_matches_golden(platform):
    assert run_freeing_by_refcount(corpus.run_hadoop) == EXPECTED[corpus.HADOOP_KEY]


#: The digests an untraced run reproduces: all but the event stream.
UNTRACED_DIGESTS = ("elapsed", "gclog", "bandwidth", "checksums")


@pytest.mark.parametrize("key", sorted(CELLS))
def test_untraced_cell_matches_golden(key, platform):
    """The corpus runs traced, and every trace publish settles the
    machine's charge queue, so a traced run never settles a long queue.
    Untraced, the same cell settles its queue only where it reads
    simulated state (or once the queue is full), and must still
    reproduce every digest but the trace's."""
    expected = EXPECTED[key]
    got = run_freeing_by_refcount(lambda: CELLS[key].run(trace=False))
    if "error" in expected:
        assert got == expected
    else:
        assert {name: got[name] for name in UNTRACED_DIGESTS} == {
            name: expected[name] for name in UNTRACED_DIGESTS
        }
