"""Tests of the benchmark's own machinery.

Run with ``python -m pytest bench -q`` from the repository root (the
tier-1 suite's ``testpaths`` do not include ``bench/``).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
for entry in (BENCH_DIR.parent / "src", BENCH_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import OpResult  # noqa: E402


@pytest.fixture(autouse=True)
def _unfreeze():
    yield
    gc.unfreeze()


# -- exclusive time on a synthetic job ---------------------------------


class FakeClock:
    """A ``perf_counter_ns`` stand-in that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


CLOCK = FakeClock()


def helper() -> None:
    CLOCK.advance(1000)


class Job:
    """run: 10 + 5 ns of its own around two steps; step: 100 ns of its
    own plus one helper call of 1000 ns."""

    def run(self) -> str:
        CLOCK.advance(10)
        self.step()
        CLOCK.advance(5)
        self.step()
        return "done"

    def step(self) -> None:
        CLOCK.advance(100)
        helper()


SYNTHETIC = (
    ("job", ((__name__, "Job.run"),)),
    ("step", ((__name__, "Job.step"),)),
    ("helper", ((__name__, "helper"),)),
)


def test_exclusive_time_on_a_synthetic_nested_job(monkeypatch):
    monkeypatch.setattr(time, "perf_counter_ns", CLOCK)
    tracer = layers.Tracer(layers=SYNTHETIC)
    with tracer.installed():
        assert Job().run() == "done"
    assert tracer.self_ns == [15, 200, 2000]
    # run made two wrapped calls, each step one; helper none.
    assert tracer.child_calls == [2, 2, 0]
    assert dict(zip(tracer.labels, tracer.fn_calls)) == {
        f"{__name__}:Job.run": 1,
        f"{__name__}:Job.step": 2,
        f"{__name__}:helper": 2,
    }
    assert dict(zip(tracer.labels, tracer.fn_some)) == {
        f"{__name__}:Job.run": 1,
        f"{__name__}:Job.step": 0,
        f"{__name__}:helper": 0,
    }


def test_calibration_is_positive_and_small():
    inner, outer = layers.calibrate(calls=2000, repeats=2)
    assert inner >= 0 and outer >= 0
    assert 0 < inner + outer < 100_000


# -- wrappers come off --------------------------------------------------


def _targets():
    found = {}
    for _, targets in layers.LAYERS:
        for module_name, pattern in targets:
            for owner, attr, _ in layers.resolve(module_name, pattern):
                found[(id(owner), attr)] = (owner, attr, vars(owner)[attr])
    return list(found.values())


def test_wrappers_restored_after_the_traced_pass():
    targets = _targets()
    assert len(targets) > 40
    with pytest.raises(RuntimeError):
        with layers.Tracer().installed():
            for owner, attr, original in targets:
                assert vars(owner)[attr] is not original
            raise RuntimeError("the pass fails half-way")
    for owner, attr, original in targets:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


def test_every_layer_resolves():
    for name, targets in layers.LAYERS:
        assert any(layers.resolve(m, p) for m, p in targets), name


# -- tail percentile ----------------------------------------------------


def test_tail_index_leaves_ten_samples_beyond():
    assert measure.tail_index(11) == 0
    assert measure.tail_index(100) == 89
    with pytest.raises(ValueError):
        measure.tail_index(10)


def _record(key, wall_ms, sim_s=1.0, cell=None):
    result = OpResult("d", "a", (key,), sim_s, 0, 0, 0, 0, cell=cell)
    return measure.OpRecord(key, int(wall_ms * 1e6), 1000, 1.0, True, result)


def test_run_metrics_on_known_walls():
    records = [_record("a", 10.0)] * 25 + [_record("b", 40.0, sim_s=2.0)] * 20
    metrics = measure.run_metrics(records)
    assert metrics["op_ms_p50"] == pytest.approx((10.0 * 40.0) ** 0.5)
    assert metrics["sim_s_per_wall_s"] == pytest.approx(3.0 / (50.0 / 1e3))
    # A cell that is merely larger does not make a tail.
    assert metrics["op_ms_tail"] == pytest.approx(20.0)
    # Eleven ops of cell a at three times its median do: with ten ops
    # beyond the tail's percentile, it lands on them.
    records += [_record("a", 30.0)] * 11
    metrics = measure.run_metrics(records)
    assert metrics["op_ms_p50"] == pytest.approx(20.0)
    assert metrics["op_ms_tail"] == pytest.approx(60.0)
    # Ten slow ops leave the tail at the typical op.
    assert measure.run_metrics(records[:-1])["op_ms_tail"] == pytest.approx(20.0)


def test_ops_with_a_named_cell_are_timed_together():
    # Two cluster jobs on one input: one cell, median 20 ms.
    records = [_record("job1", 10.0, cell="KM/s0.1")] * 6
    records += [_record("job2", 30.0, cell="KM/s0.1")] * 7
    assert measure.run_metrics(records)["op_ms_p50"] == pytest.approx(30.0)
    assert set(measure.cell_medians(records)) == {"KM/s0.1"}


def test_compare_applies_bound_and_direction():
    assert compare.classify([100.0], [109.0], 0.1, "lower") == "unchanged"
    assert compare.classify([100.0], [111.0], 0.1, "lower") == "regressed"
    assert compare.classify([100.0], [111.0], 0.1, "higher") == "improved"
    assert compare.classify([100.0], [89.0], 0.1, "higher") == "regressed"
    # A base that spreads wider than the bound cannot call a change...
    wide = [80.0, 90.0, 100.0, 110.0, 120.0]
    assert compare.classify(wide, [130.0], 0.1, "lower") == "unresolved"
    # ...unless every head run beats every base run.
    assert compare.classify(wide, [70.0, 75.0], 0.1, "lower") == "improved"


def test_compare_refuses_reports_of_other_lengths_or_seeds(tmp_path):
    def report(name, seed, seconds):
        path = tmp_path / name
        path.write_text(json.dumps({"seed": seed, "seconds": seconds, "workloads": {}}))
        return str(path)

    base = report("base.json", 7, 15.0)
    assert compare.main([base, report("same.json", 7, 15.0)]) == 0
    assert compare.main([base, report("short.json", 7, 5.0)]) == 2
    assert compare.main([base, report("seed.json", 8, 15.0)]) == 2


# -- accepting digests --------------------------------------------------


@pytest.fixture
def expected_file(tmp_path, monkeypatch):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"graph": {"g": "old"}, "ml": {"m": "old"}}))
    monkeypatch.setattr(run, "EXPECTED_PATH", path)
    return path


def _fake_spawn(monkeypatch, result):
    calls = []

    def spawn(name, seed, seconds, mode, deadline, extra=()):
        calls.append((name, seed, mode, tuple(extra)))
        return result

    monkeypatch.setattr(run, "spawn", spawn)
    return calls


def test_accept_replaces_only_the_workloads_it_ran(expected_file, monkeypatch):
    refs = {"m": "new", "m2": "new"}
    calls = _fake_spawn(monkeypatch, {"failed": 0, "mismatched": [], "refs": refs})
    assert run.main(["--accept", "--workload", "ml"]) == 0
    assert json.loads(expected_file.read_text()) == {"graph": {"g": "old"}, "ml": refs}
    # Set up at the default seed, not checked against the old digests.
    assert calls == [("ml", run.DEFAULT_SEED, "setup", ("--ignore-expected",))]


@pytest.mark.parametrize(
    "failure",
    [
        {"failed": 1, "mismatched": []},
        {"failed": 0, "mismatched": ["KM/panthera/s10/h64 answers"]},
    ],
)
def test_accept_writes_nothing_from_a_failed_run(expected_file, monkeypatch, failure):
    before = expected_file.read_text()
    _fake_spawn(monkeypatch, {**failure, "refs": {"m": "new"}})
    assert run.main(["--accept", "--workload", "ml"]) == 2
    assert expected_file.read_text() == before


# -- the yardstick ------------------------------------------------------


def test_the_clean_yardstick_runs_in_a_helper_that_is_reaped():
    allowed = os.sched_getaffinity(0)
    with measure.CleanYardstick() as clean:
        pid = clean.pid
        assert pid != os.getpid()
        assert 0 < clean() < 10**9
        assert clean.ratio(pairs=4) > 0
        assert os.sched_getaffinity(0) == allowed
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def test_a_slower_interpreter_moves_the_clean_ratio():
    def tracer(frame, event, arg):
        return tracer

    with measure.CleanYardstick() as clean:
        before = clean.ratio(pairs=10)
        # A line tracer slows every Python line run in this process,
        # as code under test that slowed the interpreter would.
        sys.settrace(tracer)
        try:
            after = clean.ratio(pairs=10)
        finally:
            sys.settrace(None)
    assert after > 1.5 * before


# -- failures -----------------------------------------------------------


def _op(loop, key, digest, answers="a"):
    result = OpResult(digest, answers, ("X",), 1.0, 0, 0, 0, 0)
    return loop.op(key, lambda returned: returned, lambda: result)


def test_a_digest_mismatch_counts_as_a_failure():
    loop = measure.Loop(measure.Checker())
    _op(loop, "cell", "d1")
    _op(loop, "cell", "d1")
    _op(loop, "cell", "d2")
    assert (loop.attempted, loop.failed) == (3, 1)
    assert loop.checker.mismatched == ["cell"]


def test_expected_and_answer_mismatches_count_as_failures():
    loop = measure.Loop(measure.Checker({"cell": "accepted"}))
    _op(loop, "cell", "other")
    _op(loop, "same-input", "d", answers="b")
    assert (loop.attempted, loop.failed) == (2, 2)


def test_an_op_that_raises_counts_as_a_failure():
    loop = measure.Loop(measure.Checker())

    def boom():
        raise ValueError("op failed")

    with pytest.raises(ValueError):
        loop.op("cell", lambda r: r, boom)
    assert (loop.attempted, loop.failed) == (1, 1)


# -- every workload, three ops ------------------------------------------

#: The seed ``bench/expected.json`` pins the cluster plan of.
SEED = 7


def _limit(loop, ops):
    run_op = loop.op

    def limited(*args, **kwargs):
        if len(loop.records) >= ops:
            raise measure.Deadline()
        return run_op(*args, **kwargs)

    loop.op = limited


@pytest.mark.parametrize("name", workloads.NAMES)
def test_three_ops_of_each_workload(name):
    workload, loop, setup_s, scale = measure.setup(name, SEED)
    assert setup_s > 0 and scale > 0 and loop.failed == 0
    _limit(loop, 3)
    measure.run_rounds(workload, loop, SEED, seconds=600, paired=False)
    assert len(loop.records) == 3
    assert loop.failed == 0, loop.checker.mismatched


def test_traced_ops_split_the_wall_into_layers():
    inner, outer = layers.calibrate(calls=2000, repeats=2)
    workload, loop, _, _ = measure.setup("ml", SEED, layers.Tracer())
    _limit(loop, 6)
    measure.run_rounds(workload, loop, SEED, seconds=600, paired=True)
    # Each cell twice in a row, untraced and traced, alternating order.
    assert [(r.round, r.index, r.traced) for r in loop.records] == [
        (0, 0, False), (0, 0, True),
        (1, 0, True), (1, 0, False),
        (2, 0, False), (2, 0, True),
    ]
    assert len({r.key for r in loop.records}) == 3
    metrics = measure.trace_metrics(loop, inner, outer)
    shares = [
        v
        for k, v in metrics.items()
        if k.endswith(".share") and not k.startswith(layers.RECLAIM)
    ]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["spark.columnar.calls_per_op"] > 0
    assert metrics["cluster.service.calls_per_op"] == 0
    assert metrics["trace_call_ns"] >= 0
    assert loop.failed == 0


def test_wrapper_cost_comes_from_twin_ops():
    def pair(on_ms, off_ms, calls):
        on, off = _record("a", on_ms), _record("a", off_ms)
        on.layer_calls = [calls, 0]
        return on, off

    assert measure.wrapper_cost_ns([pair(3.0, 2.0, 1000), pair(5.0, 4.0, 1000)]) == 1000
    # Noise can make the traced twin the faster one; the cost floors at 0.
    assert measure.wrapper_cost_ns([pair(1.0, 2.0, 1000)]) == 0.0
