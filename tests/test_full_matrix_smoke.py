"""The full workload x policy matrix at tiny scale: everything runs,
every heap ends structurally consistent, every result is sane, and no
policy changes an answer."""

import functools

import pytest

from repro.config import PolicyName
from repro.faults import action_checksums
from repro.harness.configs import paper_config
from repro.harness.engine import ExperimentEngine, ExperimentPoint
from repro.harness.experiment import run_experiment
from repro.heap.verify import verify_heap
from repro.workloads.registry import WORKLOADS

SCALE = 0.02
ALL_POLICIES = list(PolicyName)


@functools.lru_cache(maxsize=None)
def _dram_only_checksums(workload):
    config = paper_config(64, 1 / 3, PolicyName.DRAM_ONLY, SCALE)
    result = run_experiment(workload, config, scale=SCALE)
    return action_checksums(result.action_results)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.value)
def test_matrix_cell(workload, policy):
    config = paper_config(64, 1 / 3, policy, SCALE)
    result = run_experiment(workload, config, scale=SCALE, keep_context=True)
    assert result.elapsed_s > 0
    assert result.energy_j > 0
    assert result.mutator_s >= 0
    assert result.minor_gcs >= 0
    assert verify_heap(result.context.heap) == []
    # Placement never changes an answer.
    assert action_checksums(result.action_results) == _dram_only_checksums(
        workload
    )
    # Panthera-only machinery stays off elsewhere (Kingsguard-Writes has
    # its own write-driven migrations, so only monitoring is asserted).
    if policy is not PolicyName.PANTHERA:
        assert result.monitored_calls == 0
        if policy is not PolicyName.KINGSGUARD_WRITES:
            assert result.migrated_rdds == 0
    # Only the stock (unpadded) layouts can suffer stuck rescans.
    if policy is PolicyName.PANTHERA:
        assert result.stuck_rescans == 0
    # Deca's region arenas hold the RDD data, so nothing is ever traced.
    if policy is PolicyName.DECA:
        assert (result.minor_gcs, result.major_gcs) == (0, 0)


def test_pooled_pass_matches_serial_checksums():
    """PR and KM under every policy on two workers give the serial
    answers (every serial cell equals DRAM-only's, checked above)."""
    workloads = ("PR", "KM")
    points = [
        ExperimentPoint(w, paper_config(64, 1 / 3, p, SCALE), SCALE)
        for w in workloads
        for p in ALL_POLICIES
    ]
    results = ExperimentEngine(jobs=2).run(points)
    for point, result in zip(points, results):
        assert action_checksums(result.action_results) == _dram_only_checksums(
            point.workload
        ), point.config.policy
