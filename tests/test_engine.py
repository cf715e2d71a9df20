"""The parallel experiment engine: determinism, caching, events, CLI."""

import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from repro.config import PolicyName
from repro.errors import ConfigError
from repro.harness.configs import paper_config
from repro.harness.engine import (
    ExperimentEngine,
    ExperimentPoint,
    ResultCache,
    code_version,
    run_points,
)
from repro.harness.experiment import run_experiment
from repro.harness.matrix import matrix_report, run_matrix
from repro.spark.storage import StorageLevel

SCALE = 0.02


def _point(policy=PolicyName.PANTHERA, **overrides):
    config = paper_config(64, 1 / 3, policy, SCALE)
    if overrides:
        config = config.replace(**overrides)
    return ExperimentPoint("PR", config, SCALE)


class TestFingerprint:
    def test_stable_across_calls(self):
        assert _point().fingerprint() == _point().fingerprint()

    def test_differs_by_workload_policy_scale_and_config(self):
        base = _point().fingerprint()
        other_workload = ExperimentPoint(
            "KM", paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE), SCALE
        )
        assert other_workload.fingerprint() != base
        assert _point(policy=PolicyName.UNMANAGED).fingerprint() != base
        assert _point(seed=7).fingerprint() != base
        assert _point(nursery_fraction=0.25).fingerprint() != base
        rescaled = ExperimentPoint(
            "PR", paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE), 0.03
        )
        assert rescaled.fingerprint() != base

    def test_differs_by_workload_kwargs(self):
        kw = _point()
        kw.workload_kwargs = {"iterations": 3}
        assert kw.fingerprint() != _point().fingerprint()

    def test_enum_kwargs_key_by_value(self):
        """Enum members fingerprint by value, never by a repr."""
        def with_level(level):
            point = _point()
            point.workload_kwargs = {"persist_level": level}
            return point.fingerprint()

        ser = with_level(StorageLevel.MEMORY_ONLY_SER)
        assert ser == with_level("MEMORY_ONLY_SER")
        assert ser != with_level(StorageLevel.MEMORY_ONLY)

    @pytest.mark.parametrize("value", [lambda r: r, object(), {1, 2}])
    def test_non_json_kwargs_raise_config_error(self, value):
        """A function or arbitrary object would key the cache on its
        memory address and miss on every run: refuse it instead."""
        point = _point()
        point.workload_kwargs = {"fn": value}
        with pytest.raises(ConfigError, match="cannot fingerprint"):
            point.fingerprint()

    def test_embeds_code_version(self, monkeypatch):
        base = _point().fingerprint()
        monkeypatch.setattr("repro.harness.engine._code_version", "deadbeef")
        assert _point().fingerprint() != base

    def test_code_version_is_hex_digest(self):
        version = code_version()
        assert len(version) == 64
        int(version, 16)


class TestParallelDeterminism:
    def test_matrix_parallel_identical_to_serial(self):
        serial = run_matrix(scale=SCALE, workloads=["PR", "KM"])
        parallel = run_matrix(scale=SCALE, workloads=["PR", "KM"], jobs=4)
        assert serial.keys() == parallel.keys()
        for workload in serial:
            assert serial[workload].keys() == parallel[workload].keys()
            for policy in serial[workload]:
                assert serial[workload][policy] == parallel[workload][policy]

    def test_engine_results_match_direct_run(self):
        point = _point()
        engine = ExperimentEngine(jobs=1)
        (engine_result,) = engine.run([point])
        direct = run_experiment("PR", point.config, scale=SCALE)
        assert engine_result == direct.without_runtime_handles()

    def test_results_are_context_free(self):
        engine = ExperimentEngine(jobs=2)
        results = engine.run([_point(), _point(policy=PolicyName.UNMANAGED)])
        assert all(r.context is None for r in results)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        first = engine.run([_point()])
        assert engine.stats.executed == 1
        assert engine.stats.cached == 0

        warm = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        second = warm.run([_point()])
        assert warm.stats.executed == 0
        assert warm.stats.cached == 1
        assert first == second

    def test_config_change_invalidates(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run([_point()])
        changed = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        changed.run([_point(nursery_fraction=0.25)])
        assert changed.stats.executed == 1
        assert changed.stats.cached == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fingerprint = _point().fingerprint()
        path = cache.path_for(fingerprint)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(fingerprint) is None
        assert cache.misses == 1

    def test_json_sidecar_written(self, tmp_path):
        engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
        engine.run([_point()])
        sidecars = list(tmp_path.rglob("*.json"))
        assert len(sidecars) == 1
        assert '"workload": "PR"' in sidecars[0].read_text()

    def test_warm_matrix_rerun_executes_nothing(self, tmp_path):
        run_matrix(scale=SCALE, workloads=["PR"], cache_dir=tmp_path)
        events = []
        rerun = run_matrix(
            scale=SCALE,
            workloads=["PR"],
            jobs=2,
            cache_dir=tmp_path,
            on_event=events.append,
        )
        assert [e.kind for e in events] == ["cached"] * 3
        assert set(rerun["PR"]) == {"dram-only", "unmanaged", "panthera"}


class TestEventsAndHelpers:
    def test_event_stream_shape(self):
        events = []
        engine = ExperimentEngine(jobs=1, on_event=events.append)
        engine.run([_point(), _point(policy=PolicyName.UNMANAGED)])
        kinds = [e.kind for e in events]
        assert kinds == ["start", "done", "start", "done"]
        done = [e for e in events if e.kind == "done"]
        assert [e.completed for e in done] == [1, 2]
        assert all(e.total == 2 for e in events)
        assert all(e.seconds > 0 for e in done)
        assert done[0].point.label == "PR [panthera]"

    def test_run_points_preserves_keys(self):
        cells = {
            "a": ("PR", paper_config(64, 1.0, PolicyName.DRAM_ONLY, SCALE)),
            "b": ("PR", paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)),
        }
        results = run_points(cells, SCALE, jobs=2)
        assert list(results) == ["a", "b"]
        assert results["a"].policy is PolicyName.DRAM_ONLY
        assert results["b"].policy is PolicyName.PANTHERA

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentEngine(jobs=0)

    def test_progress_fires_once_per_cell_even_when_cached(self, tmp_path):
        seen = []

        def on_event(event):
            if event.kind in ("start", "cached"):
                seen.append((event.point.workload, event.point.config.policy.value))

        run_matrix(scale=SCALE, workloads=["PR"], cache_dir=tmp_path, on_event=on_event)
        assert len(seen) == 3
        seen.clear()
        run_matrix(scale=SCALE, workloads=["PR"], cache_dir=tmp_path, on_event=on_event)
        assert len(seen) == 3


class TestMatrixReportGuards:
    def _result(self, elapsed, energy, gc):
        from repro.harness.experiment import ExperimentResult

        return ExperimentResult(
            workload="PR",
            policy=PolicyName.PANTHERA,
            heap_gb=64.0,
            dram_ratio=1 / 3,
            elapsed_s=elapsed,
            gc_s=gc,
            mutator_s=elapsed - gc,
            minor_gcs=0,
            major_gcs=0,
            energy_j=energy,
            energy_by_device={},
            monitored_calls=0,
            migrated_rdds=0,
            spilled_blocks=0,
            dropped_blocks=0,
            card_scanned_gb=0.0,
            stuck_rescans=0,
        )

    def test_zero_baseline_divisions_are_guarded(self):
        """The report normalises through ``normalize_results``: a
        baseline without GC reads a 0.0 GC ratio, and a baseline with
        no time or energy is rejected rather than rendered."""
        matrix = {
            "PR": {
                "dram-only": self._result(1.0, 1.0, 0.0),
                "panthera": self._result(1.0, 2.0, 0.5),
            }
        }
        text = matrix_report(matrix)
        assert "| PR |" in text
        cells = [float(c) for c in text.splitlines()[-1].split("|")[2:5]]
        assert cells == [1.0, 2.0, 0.0]
        matrix["PR"]["dram-only"] = self._result(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            matrix_report(matrix)


class TestCliParallel:
    def test_matrix_jobs_and_cache_flags(self, tmp_path, capsys):
        from repro.cli import main

        export = tmp_path / "matrix.json"
        code = main(
            [
                "matrix",
                "--scale",
                str(SCALE),
                "--workloads",
                "PR",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--export-json",
                str(export),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "running PR" in out
        assert "done" in out
        assert "panthera time" in out
        assert '"panthera"' in export.read_text()

        code = main(
            [
                "matrix",
                "--scale",
                str(SCALE),
                "--workloads",
                "PR",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cached" in out
        assert "running" not in out

    def test_compare_jobs_flag(self, capsys):
        from repro.cli import main

        code = main(
            ["matrix", "--workloads", "PR", "--scale", str(SCALE), "--jobs", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "| PR |" in out and "panthera time" in out


class TestWithoutRuntimeHandles:
    def test_strips_context_keeps_metrics(self):
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, SCALE)
        result = run_experiment("PR", config, scale=SCALE, keep_context=True)
        stripped = result.without_runtime_handles()
        assert result.context is not None
        assert stripped.context is None
        assert stripped.analysis == result.analysis
        assert dataclasses.replace(result, context=None) == stripped


class TestLazyPoolImport:
    def test_importing_repro_loads_no_process_pool(self):
        """A serial run never pays for the pool: ``import repro`` (and
        its CLI) loads neither ``concurrent.futures`` nor
        ``multiprocessing``; only a ``jobs > 1`` path imports them."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, repro, repro.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('concurrent', 'multiprocessing')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"
