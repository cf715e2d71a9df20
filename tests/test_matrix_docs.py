"""Tests for the matrix runner and a documentation-coverage meta-test."""

import importlib
import pkgutil

import pytest

from repro.harness.matrix import matrix_report, run_matrix


class TestMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        seen = []

        def on_event(event):
            if event.kind in ("start", "cached"):
                seen.append((event.point.workload, event.point.config.policy))

        result = run_matrix(scale=0.02, workloads=["PR", "KM"], on_event=on_event)
        assert len(seen) == 2 * 3
        return result

    def test_shape(self, matrix):
        assert set(matrix) == {"PR", "KM"}
        for row in matrix.values():
            assert set(row) == {"dram-only", "unmanaged", "panthera"}

    def test_report_renders(self, matrix):
        text = matrix_report(matrix)
        assert "| program |" in text
        assert "PR" in text and "KM" in text
        assert "panthera time" in text

    def test_report_excludes_baseline_column(self, matrix):
        text = matrix_report(matrix)
        assert "dram-only time" not in text

    def test_cli_matrix(self, capsys):
        from repro.cli import main

        code = main(
            ["matrix", "--scale", "0.02", "--workloads", "PR"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "running PR" in out
        assert "panthera time" in out


class TestDocumentationCoverage:
    """Every public module, class and function carries a docstring."""

    def iter_modules(self):
        import repro

        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name == "repro.__main__":
                continue  # importing it runs the CLI
            yield importlib.import_module(info.name)

    def test_every_module_has_docstring(self):
        missing = [
            module.__name__
            for module in self.iter_modules()
            if not (module.__doc__ or "").strip()
        ]
        assert missing == []

    def test_public_classes_and_functions_documented(self):
        import inspect

        missing = []
        for module in self.iter_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []
