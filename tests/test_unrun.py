"""Tests for the bookkeeping of ``scripts/unrun.py``.

The script's sample runs every program caller in subprocesses; these
tests run none.  They feed its bookkeeping a synthetic package, called
set and keep list: which ``def`` a called code object names, which
problems ``--check`` reports, and which keep-list lines it rejects.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unrun.py"
_spec = importlib.util.spec_from_file_location("unrun", _SCRIPT)
unrun = importlib.util.module_from_spec(_spec)
sys.modules["unrun"] = unrun
_spec.loader.exec_module(unrun)

SOURCE = textwrap.dedent(
    '''
    import functools


    def plain():
        return 1


    def outer():
        def inner():
            return 2

        return inner


    class Box:
        @property
        def size(self):
            return self._size

        @size.setter
        def size(self, value):
            self._size = value

        @functools.lru_cache(maxsize=None)
        def cached(self):
            return lambda: 3


    if True:
        def conditional():
            return 4
    '''
)


@pytest.fixture
def package(tmp_path):
    """A one-module package ``pkg`` with every kind of ``def``."""
    root = tmp_path / "pkg"
    (root / "sub").mkdir(parents=True)
    (root / "sub" / "mod.py").write_text(SOURCE)
    return root


class TestDefinedFunctions:
    def test_names_every_def_but_no_lambda(self, package):
        names = sorted(unrun.defined_functions(package).values())
        assert names == [
            "sub/mod.py::Box.cached",
            "sub/mod.py::Box.size",
            "sub/mod.py::Box.size.setter",
            "sub/mod.py::conditional",
            "sub/mod.py::outer",
            "sub/mod.py::outer.<locals>.inner",
            "sub/mod.py::plain",
        ]

    def test_keys_match_the_code_objects_python_runs(self, package):
        spec = importlib.util.spec_from_file_location(
            "_unrun_sample", package / "sub" / "mod.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        functions = [
            mod.plain,
            mod.outer,
            mod.outer(),
            mod.Box.size.fget,
            mod.Box.size.fset,
            mod.Box.cached.__wrapped__,
            mod.conditional,
        ]
        defined = unrun.defined_functions(package)
        codes = [f.__code__ for f in functions]
        named = {
            defined[(str(Path(c.co_filename).resolve()), c.co_firstlineno)]
            for c in codes
        }
        assert named == set(defined.values())


DEFINED = {"a.py::ran", "a.py::unrun", "a.py::kept", "b.py::Kept.method"}


class TestProblems:
    def test_clean_when_every_unrun_function_is_kept(self):
        called = {"a.py::ran"}
        keep = {"a.py::unrun": "api", "a.py::kept": "reference",
                "b.py::Kept.method": "interface"}
        assert unrun.problems(DEFINED, called, keep) == []

    def test_unlisted_unrun_function(self):
        keep = {"a.py::kept": "api", "b.py::Kept.method": "interface"}
        assert unrun.problems(DEFINED, {"a.py::ran"}, keep) == [
            "a.py::unrun: no program runs it"
        ]

    def test_listed_function_that_ran(self):
        called = {"a.py::ran", "a.py::kept"}
        keep = {"a.py::unrun": "api", "a.py::kept": "condition",
                "b.py::Kept.method": "interface"}
        assert unrun.problems(DEFINED, called, keep) == [
            "a.py::kept: kept as condition, but it ran"
        ]

    def test_listed_name_that_no_longer_exists(self):
        keep = {"a.py::unrun": "api", "a.py::kept": "api",
                "b.py::Kept.method": "interface", "a.py::gone": "api"}
        assert unrun.problems(DEFINED, {"a.py::ran"}, keep) == [
            "a.py::gone: kept, but no such function"
        ]


class TestParseKeep:
    def test_reads_names_and_reasons(self):
        text = (
            "# comment\n"
            "\n"
            "a.py::f  api  called by user programs\n"
            "b.py::C.g reference   # trailing comment\n"
        )
        assert unrun.parse_keep(text) == {"a.py::f": "api", "b.py::C.g": "reference"}

    @pytest.mark.parametrize("line", ["a.py::f", "a.py::f  unused  no reason"])
    def test_rejects_a_missing_or_unknown_reason(self, line):
        with pytest.raises(ValueError, match="line 1"):
            unrun.parse_keep(line + "\n")

    def test_rejects_a_name_listed_twice(self):
        with pytest.raises(ValueError, match="listed twice"):
            unrun.parse_keep("a.py::f api\na.py::f condition\n")


def test_committed_keep_list_names_existing_functions():
    keep = unrun.parse_keep(unrun.KEEP_PATH.read_text())
    assert set(keep) <= set(unrun.defined_functions().values())
