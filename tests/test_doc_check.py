"""The docs check fails on broken links, orphans and stale code names."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import check_doc_links  # noqa: E402


def make_repo(tmp_path, readme: str) -> pathlib.Path:
    """A miniature repository: one package with a docstring that
    mentions a name it does not define, and a README."""
    package = tmp_path / "src" / "repro" / "memory"
    package.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text(
        '"""Models the emulator."""\nfrom repro.memory.machine import Machine\n'
    )
    (package / "machine.py").write_text("class Machine:\n    pass\n")
    (tmp_path / "README.md").write_text(readme)
    return tmp_path


class TestStaleNames:
    def test_repository_docs_resolve(self):
        assert check_doc_links.main(["--root", str(ROOT)]) == 0

    def test_existing_names_pass(self, tmp_path):
        root = make_repo(
            tmp_path,
            "See `src/repro/memory/machine.py:1`, `repro.memory.machine.Machine`,\n"
            "`repro.memory.Machine`, `src/repro/*/machine.py` and\n"
            "`tests/test_<module>.py`.\n",
        )
        assert check_doc_links.main(["--root", str(root)]) == 0

    def test_stale_path_fails(self, tmp_path, capsys):
        root = make_repo(tmp_path, "Run `python scripts/gone.py` first.\n")
        assert check_doc_links.main(["--root", str(root)]) == 1
        assert "README.md:1: stale name -> scripts/gone.py" in capsys.readouterr().err

    def test_stale_module_fails_though_a_docstring_names_it(self, tmp_path, capsys):
        root = make_repo(tmp_path, "The `repro.memory.emulator` module.\n")
        assert check_doc_links.main(["--root", str(root)]) == 1
        assert "repro.memory.emulator" in capsys.readouterr().err

    def test_stale_attribute_fails(self, tmp_path):
        root = make_repo(tmp_path, "`repro.memory.machine.Gone`\n")
        assert check_doc_links.main(["--root", str(root)]) == 1

    def test_fenced_blocks_and_generated_reference_are_skipped(self, tmp_path):
        root = make_repo(tmp_path, "```\n`src/gone.py`\n```\n[api](docs/API.md)\n")
        (root / "docs").mkdir()
        (root / "docs" / "API.md").write_text("`repro.gone`\n")
        assert check_doc_links.main(["--root", str(root)]) == 0


class TestSubcommands:
    def make_cli_repo(self, tmp_path, readme: str) -> pathlib.Path:
        """A miniature repository whose CLI registers ``run`` and
        ``matrix`` (the source is parsed, never run)."""
        root = make_repo(tmp_path, readme)
        (root / "src" / "repro" / "cli.py").write_text(
            'sub.add_parser("run", help="one cell")\nsub.add_parser("matrix")\n'
        )
        return root

    def test_registered_subcommands_pass(self, tmp_path):
        root = self.make_cli_repo(
            tmp_path,
            "Try `repro run PR` or `repro --help`.\n"
            "```\n$ repro run KM\nPYTHONPATH=src python -m repro matrix --jobs 2\n"
            "from repro import run_experiment\n```\n",
        )
        assert check_doc_links.main(["--root", str(root)]) == 0

    def test_stale_prose_subcommand_fails(self, tmp_path, capsys):
        root = self.make_cli_repo(tmp_path, "Use `repro trace PR --check`.\n")
        assert check_doc_links.main(["--root", str(root)]) == 1
        assert "README.md:1: unknown subcommand -> repro trace" in capsys.readouterr().err

    def test_stale_fenced_subcommand_fails(self, tmp_path, capsys):
        root = self.make_cli_repo(
            tmp_path, "```bash\nPYTHONPATH=src python -m repro compare KM\n```\n"
        )
        assert check_doc_links.main(["--root", str(root)]) == 1
        assert "README.md:2: unknown subcommand -> repro compare" in capsys.readouterr().err

    def test_reads_the_subcommands_argparse_registers(self):
        import argparse

        from repro.cli import build_parser

        sub = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert check_doc_links.cli_subcommands(ROOT) == set(sub.choices)
