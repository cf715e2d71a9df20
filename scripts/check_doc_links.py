#!/usr/bin/env python
"""Check that every relative link and code name in the documentation resolves.

Scans ``README.md`` and ``docs/*.md`` for Markdown links and image
references, skips external targets (``http://``, ``https://``,
``mailto:``), pure in-page anchors (``#section``) and GitHub virtual
paths that resolve outside the repository (the ``../../actions/...``
badge idiom), and verifies the remaining paths exist relative to the
file that references them.

Also fails on *orphaned* documentation: every ``docs/*.md`` file must
be reachable from ``README.md`` or ``docs/TUTORIAL.md`` by following
relative Markdown links (breadth-first over the link graph).  A page
nothing links to is a page nobody finds.

Also fails on *stale names*: in the reference docs (``README.md``,
``DESIGN.md``, ``CONTRIBUTING.md``, ``EXPERIMENTS.md`` and ``docs/*.md``
but the generated ``docs/API.md``), every inline-code word that starts
with a repository directory (``src/``, ``tests/``, ``benchmarks/``,
``scripts/``, ``examples/``) must name an existing path, and every
dotted ``repro.*`` name must name an existing module, or a top-level
name of one.  Names resolve by file (the module's source is parsed,
never imported), so the check needs nothing installed.  The history
documents (``CHANGES.md``, ``CHANGELOG.md``, ``ROADMAP.md``) name
deleted files on purpose and are not checked.

Also fails on *unknown subcommands*: in the same documents and the
generated ``docs/API.md``, every ``repro <subcommand>`` invocation (an
inline code span or fenced-block line starting with ``repro``, or
``python -m repro ...`` anywhere in one) must name a subcommand that
``src/repro/cli.py`` registers with ``add_parser``.  The names are read
from the parsed source, so here too nothing is imported.

Exits non-zero listing every broken link, every orphan, every stale
name and every unknown subcommand — the CI docs job runs exactly this.

Usage::

    python scripts/check_doc_links.py
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import re
import sys

#: Markdown inline links/images: [text](target) / ![alt](target).
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: Inline code spans: `text`.
CODE_RE = re.compile(r"`([^`]+)`")

#: Repository directories a backticked path may start with.
PATH_PREFIXES = ("src/", "tests/", "benchmarks/", "scripts/", "examples/")

#: A trailing ``:12`` or ``:12-14`` line reference.
LINE_SUFFIX_RE = re.compile(r":\d+(-\d+)?$")

#: A dotted ``repro.*`` name (a call's parentheses are not part of it).
MODULE_RE = re.compile(r"repro(\.\w+)+")

#: A ``repro <subcommand>`` invocation: at the start of a code span or
#: fenced line (after an optional ``$`` prompt), or after ``-m``.
SUBCOMMAND_RE = re.compile(r"(?:^\$?\s*|-m\s+)repro\s+([a-z][\w-]*)")


def iter_prose(path: pathlib.Path):
    """Yield (line_number, line) for every line outside fenced blocks."""
    inside_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
            continue
        if not inside_fence:
            yield lineno, line


def iter_links(path: pathlib.Path):
    """Yield (line_number, target) for every link in one file."""
    for lineno, line in iter_prose(path):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def iter_code_words(path: pathlib.Path):
    """Yield (line_number, word) for every whitespace-separated word of
    every inline code span outside fenced blocks."""
    for lineno, line in iter_prose(path):
        for match in CODE_RE.finditer(line):
            for word in match.group(1).split():
                yield lineno, word


def iter_code_text(path: pathlib.Path):
    """Yield (line_number, text) for every fenced-block line and every
    inline code span outside fenced blocks."""
    inside_fence = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            inside_fence = not inside_fence
        elif inside_fence:
            yield lineno, line.strip()
        else:
            for match in CODE_RE.finditer(line):
                yield lineno, match.group(1)


def cli_subcommands(root: pathlib.Path):
    """The subcommands ``src/repro/cli.py`` registers with ``add_parser``
    (parsed, never imported); None when there is no CLI module."""
    cli = root / "src" / "repro" / "cli.py"
    if not cli.exists():
        return None
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_parser"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def check_subcommands(path: pathlib.Path, known: set) -> list:
    """Every ``repro <subcommand>`` in one Markdown file that the CLI
    does not register."""
    return [
        f"{path}:{lineno}: unknown subcommand -> repro {match.group(1)}"
        for lineno, text in iter_code_text(path)
        for match in SUBCOMMAND_RE.finditer(text)
        if match.group(1) not in known
    ]


def top_level_names(module: pathlib.Path) -> set:
    """The names a module file defines or imports at top level."""
    names = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                (alias.asname or alias.name).split(".")[0] for alias in node.names
            )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def module_name_exists(name: str, root: pathlib.Path) -> bool:
    """Whether dotted ``repro.a.b.attr`` names a module under ``src/`` or
    a top-level name of one (only the first name past the module)."""
    here = root / "src" / "repro"
    parts = name.split(".")[1:]
    for index, part in enumerate(parts):
        if (here / part / "__init__.py").exists():
            here = here / part
            continue
        if (here / f"{part}.py").exists():
            rest = parts[index + 1 : index + 2]
            return not rest or rest[0] in top_level_names(here / f"{part}.py")
        return part in top_level_names(here / "__init__.py")
    return True


def stale_name(word: str, root: pathlib.Path) -> bool:
    """Whether one inline-code word names a repo path or ``repro.*``
    module that does not exist.  Templates (``tests/test_<module>.py``)
    are skipped, globs must match something, and pytest node ids and
    ``:line`` suffixes are cut off."""
    if word.startswith(PATH_PREFIXES):
        path = LINE_SUFFIX_RE.sub("", word.split("::", 1)[0])
        if any(mark in path for mark in "<{…"):
            return False
        if any(mark in path for mark in "*?["):
            return not any(root.glob(path))
        return not (root / path).exists()
    match = MODULE_RE.match(word)
    return match is not None and not module_name_exists(match.group(0), root)


#: The reference docs whose inline-code names must exist (beside
#: ``docs/*.md``); ``docs/API.md`` is generated, so skipped.
NAME_CHECKED_DOCS = ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md")
GENERATED_DOCS = ("docs/API.md",)


def check_names(path: pathlib.Path, root: pathlib.Path) -> list:
    """Every stale repo path or ``repro.*`` name in one Markdown file."""
    return [
        f"{path}:{lineno}: stale name -> {word}"
        for lineno, word in iter_code_words(path)
        if stale_name(word, root)
    ]


def check_file(path: pathlib.Path, root: pathlib.Path) -> list:
    """All broken relative links in one Markdown file."""
    problems = []
    root = root.resolve()
    for lineno, target in iter_links(path):
        if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.is_relative_to(root):
            continue  # GitHub virtual path (e.g. the CI badge), not a file
        if not resolved.exists():
            problems.append(f"{path}:{lineno}: broken link -> {target}")
    return problems


#: Orphan-check roots: reachability starts from these files.
ROOT_DOCS = ("README.md", "docs/TUTORIAL.md")


def reachable_markdown(root: pathlib.Path) -> set:
    """Every markdown file reachable from the ROOT_DOCS by following
    relative links (breadth-first; external targets and non-markdown
    files are not traversed)."""
    root = root.resolve()
    queue = [
        (root / name).resolve() for name in ROOT_DOCS if (root / name).exists()
    ]
    seen = set(queue)
    while queue:
        path = queue.pop()
        for _lineno, target in iter_links(path):
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative or not relative.endswith(".md"):
                continue
            resolved = (path.parent / relative).resolve()
            if (
                resolved.is_relative_to(root)
                and resolved.exists()
                and resolved not in seen
            ):
                seen.add(resolved)
                queue.append(resolved)
    return seen


def find_orphans(root: pathlib.Path) -> list:
    """Every ``docs/*.md`` file no ROOT_DOC (transitively) links to."""
    root = root.resolve()
    reachable = reachable_markdown(root)
    return [
        path
        for path in sorted(root.glob("docs/*.md"))
        if path.resolve() not in reachable
    ]


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (default: current directory)",
    )
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root)
    files = sorted(root.glob("docs/*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.insert(0, readme)

    problems = []
    for path in files:
        problems.extend(check_file(path, root))
    generated = {root / name for name in GENERATED_DOCS}
    named = [root / name for name in NAME_CHECKED_DOCS if (root / name).exists()]
    named += [path for path in sorted(root.glob("docs/*.md")) if path not in generated]
    for path in named:
        problems.extend(check_names(path, root))
    known = cli_subcommands(root)
    if known is not None:
        for path in sorted(set(files) | set(named)):
            problems.extend(check_subcommands(path, known))
    for orphan in find_orphans(root):
        problems.append(
            f"{orphan}: orphaned (not reachable from "
            + " or ".join(ROOT_DOCS)
            + ")"
        )
    for problem in problems:
        print(problem, file=sys.stderr)
    print(
        f"checked {len(files)} files for links, {len(named)} for names: "
        + ("all resolve" if not problems else f"{len(problems)} broken")
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
