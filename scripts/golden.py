#!/usr/bin/env python3
"""Rewrite the committed golden-digest corpus (``tests/golden/digests.json``).

The corpus pins the simulator's byte-identical output for a fixed matrix
of traced, faulted cells (see ``tests/golden/corpus.py``);
``tests/test_golden.py`` checks it in the tier-1 suite.  Run this only
when a change is *meant* to alter simulated output, then review the
printed list of changed cells and the ``git diff`` of the corpus before
committing it: every changed digest is a behaviour change.

Usage::

    PYTHONPATH=src python scripts/golden.py --accept
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from tests.golden import corpus  # noqa: E402


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--accept",
        action="store_true",
        help="overwrite the committed corpus with this tree's digests",
    )
    args = parser.parse_args(argv)
    if not args.accept:
        parser.error(
            "pass --accept to rewrite the corpus; "
            "`pytest tests/test_golden.py` is the check"
        )
    old = corpus.load_digests() if corpus.DIGESTS_PATH.exists() else {}
    new = corpus.compute_corpus()
    corpus.write_digests(new)
    changed = sorted(k for k in new.keys() | old.keys() if old.get(k) != new.get(k))
    for key in changed:
        print(f"changed: {key}")
    print(f"{len(new)} cells written, {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
