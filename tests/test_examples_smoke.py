"""Every example script is discovered (no doc rot).

Each example's run is checked by
``tests/test_golden.py::test_example_matches_golden``, which pins its
stdout's digest with and without numpy.
"""

import pathlib

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_all_examples_discovered():
    names = {p.stem for p in EXAMPLES}
    assert {
        "quickstart",
        "pagerank_hybrid",
        "hashjoin_pretenure",
        "static_analysis_tour",
        "wordcount_mapreduce",
        "custom_policy",
        "memtable_cassandra",
    } <= names
