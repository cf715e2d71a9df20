"""Lineage inspection: Spark-style ``toDebugString`` lineage trees.

The scheduler cuts stages at shuffles as it runs them
(:meth:`~repro.spark.scheduler.Scheduler._ensure_upstream_shuffles`);
this module renders the lineage behind an RDD, marking the shuffle
boundaries and the persisted RDDs.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.spark.rdd import RDD, ShuffleDependency


def lineage_string(rdd: RDD, indent: int = 0, _seen: Optional[Set[int]] = None) -> str:
    """A Spark ``toDebugString``-style rendering of the lineage tree.

    Wide dependencies are marked with ``+-(shuffle)``; persisted RDDs
    with ``[persisted]``; already-printed sub-trees with ``(...)``.
    """
    seen = _seen if _seen is not None else set()
    pad = " " * indent
    marker = " [persisted]" if rdd.persist_level is not None else ""
    line = f"{pad}({rdd.num_partitions}) {type(rdd).__name__}[{rdd.id}] {rdd.name}{marker}"
    if rdd.id in seen:
        return line + " (...)"
    seen.add(rdd.id)
    lines = [line]
    for dep in rdd.deps:
        if isinstance(dep, ShuffleDependency):
            lines.append(f"{pad} +-(shuffle {dep.shuffle_id})")
            lines.append(lineage_string(dep.parent, indent + 4, seen))
        else:
            lines.append(lineage_string(dep.parent, indent + 2, seen))
    return "\n".join(lines)

