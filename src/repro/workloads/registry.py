"""Workload registry: the paper's benchmark names -> program builders."""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet

from repro.errors import ReproError
from repro.workloads.graphx import build_connected_components, build_sssp
from repro.workloads.kmeans import build_kmeans
from repro.workloads.logistic_regression import build_logistic_regression
from repro.workloads.naive_bayes import build_naive_bayes
from repro.workloads.pagerank import WorkloadSpec, build_pagerank
from repro.workloads.transitive_closure import build_transitive_closure

#: Table 4's program abbreviations.
WORKLOADS: Dict[str, Callable[..., WorkloadSpec]] = {
    "PR": build_pagerank,
    "KM": build_kmeans,
    "LR": build_logistic_regression,
    "TC": build_transitive_closure,
    "CC": build_connected_components,
    "SSSP": build_sssp,
    "BC": build_naive_bayes,
}

#: Each builder's keyword names, read once: every run builds its
#: workload, so the check in :func:`build_workload` is a set lookup.
_ACCEPTS: Dict[str, FrozenSet[str]] = {
    name: frozenset(inspect.signature(builder).parameters)
    for name, builder in WORKLOADS.items()
}


def build_workload(name: str, **kwargs) -> WorkloadSpec:
    """Build a workload by its Table 4 abbreviation.

    Input datasets are memoised per process on (scale, seed) — see
    :mod:`repro.workloads.datasets` — so building the same workload for
    several policy cells generates its input once; the program IR itself
    is rebuilt per call (it is cheap and carries per-run RDD identities).

    Args:
        name: one of PR, KM, LR, TC, CC, SSSP, BC.
        **kwargs: forwarded to the builder (``scale``, ``iterations``,
            ``seed``, ``dataset``, ``persist_level``).

    Raises:
        ReproError: for an unknown workload, or a keyword its builder
            does not take (the message names the workloads that do).
    """
    key = name.upper()
    if key not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        raise ReproError(f"unknown workload {name!r}; known: {known}")
    unknown = sorted(set(kwargs) - _ACCEPTS[key])
    if unknown:
        takers = ", ".join(n for n in sorted(WORKLOADS) if unknown[0] in _ACCEPTS[n])
        raise ReproError(
            f"{key} takes no {unknown[0]!r}; workloads that do: {takers or 'none'}"
        )
    return WORKLOADS[key](**kwargs)
