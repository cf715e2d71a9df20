"""Exporting experiment results for external plotting.

The benchmarks print markdown; downstream users plotting with
matplotlib/gnuplot want machine-readable series. This module flattens
:class:`~repro.harness.experiment.ExperimentResult` objects to plain
dicts, serialises batches of results to JSON, and dumps the Figure 8
bandwidth series of a kept context as CSV.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Mapping, Optional

from repro.config import DeviceKind
from repro.harness.experiment import ExperimentResult

#: The scalar fields exported for every run, in column order.
SCALAR_FIELDS = [
    "workload",
    "policy",
    "heap_gb",
    "dram_ratio",
    "elapsed_s",
    "mutator_s",
    "gc_s",
    "minor_gcs",
    "major_gcs",
    "energy_j",
    "monitored_calls",
    "migrated_rdds",
    "spilled_blocks",
    "dropped_blocks",
    "card_scanned_gb",
    "stuck_rescans",
]


def result_to_dict(result: ExperimentResult) -> Dict[str, object]:
    """Flatten one result to JSON-safe scalars."""
    row: Dict[str, object] = {}
    for field in SCALAR_FIELDS:
        value = getattr(result, field)
        row[field] = value.value if field == "policy" else value
    for device, parts in result.energy_by_device.items():
        row[f"{device}_static_j"] = parts["static_j"]
        row[f"{device}_dynamic_j"] = parts["dynamic_j"]
    if result.analysis is not None:
        row["tags"] = {
            var: (tag.value if tag else None)
            for var, tag in result.analysis.tags.items()
        }
    return row


def results_to_json(
    results: Mapping[str, ExperimentResult], indent: Optional[int] = 2
) -> str:
    """Serialise a keyed batch of results to JSON."""
    payload = {key: result_to_dict(r) for key, r in results.items()}
    return json.dumps(payload, indent=indent, sort_keys=True)


def matrix_to_json(
    matrix: Mapping[str, Mapping[str, ExperimentResult]],
    indent: Optional[int] = 2,
) -> str:
    """Serialise a nested ``{workload: {policy: result}}`` matrix to JSON.

    The shape :func:`~repro.harness.matrix.run_matrix` returns; used by
    ``repro matrix --export-json`` and the CI benchmark artifacts.
    """
    payload = {
        workload: {policy: result_to_dict(r) for policy, r in row.items()}
        for workload, row in matrix.items()
    }
    return json.dumps(payload, indent=indent, sort_keys=True)


def bandwidth_csv_from_machine(machine) -> str:
    """Figure 8's series for one live machine as CSV.

    The shared rendering behind :func:`bandwidth_series_to_csv` and the
    cluster executor's per-job artifacts — one code path, so the
    1-executor oracle compares byte-identical text by construction.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["time_s", "device", "direction", "gbps"])
    bw = machine.bandwidth
    for device in (DeviceKind.DRAM, DeviceKind.NVM):
        for is_write, label in ((False, "read"), (True, "write")):
            for sample in bw.series(device, is_write):
                writer.writerow(
                    [f"{sample.time_s:.3f}", device.value, label, f"{sample.gbps:.4f}"]
                )
    return buffer.getvalue()


def bandwidth_series_to_csv(result: ExperimentResult) -> str:
    """Figure 8's series as CSV: time_s, device, direction, gbps.

    Requires a result produced with ``keep_context=True``.
    """
    if result.context is None:
        raise ValueError("bandwidth export needs keep_context=True")
    return bandwidth_csv_from_machine(result.context.machine)

