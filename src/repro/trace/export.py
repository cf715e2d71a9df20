"""Trace serialisation: JSONL event streams.

One event per line, in emission order, with None-valued fields omitted —
the memray-style interchange format downstream tools (and the CI trace
artifact) consume.  Each line is one event's :meth:`TraceEvent.to_dict`.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.trace.events import TraceEvent


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialise an event stream to JSONL (one compact object per line)."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_events_jsonl(events: Iterable[TraceEvent], path: os.PathLike) -> int:
    """Write a JSONL trace to ``path``; returns the event count."""
    text = events_to_jsonl(list(events))
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")
