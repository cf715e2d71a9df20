"""Trace serialisation: JSONL event streams.

One event per line, in emission order, with None-valued fields omitted —
the memray-style interchange format downstream tools (and the CI trace
artifact) consume.  The format round-trips: a stream written with
:func:`events_to_jsonl` and read back with :func:`events_from_jsonl`
replays to the identical heap state.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List

from repro.trace.events import TraceEvent


def events_to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialise an event stream to JSONL (one compact object per line)."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
        for event in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> List[TraceEvent]:
    """Parse a JSONL trace back into events (inverse of
    :func:`events_to_jsonl`)."""
    events: List[TraceEvent] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


def write_events_jsonl(events: Iterable[TraceEvent], path: os.PathLike) -> int:
    """Write a JSONL trace to ``path``; returns the event count."""
    text = events_to_jsonl(list(events))
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")

