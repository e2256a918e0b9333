"""Export simulation traces as Chrome-trace (Perfetto-loadable) JSON.

The Chrome trace event format is the JSON array-of-events schema
understood by ``chrome://tracing`` and https://ui.perfetto.dev: each
event carries a phase (``ph``), a microsecond timestamp (``ts``), and a
process/thread coordinate (``pid``/``tid``).

Mapping from :class:`~repro.sim.trace.Tracer` channels:

* ``gpu{N}.{lane}`` channels become thread ``lane`` of process ``N + 1``
  within the run's pid block — one Chrome *process* per simulated GPU,
  with ``kernel`` / ``agent`` / ``transfer`` / ``link:*`` lanes as its
  threads;
* every other channel (``phase``, ``profiler``, ``collective``) becomes a
  thread of the run's process 0 ("simulation" lanes);
* span records export as complete events (``ph: "X"`` with ``dur``),
  instants as instant events (``ph: "i"``).

Multiple tracers (one per simulated :class:`~repro.runtime.system.System`)
merge into one file by assigning each tracer a disjoint pid block, so an
experiment that builds several systems — or a whole suite run — stays
one coherent, openable trace.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from repro.sim.trace import TraceRecord, Tracer

#: Simulated seconds → Chrome-trace microseconds.
TIME_SCALE = 1e6

_GPU_CHANNEL = re.compile(r"^gpu(\d+)\.(.+)$")


def _coordinates(channel: str) -> Tuple[int, str]:
    """(process offset within the run's pid block, thread name)."""
    match = _GPU_CHANNEL.match(channel)
    if match:
        return int(match.group(1)) + 1, match.group(2)
    return 0, channel


def _args(record: TraceRecord) -> Dict:
    if isinstance(record.payload, dict):
        return dict(record.payload)
    if record.payload is None:
        return {}
    return {"payload": record.payload}


def tracer_events(tracer: Tracer, pid_base: int = 0,
                  label: str = "run") -> List[Dict]:
    """Convert one tracer's records into Chrome trace events.

    Returns the event list including process-name metadata; processes
    occupy pids ``pid_base .. pid_base + num_processes - 1``.
    """
    events: List[Dict] = []
    seen_pids: Dict[int, str] = {}
    for record in tracer.records:
        offset, tid = _coordinates(record.channel)
        pid = pid_base + offset
        if offset == 0:
            seen_pids.setdefault(pid, f"{label} sim")
        else:
            seen_pids.setdefault(pid, f"{label} gpu{offset - 1}")
        event = {
            "name": record.label,
            "cat": record.channel,
            "ts": record.time * TIME_SCALE,
            "pid": pid,
            "tid": tid,
            "args": _args(record),
        }
        if record.is_span:
            event["ph"] = "X"
            event["dur"] = record.duration * TIME_SCALE
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    for pid, name in sorted(seen_pids.items()):
        events.append({
            "name": "process_name", "ph": "M", "ts": 0.0,
            "pid": pid, "tid": "meta", "args": {"name": name},
        })
    events.sort(key=lambda e: (e["ph"] != "M", e["ts"], e["pid"]))
    return events


def pid_block_size(tracer: Tracer) -> int:
    """Number of pids :func:`tracer_events` would occupy for a tracer."""
    highest = 0
    for channel in tracer.channels():
        offset, _tid = _coordinates(channel)
        highest = max(highest, offset)
    return highest + 1


def export_chrome_trace(
        traces: Sequence[Tuple[str, Tracer]]) -> Dict:
    """Merge labelled tracers into one Chrome-trace JSON document."""
    events: List[Dict] = []
    pid_base = 0
    for label, tracer in traces:
        events.extend(tracer_events(tracer, pid_base=pid_base, label=label))
        pid_base += pid_block_size(tracer)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_chrome_traces(documents: Iterable[Dict]) -> Dict:
    """Merge already-exported documents, re-basing pids to stay disjoint.

    Used by the experiment runner: each worker process exports its own
    experiment's document, and the parent merges them into one file.
    """
    merged: List[Dict] = []
    pid_base = 0
    for document in documents:
        events = document.get("traceEvents", [])
        highest = -1
        for event in events:
            rebased = dict(event)
            rebased["pid"] = event["pid"] + pid_base
            highest = max(highest, event["pid"])
            merged.append(rebased)
        pid_base += highest + 1
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, pathlib.Path],
                       document: Dict) -> None:
    """Write an exported document as JSON (the ``.json`` Perfetto loads)."""
    pathlib.Path(path).write_text(json.dumps(document) + "\n")
