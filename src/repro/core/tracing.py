"""Trace lanes and chrome-trace export for :class:`TaskRecord` lists.

A record list comes from a :class:`~repro.core.observer.TraceObserver`
(``observer.records``, wall-clock stamps) or from a simulated run
(``SimReport.trace``, virtual seconds); both are read the same way.
Each record belongs to one *lane*: its GPU for a device op, otherwise
the worker that ran it.  :func:`lane_stats` (the per-lane task count
and busy time the run report and the simulator's summary print) and
the chrome://tracing / Perfetto export below both use that one rule.
"""

from __future__ import annotations

import io
import json
from typing import List, Optional, Sequence, Tuple

from repro.core.observer import TaskRecord

_TYPE_COLORS = {
    "host": "thread_state_running",
    "pull": "rail_load",
    "push": "rail_response",
    "kernel": "cq_build_passed",
}


def lane_of(r: TaskRecord) -> str:
    """``gpu<N>`` for a record with a device, else ``worker<N>``."""
    return f"gpu{r.device}" if r.device is not None else f"worker{r.worker_id}"


def lane_stats(records: Sequence[TaskRecord]) -> List[Tuple[str, int, float]]:
    """``(lane, tasks, busy seconds)`` per lane: worker lanes first,
    then GPU lanes, each group in name order."""
    count: dict = {}
    busy: dict = {}
    for r in records:
        lane = lane_of(r)
        count[lane] = count.get(lane, 0) + 1
        busy[lane] = busy.get(lane, 0.0) + r.duration
    order = sorted(busy, key=lambda lane: (lane.startswith("gpu"), lane))
    return [(lane, count[lane], busy[lane]) for lane in order]


def chrome_trace_events(records: Sequence[TaskRecord]) -> list:
    """Build the event list (``ph: X`` complete events, microseconds
    from the earliest record)."""
    if not records:
        return []
    t0 = min(r.begin for r in records)
    return [
        {
            "name": r.name,
            "cat": r.type,
            "ph": "X",
            "ts": (r.begin - t0) * 1e6,
            "dur": max(r.duration * 1e6, 0.01),
            "pid": 1,
            "tid": lane_of(r),
            "cname": _TYPE_COLORS.get(r.type, "generic_work"),
            "args": {"type": r.type, "worker": r.worker_id, "device": r.device},
        }
        for r in records
    ]


def dump_chrome_trace(
    records: Sequence[TaskRecord], stream: Optional[io.TextIOBase] = None
) -> str:
    """Serialize to a chrome-trace JSON string (and *stream* if given)."""
    text = json.dumps(chrome_trace_events(records), indent=None)
    if stream is not None:
        stream.write(text)
    return text


def write_chrome_trace(records: Sequence[TaskRecord], path: str) -> None:
    """Write a ``.json`` loadable by chrome://tracing or Perfetto."""
    with open(path, "w") as fh:
        dump_chrome_trace(records, fh)
