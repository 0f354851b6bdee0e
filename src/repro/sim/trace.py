"""Trace analysis: Gantt rendering, concurrency, bottlenecks.

Reads a list of :class:`~repro.core.observer.TaskRecord`: the ``trace``
of a :class:`~repro.sim.simulator.SimReport` (``record_trace=True``,
virtual seconds from 0) or a :class:`~repro.core.observer.TraceObserver`'s
``records``.  Rows are the lanes of :mod:`repro.core.tracing`
(``worker<N>``, ``gpu<N>``); a chart's time axis starts at the earliest
record.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.observer import TaskRecord
from repro.core.tracing import lane_of, lane_stats


def _span(events: Sequence[TaskRecord], makespan: float | None) -> Tuple[float, float]:
    """``(origin, span)`` of non-empty *events*: the earliest begin, and
    *makespan* or the time from there to the latest end."""
    t0 = min(r.begin for r in events)
    return t0, makespan if makespan is not None else max(r.end for r in events) - t0


def busiest_tasks(trace: Sequence[TaskRecord], k: int = 10) -> List[TaskRecord]:
    """The *k* longest-running task instances."""
    return sorted(trace, key=lambda r: -r.duration)[:k]


def concurrency_profile(
    trace: Sequence[TaskRecord], type_filter: str | None = None
) -> List[Tuple[float, int]]:
    """Step function of in-flight task count over time.

    Returns (time, level-after-time) breakpoints; useful for checking
    e.g. how many kernels a GPU sustained.
    """
    events: List[Tuple[float, int]] = []
    for r in trace:
        if type_filter is not None and r.type != type_filter:
            continue
        if r.end > r.begin:
            events.append((r.begin, +1))
            events.append((r.end, -1))
    events.sort()
    out: List[Tuple[float, int]] = []
    level = 0
    for t, d in events:
        level += d
        if out and out[-1][0] == t:
            out[-1] = (t, level)
        else:
            out.append((t, level))
    return out


def peak_concurrency(trace: Sequence[TaskRecord], type_filter: str | None = None) -> int:
    prof = concurrency_profile(trace, type_filter)
    return max((lvl for _, lvl in prof), default=0)


def render_gantt(
    trace: Sequence[TaskRecord],
    *,
    width: int = 80,
    makespan: float | None = None,
) -> str:
    """ASCII Gantt chart: one row per lane, one glyph per time cell.

    Glyphs: ``#`` host, ``K`` kernel, ``<`` pull (H2D), ``>`` push
    (D2H), ``*`` mixed occupancy within a cell.
    """
    events = [r for r in trace if r.end > r.begin]
    if not events:
        return "(empty trace)"
    t0, span = _span(events, makespan)
    if span <= 0:
        return "(zero-length trace)"
    glyph = {"host": "#", "kernel": "K", "pull": "<", "push": ">"}
    rows: Dict[str, List[str]] = {lane: [" "] * width for lane, _, _ in lane_stats(events)}
    for r in events:
        row = rows[lane_of(r)]
        lo = min(int((r.begin - t0) / span * width), width - 1)
        hi = min(int((r.end - t0) / span * width), width - 1)
        g = glyph.get(r.type, "?")
        for cell in range(lo, hi + 1):
            row[cell] = g if row[cell] in (" ", g) else "*"
    name_w = max(len(n) for n in rows)
    lines = [
        f"{'resource'.ljust(name_w)} |0{' ' * (width - 12)}{span:>9.3f}s|"
    ]
    for name, row in rows.items():
        lines.append(f"{name.ljust(name_w)} |{''.join(row)}|")
    lines.append("legend: # host   K kernel   < pull   > push   * mixed")
    return "\n".join(lines)


def summarize(trace: Sequence[TaskRecord], makespan: float | None = None) -> str:
    """One-paragraph textual summary of a trace."""
    events = [r for r in trace if r.end > r.begin]
    if not events:
        return "empty trace"
    _, span = _span(events, makespan)
    by_type: Dict[str, int] = {}
    for r in events:
        by_type[r.type] = by_type.get(r.type, 0) + 1
    parts = [f"{len(events)} tasks over {span:.3f}s"]
    parts.append("counts: " + ", ".join(f"{t}={n}" for t, n in sorted(by_type.items())))
    parts.append(
        "utilization: "
        + ", ".join(
            f"{lane}={busy / span if span > 0 else 0.0:.0%}"
            for lane, _, busy in lane_stats(events)
        )
    )
    return "; ".join(parts)
