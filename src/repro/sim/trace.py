"""Trace analysis: Gantt rendering, utilization breakdown, bottlenecks.

Consumes the ``trace`` of a :class:`~repro.sim.simulator.SimReport`
(``record_trace=True``) or any list of records exposing ``name``,
``type``, ``resource``, ``start``, ``end`` — the
:class:`~repro.core.observer.TraceObserver` records satisfy the same
shape after :func:`records_from_observer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.sim.simulator import SimTaskRecord


def records_from_observer(observer) -> List[SimTaskRecord]:
    """Adapt :class:`~repro.core.observer.TraceObserver` records.

    Wall-clock stamps are rebased to the earliest record; the resource
    label is the worker id (host view of execution).
    """
    recs = observer.records
    if not recs:
        return []
    t0 = min(r.begin for r in recs)
    return [
        SimTaskRecord(
            name=r.name,
            type=r.type,
            resource=f"worker{r.worker_id}" if r.device is None else f"gpu{r.device}",
            start=r.begin - t0,
            end=r.end - t0,
        )
        for r in recs
    ]


@dataclass
class UtilizationRow:
    resource: str
    busy: float
    span: float

    @property
    def utilization(self) -> float:
        return self.busy / self.span if self.span > 0 else 0.0


def utilization_by_resource(
    trace: Sequence[SimTaskRecord], makespan: float | None = None
) -> List[UtilizationRow]:
    """Busy time and utilization per resource, sorted by name."""
    events = [r for r in trace if r.end > r.start]
    if not events:
        return []
    span = makespan if makespan is not None else max(r.end for r in events)
    busy: Dict[str, float] = {}
    for r in events:
        busy[r.resource] = busy.get(r.resource, 0.0) + r.duration
    return [UtilizationRow(res, b, span) for res, b in sorted(busy.items())]


def busiest_tasks(trace: Sequence[SimTaskRecord], k: int = 10) -> List[SimTaskRecord]:
    """The *k* longest-running task instances."""
    return sorted(trace, key=lambda r: -r.duration)[:k]


def concurrency_profile(
    trace: Sequence[SimTaskRecord], type_filter: str | None = None
) -> List[Tuple[float, int]]:
    """Step function of in-flight task count over time.

    Returns (time, level-after-time) breakpoints; useful for checking
    e.g. how many kernels a GPU sustained.
    """
    events: List[Tuple[float, int]] = []
    for r in trace:
        if type_filter is not None and r.type != type_filter:
            continue
        if r.end > r.start:
            events.append((r.start, +1))
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


def peak_concurrency(trace: Sequence[SimTaskRecord], type_filter: str | None = None) -> int:
    prof = concurrency_profile(trace, type_filter)
    return max((lvl for _, lvl in prof), default=0)


def render_gantt(
    trace: Sequence[SimTaskRecord],
    *,
    width: int = 80,
    makespan: float | None = None,
) -> str:
    """ASCII Gantt chart: one row per resource, one glyph per time cell.

    Glyphs: ``#`` host, ``K`` kernel, ``<`` pull (H2D), ``>`` push
    (D2H), ``*`` mixed occupancy within a cell.
    """
    events = [r for r in trace if r.end > r.start]
    if not events:
        return "(empty trace)"
    span = makespan if makespan is not None else max(r.end for r in events)
    if span <= 0:
        return "(zero-length trace)"
    glyph = {"host": "#", "kernel": "K", "pull": "<", "push": ">"}
    rows: Dict[str, List[str]] = {}
    for r in events:
        row = rows.setdefault(r.resource, [" "] * width)
        lo = min(int(r.start / span * width), width - 1)
        hi = min(int(r.end / span * width), width - 1)
        g = glyph.get(r.type, "?")
        for cell in range(lo, hi + 1):
            row[cell] = g if row[cell] in (" ", g) else "*"
    name_w = max(len(n) for n in rows)
    lines = [
        f"{'resource'.ljust(name_w)} |0{' ' * (width - 12)}{span:>9.3f}s|"
    ]
    for name in sorted(rows):
        lines.append(f"{name.ljust(name_w)} |{''.join(rows[name])}|")
    lines.append("legend: # host   K kernel   < pull   > push   * mixed")
    return "\n".join(lines)


def summarize(trace: Sequence[SimTaskRecord], makespan: float | None = None) -> str:
    """One-paragraph textual summary of a trace."""
    events = [r for r in trace if r.end > r.start]
    if not events:
        return "empty trace"
    span = makespan if makespan is not None else max(r.end for r in events)
    util = utilization_by_resource(events, span)
    by_type: Dict[str, int] = {}
    for r in events:
        by_type[r.type] = by_type.get(r.type, 0) + 1
    parts = [f"{len(events)} tasks over {span:.3f}s"]
    parts.append("counts: " + ", ".join(f"{t}={n}" for t, n in sorted(by_type.items())))
    parts.append(
        "utilization: "
        + ", ".join(f"{u.resource}={u.utilization:.0%}" for u in util)
    )
    return "; ".join(parts)
