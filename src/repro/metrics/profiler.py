"""Post-process a traced run into a :class:`RunReport`.

The :class:`~repro.core.observer.TraceObserver` leaves behind one
:class:`~repro.core.observer.TaskRecord` per executed task instance.
This module turns that raw evidence into the analysis the paper's
evaluation reasons about:

- **per-lane utilization** — task count, busy seconds and busy
  fraction for each worker lane (host tasks) and GPU lane
  (pull/push/kernel), from :func:`repro.core.tracing.lane_stats`, the
  lanes the chrome-trace export draws;
- **critical path** — the longest path through the *executed* DAG,
  weighted by each task's measured duration (summed across passes).
  Because the executor fires ``on_task_end`` before releasing
  successors and passes are time-separated, the total duration along
  any structural path is bounded by the wall time — so the reported
  ``critical_path.length`` is a sound lower bound on the run and can
  never exceed ``wall_time``;
- **per-task slack** — how much a task's measured duration could grow
  without lengthening the critical path (zero for tasks on it); the
  optimization targets are the zero-slack tasks;
- **steal and placement summaries** — per-worker executed/stolen task
  counts from the executor's metric counters, and tasks-per-device
  from the records.

``RunReport.to_dict()`` is a **stable schema** (:data:`RUN_REPORT_SCHEMA`,
currently ``repro.run-report/1``): field renames or removals require a
version bump, and ``tests/test_metrics.py`` pins a golden instance.
Field-by-field documentation lives in ``docs/observability.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.tracing import lane_stats

if TYPE_CHECKING:  # pragma: no cover - break metrics <-> core cycle
    from repro.core.heteroflow import Heteroflow
    from repro.core.observer import TaskRecord

#: schema identifier embedded in every serialized report; bump on any
#: backwards-incompatible field change
RUN_REPORT_SCHEMA = "repro.run-report/1"


@dataclass
class LaneUtilization:
    """Busy accounting for one execution lane (worker or GPU)."""

    lane: str  #: ``worker<N>`` or ``gpu<N>``
    tasks: int  #: records attributed to the lane
    busy: float  #: summed record durations (seconds)
    utilization: float  #: ``busy / wall_time`` (0 when wall is 0)


@dataclass
class CriticalPathEntry:
    """One task on the critical path, in execution order."""

    name: str
    nid: int
    type: str
    duration: float  #: measured seconds, summed across passes


@dataclass
class RunReport:
    """Profiling summary of one traced executor run (schema v1)."""

    workload: str
    wall_time: float  #: seconds, submission to completion
    num_workers: int
    num_gpus: int
    passes: int
    num_records: int  #: trace records consumed (validator's count)
    tasks_by_type: Dict[str, int] = field(default_factory=dict)
    lanes: List[LaneUtilization] = field(default_factory=list)
    critical_path_length: float = 0.0
    critical_path: List[CriticalPathEntry] = field(default_factory=list)
    #: nid -> slack seconds (tasks with records only)
    slack: Dict[int, float] = field(default_factory=dict)
    #: tasks executed per worker (from ``executor.tasks_executed``)
    tasks_per_worker: List[int] = field(default_factory=list)
    #: steal attempts / successes per worker
    steals_attempted: List[int] = field(default_factory=list)
    steals_succeeded: List[int] = field(default_factory=list)
    #: GPU-task records per device ordinal
    tasks_per_device: Dict[int, int] = field(default_factory=dict)
    #: raw ``MetricsRegistry.snapshot()`` of the owning executor
    counters: Dict[str, object] = field(default_factory=dict)
    #: structured failure/recovery events (retries, timeouts, device
    #: deaths, degradation) in occurrence order; empty for clean runs
    events: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Stable JSON-ready form (see :data:`RUN_REPORT_SCHEMA`)."""
        return {
            "schema": RUN_REPORT_SCHEMA,
            "workload": self.workload,
            "wall_time": self.wall_time,
            "num_workers": self.num_workers,
            "num_gpus": self.num_gpus,
            "passes": self.passes,
            "num_records": self.num_records,
            "tasks_by_type": dict(sorted(self.tasks_by_type.items())),
            "lanes": [
                {
                    "lane": l.lane,
                    "tasks": l.tasks,
                    "busy": l.busy,
                    "utilization": l.utilization,
                }
                for l in self.lanes
            ],
            "critical_path": {
                "length": self.critical_path_length,
                "tasks": [
                    {
                        "name": e.name,
                        "nid": e.nid,
                        "type": e.type,
                        "duration": e.duration,
                    }
                    for e in self.critical_path
                ],
            },
            "slack": {str(nid): s for nid, s in sorted(self.slack.items())},
            "steals": {
                "tasks_per_worker": self.tasks_per_worker,
                "attempted": self.steals_attempted,
                "succeeded": self.steals_succeeded,
            },
            "placement": {
                "tasks_per_device": {
                    str(d): n for d, n in sorted(self.tasks_per_device.items())
                },
            },
            "counters": self.counters,
            "events": self.events,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


def build_run_report(
    graph: Heteroflow,
    records: Sequence[TaskRecord],
    *,
    wall_time: float,
    num_workers: int,
    num_gpus: int,
    passes: int = 1,
    workload: str = "",
    counters: Optional[Dict[str, object]] = None,
    events: Optional[List[dict]] = None,
) -> RunReport:
    """Analyze *records* of a run of *graph* into a :class:`RunReport`.

    *records* may contain entries for other graphs (an executor-wide
    observer on a busy executor); only records whose ``nid`` belongs to
    *graph* are analyzed.  *wall_time* is the caller's submission-to-
    completion measurement on the clock the records use (for a
    simulated run, ``SimReport.trace`` and its makespan).  *counters*
    is an optional
    :meth:`~repro.metrics.registry.MetricsRegistry.snapshot` dict; the
    per-worker steal summary is extracted from the ``executor.*`` keys
    when present.  *events* is the topology's structured
    failure/recovery event list (docs/resilience.md), copied verbatim.
    """
    nodes = graph.nodes
    known = {n.nid for n in nodes}
    recs = [r for r in records if r.nid in known]

    report = RunReport(
        workload=workload or graph.name,
        wall_time=wall_time,
        num_workers=num_workers,
        num_gpus=num_gpus,
        passes=passes,
        num_records=len(recs),
        counters=dict(counters or {}),
        events=list(events or []),
    )

    # task counts by type + per-device placement summary
    for r in recs:
        report.tasks_by_type[r.type] = report.tasks_by_type.get(r.type, 0) + 1
        if r.device is not None:
            report.tasks_per_device[r.device] = (
                report.tasks_per_device.get(r.device, 0) + 1
            )

    report.lanes = [
        LaneUtilization(lane, tasks, busy, busy / wall_time if wall_time > 0 else 0.0)
        for lane, tasks, busy in lane_stats(recs)
    ]

    # critical path + slack over the executed DAG, weighted by each
    # node's total measured duration across passes
    weight: Dict[int, float] = {}
    for r in recs:
        weight[r.nid] = weight.get(r.nid, 0.0) + r.duration
    executed = [n for n in nodes if n.nid in weight]
    if executed:
        order = [n for n in graph.topological_order() if n.nid in weight]
        down: Dict[int, float] = {}  # longest path ending at n (inclusive)
        pred: Dict[int, Optional[object]] = {}
        for n in order:
            best, best_pred = 0.0, None
            for d in n.dependents:
                if d.nid in down and down[d.nid] > best:
                    best, best_pred = down[d.nid], d
            down[n.nid] = best + weight[n.nid]
            pred[n.nid] = best_pred
        up: Dict[int, float] = {}  # longest path starting at n (inclusive)
        for n in reversed(order):
            best = 0.0
            for s in n.successors:
                if s.nid in up and up[s.nid] > best:
                    best = up[s.nid]
            up[n.nid] = best + weight[n.nid]
        end = max(order, key=lambda n: down[n.nid])
        length = down[end.nid]
        path = [end]
        while pred[path[-1].nid] is not None:
            path.append(pred[path[-1].nid])  # type: ignore[arg-type]
        path.reverse()
        report.critical_path_length = length
        report.critical_path = [
            CriticalPathEntry(n.name, n.nid, n.type.value, weight[n.nid])
            for n in path
        ]
        for n in order:
            through = down[n.nid] + up[n.nid] - weight[n.nid]
            report.slack[n.nid] = max(length - through, 0.0)

    # steal summary from the executor counters, when provided
    c = report.counters
    report.tasks_per_worker = list(c.get("executor.tasks_executed", []))  # type: ignore[arg-type]
    report.steals_attempted = list(c.get("executor.steals_attempted", []))  # type: ignore[arg-type]
    report.steals_succeeded = list(c.get("executor.steals_succeeded", []))  # type: ignore[arg-type]
    return report


def render_report_text(report: RunReport) -> str:
    """Human-readable rendering (the ``profile`` CLI's default)."""
    lines = [
        f"== RunReport: {report.workload} ==",
        f"wall time     {report.wall_time * 1e3:9.3f} ms   "
        f"({report.num_workers} worker(s), {report.num_gpus} GPU(s), "
        f"{report.passes} pass(es))",
        f"records       {report.num_records}   "
        + "  ".join(f"{t}={n}" for t, n in sorted(report.tasks_by_type.items())),
    ]
    if report.lanes:
        lines.append("lanes:")
        for l in report.lanes:
            bar = "#" * int(round(l.utilization * 30))
            lines.append(
                f"  {l.lane:<10} {l.tasks:4d} tasks  "
                f"{l.busy * 1e3:9.3f} ms busy  "
                f"{l.utilization * 100:5.1f}% |{bar:<30}|"
            )
    cp = report.critical_path
    lines.append(
        f"critical path {report.critical_path_length * 1e3:9.3f} ms over "
        f"{len(cp)} task(s) "
        f"({report.critical_path_length / report.wall_time * 100:.1f}% of wall)"
        if report.wall_time > 0
        else f"critical path {report.critical_path_length * 1e3:9.3f} ms"
    )
    for e in cp[:12]:
        lines.append(f"  {e.name:<24} {e.type:<7} {e.duration * 1e6:9.1f} us")
    if len(cp) > 12:
        lines.append(f"  ... and {len(cp) - 12} more")
    if report.tasks_per_worker:
        lines.append(f"tasks/worker  {report.tasks_per_worker}")
    if report.steals_attempted:
        lines.append(
            f"steals        attempted={report.steals_attempted} "
            f"succeeded={report.steals_succeeded}"
        )
    if report.tasks_per_device:
        lines.append(
            "gpu tasks     "
            + "  ".join(
                f"gpu{d}={n}" for d, n in sorted(report.tasks_per_device.items())
            )
        )
    if report.events:
        kinds: Dict[str, int] = {}
        for ev in report.events:
            k = str(ev.get("kind", "?"))
            kinds[k] = kinds.get(k, 0) + 1
        lines.append(
            "events        "
            + "  ".join(f"{k}={n}" for k, n in sorted(kinds.items()))
        )
    return "\n".join(lines)
