"""Schedule validation: whole-execution invariants over a trace.

Consumes a graph plus the :class:`~repro.core.observer.TaskRecord` list
a :class:`~repro.core.observer.TraceObserver` collected while the real
executor ran it (or the ``trace`` of a simulated run, the same records
in virtual time), and checks the programming model's execution
invariants:

1. **Exact-once** — every node produced exactly ``passes`` records
   (at most ``passes`` under ``allow_partial``, for cancelled/failed
   runs), and no record refers to a node outside the graph.
2. **Happens-before** — for every dependency edge ``u -> v`` and every
   pass, ``end(u) <= begin(v)`` on the shared monotonic clock.  Passes
   are time-separated by the executor (a pass dispatches only after
   the previous one fully drained), so the k-th record of each node by
   begin time belongs to pass k.
3. **Stream order** — records sharing a (device, stream) pair carry
   unique, stream-local sequence numbers, and both their dispatch
   (begin) and completion (end) stamps are monotone in sequence order:
   an in-order stream never completes ops out of FIFO order.
4. **Placement consistency** — recomputing Algorithm 1's union-find
   groups from the graph (kernel unioned with its source pull tasks),
   every member of a group ran on the same device, every push ran on
   its source pull's device, device ordinals are in range, and host
   tasks never carry a device.

Violations are collected, not raised; :meth:`ScheduleReport.raise_if_failed`
escalates to :class:`~repro.errors.ValidationError`.

Resilience-aware relaxations (docs/resilience.md): records flagged
``fallback`` ran on the host after every GPU failed, so they carry no
device and are exempt from device/placement checks; records flagged
``replayed`` were re-executed after a device failure retracted the
committed first run, so their timestamps are shifted relative to
already-committed neighbours and their device may legitimately differ
from pre-failure records — happens-before and cross-record placement
checks skip edges/groups touching them.  Exact-once counting is *never*
relaxed: retraction keeps the trace at one record per node per pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.core.observer import TaskRecord
from repro.errors import ValidationError
from repro.utils.union_find import UnionFind


@dataclass
class Violation:
    """One broken invariant."""

    kind: str  # "count" | "happens-before" | "stream-order" | "placement"
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.kind}] {self.message}"


@dataclass
class ScheduleReport:
    """Outcome of one validation pass."""

    violations: List[Violation] = field(default_factory=list)
    num_records: int = 0
    num_edges_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            lines = "\n  ".join(str(v) for v in self.violations[:20])
            more = len(self.violations) - 20
            suffix = f"\n  ... and {more} more" if more > 0 else ""
            raise ValidationError(
                f"{len(self.violations)} schedule invariant violation(s):\n  "
                f"{lines}{suffix}"
            )

    def add(self, kind: str, message: str) -> None:
        self.violations.append(Violation(kind, message))


def _check_counts(
    report: ScheduleReport,
    by_nid: Dict[int, List[TaskRecord]],
    nodes: Sequence[Node],
    passes: int,
    allow_partial: bool,
) -> None:
    known = {n.nid for n in nodes}
    for nid, recs in by_nid.items():
        if nid not in known:
            report.add("count", f"trace contains unknown node nid={nid} "
                                f"({recs[0].name!r})")
    for n in nodes:
        got = len(by_nid.get(n.nid, ()))
        if got > passes:
            report.add(
                "count",
                f"task {n.name!r} ran {got} times in {passes} pass(es)",
            )
        elif got < passes and not allow_partial:
            report.add(
                "count",
                f"task {n.name!r} ran {got} times, expected {passes}",
            )


def _check_happens_before(
    report: ScheduleReport,
    by_nid: Dict[int, List[TaskRecord]],
    nodes: Sequence[Node],
) -> None:
    for u in nodes:
        u_recs = by_nid.get(u.nid, [])
        for v in u.successors:
            v_recs = by_nid.get(v.nid, [])
            for k, v_rec in enumerate(v_recs):
                if k >= len(u_recs):
                    # v ran a pass its predecessor never completed
                    report.add(
                        "happens-before",
                        f"task {v.name!r} ran pass {k} but predecessor "
                        f"{u.name!r} has no record for that pass",
                    )
                    continue
                u_rec = u_recs[k]
                if u_rec.replayed or v_rec.replayed:
                    # device-failure replay time-shifted this record
                    # relative to neighbours committed before the fault
                    continue
                report.num_edges_checked += 1
                if u_rec.end > v_rec.begin:
                    report.add(
                        "happens-before",
                        f"task {v.name!r} began {1e6 * (u_rec.end - v_rec.begin):.1f}us "
                        f"before predecessor {u.name!r} ended (pass {k})",
                    )


def _check_stream_order(
    report: ScheduleReport, records: Sequence[TaskRecord]
) -> None:
    streams: Dict[tuple, List[TaskRecord]] = {}
    for r in records:
        if r.stream is None:
            continue
        if r.stream_seq is None:
            report.add(
                "stream-order",
                f"GPU task {r.name!r} has a stream id but no sequence number",
            )
            continue
        streams.setdefault((r.device, r.stream), []).append(r)
    for (device, stream), recs in streams.items():
        seqs = [r.stream_seq for r in recs]
        if len(set(seqs)) != len(seqs):
            report.add(
                "stream-order",
                f"duplicate sequence numbers on gpu{device} stream {stream}",
            )
            continue
        recs = sorted(recs, key=lambda r: r.stream_seq)
        for a, b in zip(recs, recs[1:]):
            if a.begin > b.begin:
                report.add(
                    "stream-order",
                    f"gpu{device} stream {stream}: {b.name!r} (seq {b.stream_seq}) "
                    f"was dispatched before {a.name!r} (seq {a.stream_seq})",
                )
            if a.end > b.end:
                report.add(
                    "stream-order",
                    f"gpu{device} stream {stream}: {b.name!r} (seq {b.stream_seq}) "
                    f"completed before {a.name!r} (seq {a.stream_seq}) — "
                    f"in-order stream executed out of order",
                )


def _check_placement(
    report: ScheduleReport,
    by_nid: Dict[int, List[TaskRecord]],
    nodes: Sequence[Node],
    num_gpus: Optional[int],
) -> None:
    device_of: Dict[int, Optional[int]] = {}
    # nodes that ran degraded on the host (no device) or were replayed
    # onto a surviving device after a failure; cross-record placement
    # checks touching them are skipped (docs/resilience.md)
    fellback: set = set()
    moved: set = set()
    for n in nodes:
        recs = by_nid.get(n.nid, [])
        if any(r.fallback for r in recs):
            fellback.add(n.nid)
        if any(r.replayed for r in recs):
            moved.add(n.nid)
        placed = [r for r in recs if not r.fallback]
        devices = {r.device for r in placed}
        if len(devices) > 1 and n.nid not in moved:
            report.add(
                "placement",
                f"task {n.name!r} ran on multiple devices {sorted(devices)} "
                f"across passes",
            )
        if placed:
            device_of[n.nid] = placed[0].device
    for n in nodes:
        dev = device_of.get(n.nid)
        if n.nid not in device_of:
            continue
        if n.type is TaskType.HOST and dev is not None:
            report.add("placement", f"host task {n.name!r} carries device {dev}")
        if n.type.is_gpu:
            if dev is None:
                if n.nid not in fellback:
                    report.add(
                        "placement", f"GPU task {n.name!r} has no device"
                    )
            elif num_gpus is not None and not 0 <= dev < num_gpus:
                report.add(
                    "placement",
                    f"task {n.name!r} ran on device {dev}, but only "
                    f"{num_gpus} GPU(s) exist",
                )
    # union-find grouping must be respected: a kernel and all its
    # source pull tasks land on one device (paper Algorithm 1)
    uf: UnionFind = UnionFind()
    for n in nodes:
        if n.type in (TaskType.PULL, TaskType.KERNEL):
            uf.add(n)
            if n.type is TaskType.KERNEL:
                for p in n.kernel_sources:
                    uf.union(n, p)
    for root, members in uf.groups().items():
        if any(m.nid in moved or m.nid in fellback for m in members):
            # a fault moved part of this group mid-run; the pre-failure
            # records legitimately disagree with the replayed ones
            continue
        devices = {
            device_of[m.nid] for m in members
            if m.nid in device_of and device_of[m.nid] is not None
        }
        if len(devices) > 1:
            names = ", ".join(repr(m.name) for m in members)
            report.add(
                "placement",
                f"placement group [{names}] split across devices "
                f"{sorted(devices)}",
            )
    for n in nodes:
        if n.type is TaskType.PUSH and n.source is not None:
            if (
                n.nid in moved or n.nid in fellback
                or n.source.nid in moved or n.source.nid in fellback
            ):
                continue
            pdev = device_of.get(n.nid)
            sdev = device_of.get(n.source.nid)
            if pdev is not None and sdev is not None and pdev != sdev:
                report.add(
                    "placement",
                    f"push task {n.name!r} ran on device {pdev} but its "
                    f"source pull {n.source.name!r} ran on device {sdev}",
                )


def validate_schedule(
    graph: Heteroflow,
    records: Sequence[TaskRecord],
    *,
    passes: int = 1,
    num_gpus: Optional[int] = None,
    allow_partial: bool = False,
) -> ScheduleReport:
    """Validate *records* of a run of *graph* against all invariants.

    *passes* is the submitted repeat count (``run`` is 1).  With
    ``allow_partial`` (cancelled or failed runs) tasks may have run
    fewer times than *passes*, but never more, and every record that
    exists must still respect happens-before, stream, and placement
    invariants.
    """
    report = ScheduleReport(num_records=len(records))
    nodes = graph.nodes
    by_nid: Dict[int, List[TaskRecord]] = {}
    for r in records:
        by_nid.setdefault(r.nid, []).append(r)
    for recs in by_nid.values():
        recs.sort(key=lambda r: r.begin)

    _check_counts(report, by_nid, nodes, passes, allow_partial)
    _check_happens_before(report, by_nid, nodes)
    _check_stream_order(report, records)
    _check_placement(report, by_nid, nodes, num_gpus)
    return report
