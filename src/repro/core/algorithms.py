"""Graph analysis and refinement utilities.

The paper stresses "explicit graph construction and refinement" — these
helpers support that workflow: critical-path and parallelism analysis
against a cost model (scheduling lower bounds), structural statistics,
redundant-edge detection (transitive reduction), and graph composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.model import GraphModel
from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.sim.cost import CostModel


def _node_weight(node: Node, cm: CostModel, machine=None) -> float:
    """A node's standalone duration under *cm* (and optional machine
    rates for copies)."""
    cost = cm.cost_of(node)
    if node.type is TaskType.HOST:
        return cost.cpu_seconds
    if node.type is TaskType.KERNEL:
        return cost.gpu_seconds
    if machine is not None:
        if node.type is TaskType.PULL:
            return machine.h2d_seconds(cost.copy_bytes)
        return machine.d2h_seconds(cost.copy_bytes)
    # default copy rate: 12 GB/s PCIe
    return cost.copy_bytes / 12e9


def critical_path(
    graph: Heteroflow,
    cost_model: Optional[CostModel] = None,
    machine=None,
) -> Tuple[float, List[Node]]:
    """The longest weighted path: a makespan lower bound on any machine.

    Returns ``(length_seconds, nodes_on_path)``.
    """
    cm = cost_model or CostModel()
    order = graph.topological_order()
    dist: Dict[int, float] = {}
    pred: Dict[int, Optional[Node]] = {}
    for n in order:
        w = _node_weight(n, cm, machine)
        best, best_pred = 0.0, None
        for d in n.dependents:
            if dist[d.nid] > best:
                best, best_pred = dist[d.nid], d
        dist[n.nid] = best + w
        pred[n.nid] = best_pred
    if not order:
        return 0.0, []
    end = max(order, key=lambda n: dist[n.nid])
    path = [end]
    while pred[path[-1].nid] is not None:
        path.append(pred[path[-1].nid])  # type: ignore[arg-type]
    path.reverse()
    return dist[end.nid], path


def total_work(graph: Heteroflow, cost_model: Optional[CostModel] = None, machine=None) -> float:
    """Sum of all node durations (the 1-processor makespan bound)."""
    cm = cost_model or CostModel()
    return sum(_node_weight(n, cm, machine) for n in graph.nodes)


def average_parallelism(
    graph: Heteroflow, cost_model: Optional[CostModel] = None, machine=None
) -> float:
    """total work / critical path — the classic parallelism metric.

    No machine with fewer than this many (homogeneous) processors can
    hide the graph's work; no machine with more can beat the span.
    """
    span, _ = critical_path(graph, cost_model, machine)
    if span <= 0:
        return 1.0
    return total_work(graph, cost_model, machine) / span


@dataclass
class GraphStats:
    """Structural summary of a task graph."""

    num_tasks: int
    num_edges: int
    depth: int
    max_level_width: int
    counts_by_type: Dict[str, int] = field(default_factory=dict)
    max_fanout: int = 0
    max_fanin: int = 0
    num_sources: int = 0
    num_sinks: int = 0


def graph_stats(graph: Heteroflow) -> GraphStats:
    """Levelized structural statistics (validates acyclicity)."""
    order = graph.topological_order()
    level: Dict[int, int] = {}
    widths: Dict[int, int] = {}
    for n in order:
        lv = max((level[d.nid] + 1 for d in n.dependents), default=0)
        level[n.nid] = lv
        widths[lv] = widths.get(lv, 0) + 1
    counts: Dict[str, int] = {}
    for n in graph.nodes:
        counts[n.type.value] = counts.get(n.type.value, 0) + 1
    return GraphStats(
        num_tasks=len(graph.nodes),
        num_edges=sum(len(n.successors) for n in graph.nodes),
        depth=max(widths, default=0),
        max_level_width=max(widths.values(), default=0),
        counts_by_type=counts,
        max_fanout=max((len(n.successors) for n in graph.nodes), default=0),
        max_fanin=max((len(n.dependents) for n in graph.nodes), default=0),
        num_sources=sum(1 for n in graph.nodes if not n.dependents),
        num_sinks=sum(1 for n in graph.nodes if not n.successors),
    )


def redundant_edges(graph: Heteroflow) -> List[Tuple[Node, Node]]:
    """Edges implied by transitivity (removable without changing the
    partial order).  The paper's Fig.-3 discussion is exactly about
    exploiting such transitive dependencies instead of adding edges.

    An edge ``u -> v`` is redundant when another successor of ``u``
    already reaches ``v`` — the happens-before query hflint's HF013
    answers from :class:`~repro.analysis.model.GraphModel`'s bitset
    closure.  Edges of the de-duplicated graph are reported once each,
    in node order and then successor order.  Raises
    :class:`~repro.errors.CycleError` on a cycle, like its siblings.
    """
    graph.topological_order()  # CycleError / GraphError, like critical_path
    model = GraphModel(graph)
    out = []
    for u in model.nodes:
        succs = list(dict.fromkeys(u.successors))
        for v in succs:
            if any(s is not v and model.reaches(s, v) for s in succs):
                out.append((u, v))
    return out


def merge(dst: Heteroflow, src: Heteroflow) -> List[Node]:
    """Move every task of *src* into *dst* (composition).

    Handles keep working (nodes are shared, not copied); *src* is left
    empty.  Returns the moved nodes so callers can wire cross-graph
    dependencies afterwards.
    """
    moved = list(src.nodes)
    dst.nodes.extend(moved)
    src.clear()
    return moved


def linearize(graph: Heteroflow) -> None:
    """Force a total order over the current topological order.

    Debugging aid: a linearized graph executes sequentially on any
    executor, making schedules reproducible while bisecting
    concurrency bugs.
    """
    order = graph.topological_order()
    for a, b in zip(order, order[1:]):
        if b not in a.successors:
            a.precede(b)
