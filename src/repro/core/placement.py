"""Device placement — Algorithm 1 of the paper.

Maps every GPU task to a concrete device before execution:

1. **Grouping** (union-find): each kernel is unioned with its source
   pull tasks, so a kernel and the data it reads always land on the
   same GPU.  Kernels sharing a pull task merge transitively into one
   group.
2. **Bin packing** (balanced load): each group root is packed onto the
   GPU bin with minimum accumulated cost.  The default cost metric is
   the group's total pulled bytes plus a per-kernel weight (so both
   memory pressure and compute spread out); the metric is pluggable,
   matching the paper's "can expose this strategy to a pluggable
   interface for custom cost metrics".

The grouping depends only on the graph's structure, so it is built
once per lowering (:class:`PlacementGroups`); packing runs on every
placement, reading the cost metric's inputs fresh.

Push tasks are not packed: they inherit the device of their source pull
task (their stream "is guaranteed to live in the same GPU context as
the source pull task", Listing 6 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.node import Node, TaskType
from repro.errors import ExecutorError
from repro.utils.union_find import UnionFind

#: Cost metric signature: group members -> nonnegative load contribution.
CostMetric = Callable[[Sequence[Node]], float]

#: Synthetic weight added per kernel so compute-only groups still spread.
KERNEL_WEIGHT = 1024.0


def default_cost_metric(group: Sequence[Node]) -> float:
    """Pulled bytes + per-kernel weight for one placement group."""
    cost = 0.0
    for n in group:
        if n.type is TaskType.PULL and n.span is not None:
            try:
                cost += float(n.span.size_bytes())
            except Exception:
                # span not resolvable yet (host task will populate it);
                # fall back to a nominal unit so packing still balances
                cost += KERNEL_WEIGHT
        elif n.type is TaskType.KERNEL:
            cost += KERNEL_WEIGHT
    return max(cost, 1.0)


def snapshot_assignment(nodes: Sequence[Node]) -> "Tuple[Tuple[Node, int], ...]":
    """Capture the current ``(node, device)`` assignment of every GPU
    task among *nodes* as an immutable snapshot.

    Used by the executor's compiled-plan cache (docs/runtime.md,
    "Freeze and replay"): a frozen graph is placed once and the
    snapshot re-applied per replay with :func:`apply_assignment`,
    instead of re-running Algorithm 1 per submission.
    """
    return tuple((n, n.device) for n in nodes if n.type.is_gpu)


def apply_assignment(pairs: "Tuple[Tuple[Node, int], ...]") -> None:
    """Write a :func:`snapshot_assignment` snapshot back onto its nodes.

    Device ordinals live on the shared graph nodes, so interleaved
    fresh runs or a sibling submission's recovery pass may have moved
    them since the snapshot was taken; re-applying restores the cached
    plan's assignment in O(GPU tasks) with no union-find or packing.
    """
    for node, device in pairs:
        node.device = device


@dataclass
class PlacementResult:
    """Outcome of one placement pass (inspection/testing aid)."""

    #: node -> assigned GPU ordinal (covers pull/kernel/push nodes)
    assignment: Dict[int, int] = field(default_factory=dict)
    #: per-GPU accumulated cost after packing
    loads: List[float] = field(default_factory=list)
    #: group root node-id -> member node-ids
    groups: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def device_of(self, node: Node) -> int:
        return self.assignment[node.nid]

    @property
    def load_imbalance(self) -> float:
        """max/mean load ratio; 1.0 is perfectly balanced."""
        busy = [l for l in self.loads if l > 0]
        if not busy:
            return 1.0
        mean = sum(busy) / len(self.loads)
        return max(self.loads) / mean if mean > 0 else 1.0


class PlacementGroups:
    """Algorithm 1's grouping step (lines 1-7) over one node list.

    Union-find unions each kernel with its source pull tasks; the
    groups and the push tasks depend only on the graph's structure, so
    a :class:`~repro.core.topology.Lowering` computes them once and
    every submission of it packs them afresh
    (:meth:`DevicePlacement.pack`).
    """

    __slots__ = ("groups", "pushes")

    def __init__(self, nodes: Sequence[Node]) -> None:
        uf: UnionFind = UnionFind()
        pushes = []
        for n in nodes:
            t = n.type
            if t is TaskType.PULL:
                uf.add(n)
            elif t is TaskType.KERNEL:
                uf.add(n)
                for p in n.kernel_sources:
                    uf.union(n, p)
            elif t is TaskType.PUSH:
                pushes.append(n)
        #: (root, members) per group, in first-member order
        self.groups: Tuple[Tuple[Node, Tuple[Node, ...]], ...] = tuple(
            (root, tuple(members)) for root, members in uf.groups().items()
        )
        #: push tasks, which inherit their source pull's device
        self.pushes: Tuple[Node, ...] = tuple(pushes)

    @property
    def has_gpu(self) -> bool:
        return bool(self.groups or self.pushes)


class DevicePlacement:
    """Union-find grouping + balanced-load bin packing (Algorithm 1)."""

    def __init__(self, cost_metric: Optional[CostMetric] = None) -> None:
        self.cost_metric = cost_metric or default_cost_metric

    def place(self, nodes: Sequence[Node], num_gpus: int) -> PlacementResult:
        """Assign ``node.device`` for every GPU task among *nodes*.

        Raises :class:`ExecutorError` if GPU tasks exist but
        ``num_gpus == 0``.
        """
        return self.pack(PlacementGroups(nodes), num_gpus)

    def pack(self, grouping: PlacementGroups, num_gpus: int) -> PlacementResult:
        """Algorithm 1's packing step (lines 8-14) over precomputed
        groups, plus push inheritance.  The cost metric runs on every
        call, so span sizes and metric inputs are read fresh."""
        result = PlacementResult(loads=[0.0] * num_gpus)
        if not grouping.has_gpu:
            return result
        if num_gpus <= 0:
            raise ExecutorError(
                "graph contains GPU tasks but the executor has no GPUs"
            )

        # lines 8-14: pack each unique group onto the least-loaded bin.
        # Pack larger groups first (best-fit-decreasing) for tighter
        # balance; the greedy choice per group is the paper's
        # set_bin_packing_with_balanced_load.
        cost_metric = self.cost_metric
        weighted = sorted(
            ((cost_metric(members), root, members) for root, members in grouping.groups),
            key=lambda t: (-t[0], t[1].nid),
        )
        loads = result.loads
        for cost, root, members in weighted:
            bin_ = min(range(num_gpus), key=lambda g: (loads[g], g))
            loads[bin_] += cost
            result.groups[root.nid] = [m.nid for m in members]
            for m in members:
                m.device = bin_
                result.assignment[m.nid] = bin_

        # push tasks inherit their source pull task's device
        for n in grouping.pushes:
            src = n.source
            if src is None or src.device is None:
                raise ExecutorError(
                    f"push task {n.name!r} has no placed source pull task"
                )
            n.device = src.device
            result.assignment[n.nid] = src.device
        return result
