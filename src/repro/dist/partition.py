"""Task-graph partitioning across cluster nodes.

Constraints and objectives, in priority order:

1. **Correctness** — a kernel and its source pull tasks must land on
   one node (they must even land on one *GPU*); push tasks follow
   their source pull.  All three collapse into *atoms* via the same
   union-find the device-placement pass uses.
2. **Balance** — atom costs (cpu + gpu seconds) spread across nodes.
3. **Locality** — cross-node dependency edges (which pay network
   transfers) are minimized greedily: atoms are placed in topological
   order, preferring the node holding the most already-placed
   predecessors, subject to a balance cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.node import Node, TaskType
from repro.errors import SimulationError
from repro.sim.cost import CostModel
from repro.utils.union_find import UnionFind

#: tolerated load overshoot over the running average before locality
#: yields to balance
BALANCE_SLACK = 0.25


@dataclass
class GraphPartition:
    """node-id -> cluster-node assignment plus quality metrics."""

    num_nodes: int
    assignment: Dict[int, int] = field(default_factory=dict)
    loads: List[float] = field(default_factory=list)
    cut_edges: int = 0
    total_edges: int = 0

    @property
    def cut_fraction(self) -> float:
        return self.cut_edges / self.total_edges if self.total_edges else 0.0

    @property
    def load_imbalance(self) -> float:
        busy = [l for l in self.loads if l > 0]
        if not busy:
            return 1.0
        mean = sum(self.loads) / len(self.loads)
        return max(self.loads) / mean if mean > 0 else 1.0


def _atom_cost(members: Sequence[Node], cost_model: CostModel) -> float:
    total = 0.0
    for n in members:
        c = cost_model.cost_of(n)
        total += c.cpu_seconds + c.gpu_seconds
    return max(total, 1e-9)


def partition_graph(
    nodes: Sequence[Node],
    num_cluster_nodes: int,
    cost_model: Optional[CostModel] = None,
) -> GraphPartition:
    """Partition *nodes* over *num_cluster_nodes* nodes.

    Deterministic; raises :class:`SimulationError` on an empty cluster.
    """
    if num_cluster_nodes < 1:
        raise SimulationError("cluster must have at least one node")
    cm = cost_model or CostModel()
    part = GraphPartition(num_cluster_nodes, loads=[0.0] * num_cluster_nodes)
    if not nodes:
        return part

    # 1. atoms: union kernels with their pulls; pushes with sources
    uf: UnionFind = UnionFind()
    for n in nodes:
        uf.add(n)
        if n.type is TaskType.KERNEL:
            for p in n.kernel_sources:
                uf.union(n, p)
        if n.type is TaskType.PUSH and n.source is not None:
            uf.union(n, n.source)
    # chain collapsing: a 1-1 edge (single successor meeting single
    # dependent) offers no parallelism, so cutting it can only cost a
    # network message — merge its endpoints into one atom
    for n in nodes:
        if len(n.successors) == 1 and len(n.successors[0].dependents) == 1:
            uf.union(n, n.successors[0])
    groups = uf.groups()
    atom_of: Dict[int, Node] = {}
    for root, members in groups.items():
        for m in members:
            atom_of[m.nid] = root
    atom_costs = {root.nid: _atom_cost(ms, cm) for root, ms in groups.items()}

    # 2+3. place atoms in topological order of their first member,
    # choosing max predecessor-affinity under a balance cap
    order: List[Node] = _topological(nodes)
    placed: Dict[int, int] = {}  # atom root nid -> cluster node
    total_cost = sum(atom_costs.values())
    for n in order:
        root = atom_of[n.nid]
        if root.nid in placed:
            continue
        members = groups[root]
        # affinity: edges from already-placed atoms into this atom
        affinity = [0.0] * num_cluster_nodes
        for m in members:
            for d in m.dependents:
                src_atom = atom_of[d.nid]
                if src_atom.nid in placed and src_atom.nid != root.nid:
                    affinity[placed[src_atom.nid]] += 1.0
        cap = (sum(part.loads) + atom_costs[root.nid]) / num_cluster_nodes
        cap *= 1.0 + BALANCE_SLACK

        def score(cn: int) -> Tuple[int, float, float, int]:
            over = 1 if part.loads[cn] + atom_costs[root.nid] > cap else 0
            return (over, -affinity[cn], part.loads[cn], cn)

        best = min(range(num_cluster_nodes), key=score)
        placed[root.nid] = best
        part.loads[best] += atom_costs[root.nid]
        for m in members:
            part.assignment[m.nid] = best

    # metrics
    for n in nodes:
        for s in n.successors:
            part.total_edges += 1
            if part.assignment[n.nid] != part.assignment[s.nid]:
                part.cut_edges += 1
    _ = total_cost
    return part


def _topological(nodes: Sequence[Node]) -> List[Node]:
    indeg = {n.nid: len(n.dependents) for n in nodes}
    ready = [n for n in nodes if indeg[n.nid] == 0]
    out: List[Node] = []
    i = 0
    while i < len(ready):
        n = ready[i]
        i += 1
        out.append(n)
        for s in n.successors:
            indeg[s.nid] -= 1
            if indeg[s.nid] == 0:
                ready.append(s)
    if len(out) != len(nodes):
        raise SimulationError("cannot partition a cyclic graph")
    return out
