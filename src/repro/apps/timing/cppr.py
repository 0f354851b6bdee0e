"""Common path pessimism removal (CPPR).

In corner-based STA the launch and capture clock paths are derated in
opposite directions (early vs late).  The portion of the clock tree
*common* to both paths cannot simultaneously be early and late, so the
pessimism accumulated on the common segment is credited back — CPPR
(paper refs [29]-[31]).

We generate a binary clock tree over the endpoints and compute, for a
(launch, capture) endpoint pair, the credit ``(late - early) derate ×
common-path delay`` where the common path ends at the pair's lowest
common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, seeded_rng


@dataclass
class ClockTree:
    """A binary clock distribution tree.

    Leaves map one-to-one onto *sinks* (flop clock pins / endpoints).
    ``parent[i]`` is the parent of tree node ``i`` (root has -1);
    ``delay[i]`` is the delay of the branch entering node ``i``;
    ``leaf_of[sink]`` is the tree node of the sink's leaf.
    """

    parent: np.ndarray
    delay: np.ndarray
    leaf_of: Dict[int, int]
    depth: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.parent.size)

    def path_to_root(self, sink: int) -> List[int]:
        """Tree nodes from the sink's leaf up to (and including) the root."""
        node = self.leaf_of[sink]
        out = [node]
        while self.parent[node] >= 0:
            node = int(self.parent[node])
            out.append(node)
        return out

    def insertion_delay(self, sink: int) -> float:
        """Total clock latency from the root to *sink*."""
        return float(sum(self.delay[n] for n in self.path_to_root(sink)))

    def lca(self, a: int, b: int) -> int:
        """Lowest common ancestor of two sinks' leaves."""
        na, nb = self.leaf_of[a], self.leaf_of[b]
        while na != nb:
            if self.depth[na] >= self.depth[nb]:
                na = int(self.parent[na])
            else:
                nb = int(self.parent[nb])
        return int(na)

    def common_path_delay(self, a: int, b: int) -> float:
        """Delay of the root → LCA segment shared by both sinks."""
        node = self.lca(a, b)
        total = 0.0
        while node >= 0:
            total += float(self.delay[node])
            node = int(self.parent[node])
        return total


def generate_clock_tree(
    sinks: Sequence[int],
    *,
    seed: SeedLike = 0,
    stage_delay: float = 20.0,
) -> ClockTree:
    """Build a balanced binary tree over *sinks* with jittered delays."""
    sinks = list(sinks)
    if not sinks:
        raise ValueError("clock tree needs at least one sink")
    rng = seeded_rng(seed)

    # build bottom-up: level 0 = leaves, pair up until a single root
    parent: List[int] = []
    delay: List[float] = []
    depth: List[int] = []

    current = []
    leaf_of: Dict[int, int] = {}
    for s in sinks:
        nid = len(parent)
        parent.append(-1)
        delay.append(float(stage_delay * rng.uniform(0.8, 1.2)))
        depth.append(0)
        leaf_of[s] = nid
        current.append(nid)

    while len(current) > 1:
        nxt = []
        for i in range(0, len(current), 2):
            group = current[i : i + 2]
            nid = len(parent)
            parent.append(-1)
            delay.append(float(stage_delay * rng.uniform(0.8, 1.2)))
            depth.append(0)
            for child in group:
                parent[child] = nid
            nxt.append(nid)
        current = nxt

    # root depth 0, growing downward
    parent_arr = np.asarray(parent, dtype=np.int64)
    depth_arr = np.zeros(len(parent), dtype=np.int64)
    # compute depth via repeated passes (tree height ~ log2 sinks)
    changed = True
    while changed:
        changed = False
        for i in range(len(parent)):
            p = parent_arr[i]
            if p >= 0 and depth_arr[i] != depth_arr[p] + 1:
                depth_arr[i] = depth_arr[p] + 1
                changed = True

    return ClockTree(
        parent=parent_arr,
        delay=np.asarray(delay, dtype=np.float64),
        leaf_of=leaf_of,
        depth=depth_arr,
    )


def cppr_credit(
    tree: ClockTree,
    launch: int,
    capture: int,
    *,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> float:
    """Pessimism credit for the (launch, capture) pair.

    Zero when the pair shares no clock segment beyond the root's entry
    or when derates are symmetric-equal; otherwise positive.
    """
    if late_derate < early_derate:
        raise ValueError("late derate must be >= early derate")
    common = tree.common_path_delay(launch, capture)
    return (late_derate - early_derate) * common


def setup_slack_with_cppr(
    tree: ClockTree,
    clock_period: float,
    launch: int,
    capture: int,
    data_arrival: float,
    *,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> Tuple[float, float]:
    """Corner-based setup check for one (launch, capture) flop pair.

    Pessimistic model: the launch clock path is derated *late* (data
    leaves as late as possible) while the capture clock path is derated
    *early* (the capturing edge arrives as early as possible)::

        slack = period + early*capture_latency
                - (late*launch_latency + data_arrival)

    CPPR then credits back the shared clock segment, which cannot be
    simultaneously early and late.  Returns
    ``(pessimistic_slack, cppr_corrected_slack)``; the corrected slack
    is never smaller (CPPR only removes pessimism).
    """
    launch_latency = tree.insertion_delay(launch)
    capture_latency = tree.insertion_delay(capture)
    pessimistic = (
        clock_period
        + early_derate * capture_latency
        - (late_derate * launch_latency + data_arrival)
    )
    credit = cppr_credit(
        tree, launch, capture, early_derate=early_derate, late_derate=late_derate
    )
    return pessimistic, pessimistic + credit
