"""The timing graph: a levelized DAG of timing arcs.

STA operates on arcs (driver pin -> sink pin) with delays.  For the
synthetic netlists each gate contributes one node and one arc per
fanin; arc delay = gate intrinsic delay + a wire delay proportional to
the driver's fanout (a simple lumped-C model).  The arc arrays are
stored as flat numpy vectors so whole-graph propagation vectorizes per
level — the idiom the performance guides recommend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.apps.timing.netlist import Netlist

#: wire delay per fanout connection, picoseconds
WIRE_DELAY_PER_FANOUT = 2.5


@dataclass
class TimingGraph:
    """Arc-compressed timing graph.

    Attributes
    ----------
    num_nodes:
        primary inputs + gates (one timing node each).
    arc_src / arc_dst / arc_delay:
        flat arc arrays, sorted by the destination's level so that a
        stable per-level walk is a contiguous slice.
    level_of:
        per-node level (PIs at level 0).
    level_arcs:
        ``level_arcs[l]`` is the (start, end) slice of arcs whose
        destination sits at level ``l``.
    outputs:
        endpoint node ids (primary outputs / flop D-pins).
    """

    num_nodes: int
    num_inputs: int
    arc_src: np.ndarray
    arc_dst: np.ndarray
    arc_delay: np.ndarray
    level_of: np.ndarray
    level_arcs: List[tuple]
    outputs: np.ndarray

    @property
    def num_arcs(self) -> int:
        return int(self.arc_src.size)

    @property
    def depth(self) -> int:
        return int(self.level_of.max(initial=0))

    @classmethod
    def from_netlist(cls, nl: Netlist) -> "TimingGraph":
        """Build the timing graph for *nl* (O(arcs))."""
        num_nodes = nl.num_nodes
        srcs: List[int] = []
        dsts: List[int] = []
        delays: List[float] = []
        level_of = np.zeros(num_nodes, dtype=np.int64)
        fanout = np.zeros(num_nodes, dtype=np.int64)
        for g in nl.gates:
            for f in g.fanin:
                fanout[f] += 1
        for g in nl.gates:
            nid = nl.num_inputs + g.gid
            level_of[nid] = g.level
            for f in g.fanin:
                srcs.append(f)
                dsts.append(nid)
                delays.append(g.delay + WIRE_DELAY_PER_FANOUT * fanout[f])

        arc_src = np.asarray(srcs, dtype=np.int64)
        arc_dst = np.asarray(dsts, dtype=np.int64)
        arc_delay = np.asarray(delays, dtype=np.float64)

        order = np.argsort(level_of[arc_dst], kind="stable")
        arc_src, arc_dst, arc_delay = arc_src[order], arc_dst[order], arc_delay[order]

        depth = int(level_of.max(initial=0))
        dst_levels = level_of[arc_dst]
        level_arcs: List[tuple] = []
        start = 0
        for lvl in range(depth + 1):
            end = int(np.searchsorted(dst_levels, lvl, side="right"))
            level_arcs.append((start, end))
            start = end

        return cls(
            num_nodes=num_nodes,
            num_inputs=nl.num_inputs,
            arc_src=arc_src,
            arc_dst=arc_dst,
            arc_delay=arc_delay,
            level_of=level_of,
            level_arcs=level_arcs,
            outputs=np.asarray(nl.outputs, dtype=np.int64),
        )
