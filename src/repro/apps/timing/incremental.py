"""Incremental static timing analysis (OpenTimer-2.0 style).

The paper's timing experiment builds on OpenTimer 2.0, whose defining
capability is *incremental* timing: after a local design change (an arc
delay update from re-sizing a gate, re-routing a net, ...), only the
affected cone is re-propagated instead of the whole graph.

:class:`IncrementalTimer` keeps arrival and required times consistent
under :meth:`update_arc_delay` edits with lazy, level-ordered
repropagation:

- a delay edit dirties the arc's endpoints;
- on query (or explicit :meth:`update_timing`), dirty nodes are
  re-evaluated from their incident arcs in level order; a node whose
  value actually changed dirties its neighbours downstream (arrival)
  or upstream (required);
- repropagation therefore touches exactly the changed cone — the
  number of re-evaluated nodes is reported for testing/benchmarking.
"""

from __future__ import annotations

import heapq
from typing import Optional, Set, Tuple

import numpy as np

from repro.apps.timing.graph import TimingGraph
from repro.apps.timing.sta import StaResult, run_sta
from repro.apps.timing.views import View

_EPS = 1e-12


def for_sequential_design(
    design,
    clock_period: float,
    view: Optional[View] = None,
    *,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> "IncrementalTimer":
    """An :class:`IncrementalTimer` over a reg-to-reg design.

    Installs the launch (late clock latency + clk->q) and capture
    (period + early latency - setup) boundary conditions of
    :func:`~repro.apps.timing.sequential.analyze_sequential`, so
    incremental edits maintain *sequential* slacks.
    """
    graph = design.graph
    tree = design.tree
    sources = np.zeros(graph.num_nodes)
    for pi, flop in design.launch_flop_of.items():
        sources[pi] = late_derate * tree.insertion_delay(flop) + design.clk_to_q
    endpoint_required = np.asarray(
        [
            clock_period
            + early_derate * tree.insertion_delay(design.capture_flop_of[int(ep)])
            - design.setup
            for ep in graph.outputs
        ]
    )
    return IncrementalTimer(
        graph,
        view,
        clock_period=clock_period,
        source_arrivals=sources,
        endpoint_required=endpoint_required,
    )


class IncrementalTimer:
    """Maintains arrival/required/slack under arc-delay edits."""

    def __init__(
        self,
        graph: TimingGraph,
        view: Optional[View] = None,
        clock_period: Optional[float] = None,
        *,
        source_arrivals: Optional[np.ndarray] = None,
        endpoint_required: Optional[np.ndarray] = None,
    ) -> None:
        """*source_arrivals*/*endpoint_required* install the same
        boundary conditions :func:`~repro.apps.timing.sta.run_sta`
        accepts, so the timer can maintain register-to-register timing
        (see :func:`for_sequential_design`)."""
        self.graph = graph
        self.view = view
        base = run_sta(
            graph,
            view,
            clock_period,
            source_arrivals=source_arrivals,
            endpoint_required=endpoint_required,
        )
        self.clock_period = base.clock_period
        self.arrival = base.arrival.copy()
        self.required = base.required.copy()
        self._source_arrival = np.zeros(graph.num_nodes)
        if source_arrivals is not None:
            self._source_arrival[:] = source_arrivals
        self._required_at_endpoint = np.full(graph.num_nodes, np.nan)
        if endpoint_required is not None:
            self._required_at_endpoint[graph.outputs] = endpoint_required
        else:
            self._required_at_endpoint[graph.outputs] = self.clock_period
        #: current (possibly edited) derated arc delays
        self.delays = graph.arc_delay.copy()
        if view is not None:
            self.delays *= view.derates(graph.num_arcs)

        # fanin/fanout CSR over arcs for cone walks
        self._fanin_ptr, self._fanin_arcs = self._csr(graph.arc_dst)
        self._fanout_ptr, self._fanout_arcs = self._csr(graph.arc_src)
        self._is_output = np.zeros(graph.num_nodes, dtype=bool)
        self._is_output[graph.outputs] = True

        self._dirty_fwd: Set[int] = set()
        self._dirty_bwd: Set[int] = set()
        #: nodes re-evaluated by the last propagation (for tests/benches)
        self.last_propagation_count = 0
        #: cumulative re-evaluations since construction
        self.total_propagations = 0

    def _csr(self, key: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        order = np.argsort(key, kind="stable")
        counts = np.zeros(self.graph.num_nodes + 1, dtype=np.int64)
        np.add.at(counts[1:], key, 1)
        return np.cumsum(counts), order

    def _fanin_of(self, node: int) -> np.ndarray:
        return self._fanin_arcs[self._fanin_ptr[node] : self._fanin_ptr[node + 1]]

    def _fanout_of(self, node: int) -> np.ndarray:
        return self._fanout_arcs[self._fanout_ptr[node] : self._fanout_ptr[node + 1]]

    # -- edits -------------------------------------------------------
    def update_arc_delay(self, arc: int, new_delay: float) -> None:
        """Set arc *arc* to *new_delay* (already-derated value).

        Lazy: timing is re-propagated on the next query.
        """
        if not 0 <= arc < self.graph.num_arcs:
            raise IndexError(f"arc {arc} out of range")
        if new_delay < 0:
            raise ValueError("arc delays must be non-negative")
        if abs(self.delays[arc] - new_delay) <= _EPS:
            return
        self.delays[arc] = new_delay
        self._dirty_fwd.add(int(self.graph.arc_dst[arc]))
        self._dirty_bwd.add(int(self.graph.arc_src[arc]))

    def scale_arc_delay(self, arc: int, factor: float) -> None:
        """Multiplicative edit (gate re-sizing idiom)."""
        self.update_arc_delay(arc, float(self.delays[arc]) * factor)

    # -- queries -------------------------------------------------------
    @property
    def wns(self) -> float:
        self.update_timing()
        return float((self.required - self.arrival).min())

    def snapshot(self) -> StaResult:
        """A full :class:`StaResult` view of the current state."""
        self.update_timing()
        # rebuild critical arcs for the current delays (cheap pass)
        critical = np.full(self.graph.num_nodes, -1, dtype=np.int64)
        for node in range(self.graph.num_nodes):
            arcs = self._fanin_of(node)
            if arcs.size:
                cand = self.arrival[self.graph.arc_src[arcs]] + self.delays[arcs]
                critical[node] = arcs[int(np.argmax(cand))]
        return StaResult(
            view=self.view,
            clock_period=self.clock_period,
            arrival=self.arrival.copy(),
            required=self.required.copy(),
            critical_arc=critical,
        )

    # -- propagation -------------------------------------------------
    def update_timing(self) -> int:
        """Re-propagate dirty cones; returns nodes re-evaluated."""
        count = 0
        count += self._propagate_forward()
        count += self._propagate_backward()
        self.last_propagation_count = count
        self.total_propagations += count
        return count

    def _eval_arrival(self, node: int) -> float:
        arcs = self._fanin_of(node)
        if arcs.size == 0:
            return float(self._source_arrival[node])
        src = self.graph.arc_src[arcs]
        return float((self.arrival[src] + self.delays[arcs]).max())

    def _eval_required(self, node: int) -> float:
        arcs = self._fanout_of(node)
        best = (
            float(self._required_at_endpoint[node]) if self._is_output[node] else np.inf
        )
        if arcs.size:
            dst = self.graph.arc_dst[arcs]
            best = min(best, float((self.required[dst] - self.delays[arcs]).min()))
        if not np.isfinite(best):
            best = self.clock_period
        return best

    def _propagate_forward(self) -> int:
        if not self._dirty_fwd:
            return 0
        level = self.graph.level_of
        heap = [(int(level[n]), n) for n in self._dirty_fwd]
        heapq.heapify(heap)
        queued = set(self._dirty_fwd)
        self._dirty_fwd.clear()
        count = 0
        while heap:
            _, node = heapq.heappop(heap)
            queued.discard(node)
            count += 1
            new = self._eval_arrival(node)
            if abs(new - self.arrival[node]) <= _EPS:
                continue
            self.arrival[node] = new
            for arc in self._fanout_of(node):
                succ = int(self.graph.arc_dst[arc])
                if succ not in queued:
                    queued.add(succ)
                    heapq.heappush(heap, (int(level[succ]), succ))
        return count

    def _propagate_backward(self) -> int:
        if not self._dirty_bwd:
            return 0
        level = self.graph.level_of
        heap = [(-int(level[n]), n) for n in self._dirty_bwd]
        heapq.heapify(heap)
        queued = set(self._dirty_bwd)
        self._dirty_bwd.clear()
        count = 0
        while heap:
            _, node = heapq.heappop(heap)
            queued.discard(node)
            count += 1
            new = self._eval_required(node)
            if abs(new - self.required[node]) <= _EPS:
                continue
            self.required[node] = new
            for arc in self._fanin_of(node):
                pred = int(self.graph.arc_src[arc])
                if pred not in queued:
                    queued.add(pred)
                    heapq.heappush(heap, (-int(level[pred]), pred))
        return count
