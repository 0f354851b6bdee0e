"""Register-to-register timing with path-based CPPR.

Combinational STA treats primary inputs as time-zero sources and
outputs as period-bounded sinks.  Real designs are *sequential*: data
launches from a flip-flop on a clock edge (launch-clock latency +
clk->q delay), travels through combinational logic, and must arrive at
the capturing flop a setup time before the next edge (period +
capture-clock latency - setup).

Corner analysis derates the launch path *late* and the capture path
*early*; the clock-tree segment common to a specific (launch, capture)
pair cannot be both, so CPPR credits it back — and the credit is
**path-specific**: it depends on which launch flop dominates each
endpoint's arrival.  This module implements that full flow on top of
:func:`~repro.apps.timing.sta.run_sta`'s boundary-condition hooks and
the :mod:`~repro.apps.timing.cppr` clock-tree machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.timing.cppr import ClockTree, cppr_credit, generate_clock_tree
from repro.apps.timing.graph import TimingGraph
from repro.apps.timing.netlist import Netlist
from repro.apps.timing.paths import trace_critical_path
from repro.apps.timing.sta import StaResult, run_sta
from repro.apps.timing.views import View
from repro.utils.rng import derive_seed

#: default flop characteristics (picoseconds)
DEFAULT_CLK_TO_Q = 35.0
DEFAULT_SETUP = 25.0


@dataclass
class SequentialDesign:
    """A combinational core with flops at its boundary.

    Launch flops drive the primary inputs; capture flops sit at the
    endpoints.  One clock tree spans all flops (launchers first, then
    capturers, by sink id).
    """

    netlist: Netlist
    graph: TimingGraph
    tree: ClockTree
    #: PI node id -> launch flop sink id in the clock tree
    launch_flop_of: Dict[int, int]
    #: endpoint node id -> capture flop sink id
    capture_flop_of: Dict[int, int]
    clk_to_q: float = DEFAULT_CLK_TO_Q
    setup: float = DEFAULT_SETUP

    @property
    def num_flops(self) -> int:
        return len(self.launch_flop_of) + len(self.capture_flop_of)


def build_sequential_design(
    netlist: Netlist,
    *,
    seed: int = 0,
    clk_to_q: float = DEFAULT_CLK_TO_Q,
    setup: float = DEFAULT_SETUP,
) -> SequentialDesign:
    """Wrap *netlist* with boundary flops and a spanning clock tree."""
    graph = TimingGraph.from_netlist(netlist)
    launch_ids = list(range(netlist.num_inputs))
    capture_ids = [int(o) for o in graph.outputs]
    # one shared clock tree over every flop; sink ids are node ids,
    # unique because PIs and endpoints are disjoint node sets
    tree = generate_clock_tree(
        launch_ids + capture_ids, seed=derive_seed(seed, "clock-tree")
    )
    return SequentialDesign(
        netlist=netlist,
        graph=graph,
        tree=tree,
        launch_flop_of={pi: pi for pi in launch_ids},
        capture_flop_of={ep: ep for ep in capture_ids},
        clk_to_q=clk_to_q,
        setup=setup,
    )


@dataclass
class SequentialResult:
    """Per-endpoint reg-to-reg timing with and without CPPR."""

    design: SequentialDesign
    clock_period: float
    sta: StaResult
    endpoints: np.ndarray
    #: dominant launch flop per endpoint (critical-path startpoint)
    launch_of_endpoint: np.ndarray
    slack_pessimistic: np.ndarray
    slack_cppr: np.ndarray

    @property
    def wns_pessimistic(self) -> float:
        return float(self.slack_pessimistic.min(initial=np.inf))

    @property
    def wns_cppr(self) -> float:
        return float(self.slack_cppr.min(initial=np.inf))

    @property
    def total_credit(self) -> float:
        return float((self.slack_cppr - self.slack_pessimistic).sum())

    def recovered_violations(self) -> int:
        """Endpoints failing pessimistically but passing after CPPR —
        the false violations pessimism removal exists to eliminate."""
        return int(np.sum((self.slack_pessimistic < 0) & (self.slack_cppr >= 0)))


def analyze_sequential(
    design: SequentialDesign,
    clock_period: Optional[float] = None,
    view: Optional[View] = None,
    *,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> SequentialResult:
    """Full reg-to-reg setup analysis with path-based CPPR."""
    if late_derate < early_derate:
        raise ValueError("late derate must be >= early derate")
    graph = design.graph
    tree = design.tree

    # launch boundary condition: late clock latency + clk->q at PIs
    sources = np.zeros(graph.num_nodes)
    for pi, flop in design.launch_flop_of.items():
        sources[pi] = late_derate * tree.insertion_delay(flop) + design.clk_to_q

    # provisional period if unset: 90% of the smallest period at which
    # every endpoint would (pessimistically) just meet timing, so a
    # realistic fraction of endpoints fail
    sta0 = run_sta(graph, view, clock_period=1.0, source_arrivals=sources)
    if clock_period is None:
        needs = [
            float(sta0.arrival[ep])
            + design.setup
            - early_derate * tree.insertion_delay(design.capture_flop_of[int(ep)])
            for ep in graph.outputs
        ]
        clock_period = 0.9 * max(needs)

    # capture boundary condition per endpoint
    endpoint_required = np.empty(graph.outputs.size)
    for i, ep in enumerate(graph.outputs):
        flop = design.capture_flop_of[int(ep)]
        endpoint_required[i] = (
            clock_period
            + early_derate * tree.insertion_delay(flop)
            - design.setup
        )
    sta = run_sta(
        graph,
        view,
        clock_period=clock_period,
        source_arrivals=sources,
        endpoint_required=endpoint_required,
    )

    # path-based CPPR: per endpoint, find the dominant launch flop via
    # the critical-path startpoint and credit the shared clock segment
    launches = np.empty(graph.outputs.size, dtype=np.int64)
    pess = np.empty(graph.outputs.size)
    cppr = np.empty(graph.outputs.size)
    for i, ep in enumerate(graph.outputs):
        path = trace_critical_path(graph, sta, int(ep))
        start = path.startpoint
        launch_flop = design.launch_flop_of.get(start, -1)
        launches[i] = launch_flop
        slack = endpoint_required[i] - sta.arrival[ep]
        pess[i] = slack
        if launch_flop >= 0:
            credit = cppr_credit(
                tree,
                launch_flop,
                design.capture_flop_of[int(ep)],
                early_derate=early_derate,
                late_derate=late_derate,
            )
        else:
            credit = 0.0  # path starts at a non-flop source
        cppr[i] = slack + credit

    return SequentialResult(
        design=design,
        clock_period=float(clock_period),
        sta=sta,
        endpoints=graph.outputs.copy(),
        launch_of_endpoint=launches,
        slack_pessimistic=pess,
        slack_cppr=cppr,
    )


#: default hold requirement (picoseconds)
DEFAULT_HOLD = 8.0


@dataclass
class HoldResult:
    """Per-endpoint hold-check slacks (same-cycle race analysis)."""

    design: SequentialDesign
    endpoints: np.ndarray
    launch_of_endpoint: np.ndarray
    slack_pessimistic: np.ndarray
    slack_cppr: np.ndarray

    @property
    def whs_pessimistic(self) -> float:
        """Worst hold slack before pessimism removal."""
        return float(self.slack_pessimistic.min(initial=np.inf))

    @property
    def whs_cppr(self) -> float:
        return float(self.slack_cppr.min(initial=np.inf))

    def recovered_violations(self) -> int:
        return int(np.sum((self.slack_pessimistic < 0) & (self.slack_cppr >= 0)))


def analyze_hold(
    design: SequentialDesign,
    view: Optional[View] = None,
    *,
    hold: float = DEFAULT_HOLD,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> HoldResult:
    """Hold (min-delay) analysis: the race the *fast* paths can lose.

    Hold pessimism is the mirror image of setup pessimism: the launch
    clock is derated *early* (data leaves as soon as possible) and the
    capture clock *late* (the same-cycle capturing edge lingers)::

        slack = early*launch_latency + clk->q + min_path
                - (late*capture_latency + hold)

    CPPR credits the shared clock segment's derate window exactly as
    for setup.  The dominant launch flop per endpoint is found with a
    min-plus backtrace (the earliest path's startpoint).
    """
    if late_derate < early_derate:
        raise ValueError("late derate must be >= early derate")
    from repro.apps.timing.sta import min_arrivals

    graph = design.graph
    tree = design.tree
    sources = np.zeros(graph.num_nodes)
    for pi, flop in design.launch_flop_of.items():
        sources[pi] = early_derate * tree.insertion_delay(flop) + design.clk_to_q
    early = min_arrivals(graph, view, source_arrivals=sources)

    delays = graph.arc_delay
    if view is not None:
        delays = delays * view.derates(graph.num_arcs)

    launches = np.empty(graph.outputs.size, dtype=np.int64)
    pess = np.empty(graph.outputs.size)
    cppr = np.empty(graph.outputs.size)
    for i, ep in enumerate(graph.outputs):
        # min-plus backtrace to the earliest startpoint
        node = int(ep)
        guard = 0
        while True:
            arcs = np.nonzero(graph.arc_dst == node)[0]
            if arcs.size == 0:
                break
            srcs = graph.arc_src[arcs]
            cand = early[srcs] + delays[arcs]
            node = int(srcs[int(np.argmin(cand))])
            guard += 1
            if guard > graph.num_nodes:  # pragma: no cover
                raise RuntimeError("min-path backtrace cycled")
        launch_flop = design.launch_flop_of.get(node, -1)
        launches[i] = launch_flop
        capture = design.capture_flop_of[int(ep)]
        slack = float(early[ep]) - (
            late_derate * tree.insertion_delay(capture) + hold
        )
        pess[i] = slack
        if launch_flop >= 0:
            credit = cppr_credit(
                tree,
                launch_flop,
                capture,
                early_derate=early_derate,
                late_derate=late_derate,
            )
        else:
            credit = 0.0
        cppr[i] = slack + credit
    return HoldResult(
        design=design,
        endpoints=graph.outputs.copy(),
        launch_of_endpoint=launches,
        slack_pessimistic=pess,
        slack_cppr=cppr,
    )


def min_feasible_period(
    design: SequentialDesign,
    view: Optional[View] = None,
    *,
    use_cppr: bool = True,
    tolerance: float = 0.01,
    **derates: float,
) -> float:
    """Binary-search the smallest clock period with non-negative WNS.

    The classic "what frequency can this design run at" query; CPPR
    typically buys a faster feasible clock.
    """
    lo, hi = 0.0, 1.0
    # grow hi until feasible
    for _ in range(60):
        res = analyze_sequential(design, hi, view, **derates)
        wns = res.wns_cppr if use_cppr else res.wns_pessimistic
        if wns >= 0:
            break
        lo = hi
        hi *= 2
    else:  # pragma: no cover - pathological design
        raise RuntimeError("could not bound the feasible period")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        res = analyze_sequential(design, mid, view, **derates)
        wns = res.wns_cppr if use_cppr else res.wns_pessimistic
        if wns >= 0:
            hi = mid
        else:
            lo = mid
    return hi
