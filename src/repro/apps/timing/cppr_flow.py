"""Heterogeneous CPPR: batched pessimism credits on the GPU.

The paper cites HeteroCPPR [31] ("Accelerating Common Path Pessimism
Removal with Heterogeneous CPU-GPU Parallelism"): CPPR's per-endpoint
work — finding the launch/capture LCA in the clock tree and crediting
the common-path delay — is embarrassingly parallel over endpoints and
maps naturally onto a GPU batch.

This module provides:

- :func:`cppr_batch_kernel` — a device kernel computing credits for a
  whole batch of (launch, capture) flop pairs via vectorized LCA
  pointer-walks over flattened tree arrays;
- :func:`flatten_tree` — the host-side preparation (parent/depth
  arrays plus root-to-node accumulated delay);
- :func:`build_cppr_flow` — the Heteroflow graph: a host task runs the
  sequential STA and extracts the endpoint pairs, pulls ship the tree
  and pairs to a GPU, the batch kernel computes credits, a push +
  host task fold the corrected slacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.apps.timing.cppr import ClockTree
from repro.apps.timing.paths import trace_critical_path
from repro.apps.timing.sequential import SequentialDesign, analyze_sequential
from repro.core.heteroflow import Heteroflow
from repro.sim.cost import CostModel
from repro.utils.span import Late


def flatten_tree(tree: ClockTree):
    """Device-shippable arrays: (parent, depth, acc_delay).

    ``acc_delay[i]`` is the total branch delay from the root down to
    and including node *i* — the common-path delay of a pair is then
    just ``acc_delay[lca]``.
    """
    parent = tree.parent.astype(np.int64)
    depth = tree.depth.astype(np.int64)
    acc = np.zeros(tree.num_nodes, dtype=np.float64)
    # roots first: process nodes in increasing depth so parents are done
    order = np.argsort(depth, kind="stable")
    for node in order:
        p = parent[node]
        acc[node] = tree.delay[node] + (acc[p] if p >= 0 else 0.0)
    return parent, depth, acc


def cppr_batch_kernel(
    ctx,
    n_pairs,
    derate_window,
    parent,
    depth,
    acc,
    leaf_a,
    leaf_b,
    credits,
) -> None:
    """credits[i] = derate_window * acc[LCA(leaf_a[i], leaf_b[i])].

    The LCA search is a vectorized pointer walk: at each round, every
    still-active pair steps its deeper endpoint one level up — exactly
    the per-thread loop of the CUDA implementation, executed across
    the batch at once.
    """
    n = int(n_pairs)
    a = leaf_a[:n].astype(np.int64)
    b = leaf_b[:n].astype(np.int64)
    valid = a >= 0  # sentinel -1: no common path (credit 0)
    a_safe = np.where(valid, a, 0)
    b_safe = np.where(valid, b, 0)
    active = valid & (a_safe != b_safe)
    guard = 0
    while np.any(active):
        da = depth[a_safe]
        db = depth[b_safe]
        step_a = active & (da >= db)
        step_b = active & (db > da)
        a_safe[step_a] = parent[a_safe[step_a]]
        b_safe[step_b] = parent[b_safe[step_b]]
        active = valid & (a_safe != b_safe)
        guard += 1
        if guard > depth.max() * 2 + 4:
            raise RuntimeError("LCA walk did not converge (corrupt tree?)")
    credits[:n] = np.where(valid, float(derate_window) * acc[a_safe], 0.0)


@dataclass
class CpprFlowState:
    """Shared state of a built CPPR flow."""

    graph: Heteroflow
    cost_model: CostModel
    design: SequentialDesign
    clock_period: float
    early_derate: float
    late_derate: float
    # arrays populated at runtime
    leaf_a: np.ndarray = field(default=None)  # type: ignore[assignment]
    leaf_b: np.ndarray = field(default=None)  # type: ignore[assignment]
    credits: np.ndarray = field(default=None)  # type: ignore[assignment]
    slack_pessimistic: np.ndarray = field(default=None)  # type: ignore[assignment]
    slack_cppr: np.ndarray = field(default=None)  # type: ignore[assignment]
    n_pairs: int = 0
    report: Dict[str, float] = field(default_factory=dict)


def build_cppr_flow(
    design: SequentialDesign,
    clock_period: float,
    *,
    early_derate: float = 0.95,
    late_derate: float = 1.05,
) -> CpprFlowState:
    """Build the heterogeneous CPPR graph over *design*."""
    hf = Heteroflow("hetero-cppr")
    cm = CostModel()
    n_endpoints = int(design.graph.outputs.size)
    parent, depth, acc = flatten_tree(design.tree)

    state = CpprFlowState(
        graph=hf,
        cost_model=cm,
        design=design,
        clock_period=clock_period,
        early_derate=early_derate,
        late_derate=late_derate,
        leaf_a=np.zeros(n_endpoints, dtype=np.int64),
        leaf_b=np.zeros(n_endpoints, dtype=np.int64),
        credits=np.zeros(n_endpoints, dtype=np.float64),
        slack_pessimistic=np.zeros(n_endpoints, dtype=np.float64),
    )

    def extract_pairs() -> None:
        # CPU stage: sequential STA + critical startpoint per endpoint
        res = analyze_sequential(
            design,
            clock_period,
            early_derate=early_derate,
            late_derate=late_derate,
        )
        tree = design.tree
        for i, ep in enumerate(res.endpoints):
            launch = int(res.launch_of_endpoint[i])
            capture = design.capture_flop_of[int(ep)]
            # sentinel -1 encodes "path launches from a non-flop
            # source": no common clock segment, zero credit
            state.leaf_a[i] = tree.leaf_of[launch] if launch >= 0 else -1
            state.leaf_b[i] = tree.leaf_of[capture]
        state.slack_pessimistic[:] = res.slack_pessimistic
        state.n_pairs = len(res.endpoints)

    def finalize() -> None:
        state.slack_cppr = state.slack_pessimistic + state.credits
        state.report = {
            "wns_pessimistic": float(state.slack_pessimistic.min(initial=np.inf)),
            "wns_cppr": float(state.slack_cppr.min(initial=np.inf)),
            "total_credit": float(state.credits.sum()),
            "endpoints": float(state.n_pairs),
        }

    extract = hf.host(extract_pairs, name="extract_pairs")
    pull_parent = hf.pull(parent, name="pull_parent")
    pull_depth = hf.pull(depth, name="pull_depth")
    pull_acc = hf.pull(acc, name="pull_acc")
    pull_a = hf.pull(state.leaf_a, name="pull_leaf_a")
    pull_b = hf.pull(state.leaf_b, name="pull_leaf_b")
    pull_credits = hf.pull(state.credits, name="pull_credits")
    kernel = hf.kernel(
        cppr_batch_kernel,
        Late(lambda: state.n_pairs),
        late_derate - early_derate,
        pull_parent,
        pull_depth,
        pull_acc,
        pull_a,
        pull_b,
        pull_credits,
        name="cppr_batch",
    ).block_x(256).grid_x(max((n_endpoints + 255) // 256, 1))
    push_credits = hf.push(pull_credits, state.credits, name="push_credits")
    fold = hf.host(finalize, name="finalize")

    extract.precede(pull_a, pull_b, pull_credits)
    kernel.succeed(pull_parent, pull_depth, pull_acc, pull_a, pull_b, pull_credits)
    kernel.precede(push_credits)
    push_credits.precede(fold)

    # paper-scale-ish cost annotations (1.5M endpoints would dominate)
    cm.annotate_host(extract, 2.0)
    cm.annotate_kernel(kernel, 0.2)
    cm.annotate_host(fold, 0.1)
    for p in (pull_parent, pull_depth, pull_acc):
        cm.annotate_copy(p, acc.nbytes)
    for p in (pull_a, pull_b, pull_credits, push_credits):
        cm.annotate_copy(p, state.credits.nbytes)
    return state


def reference_credits(state: CpprFlowState) -> np.ndarray:
    """Host-only oracle using the scalar per-pair CPPR implementation."""
    res = analyze_sequential(
        state.design,
        state.clock_period,
        early_derate=state.early_derate,
        late_derate=state.late_derate,
    )
    return res.slack_cppr - res.slack_pessimistic
