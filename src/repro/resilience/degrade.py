"""Graceful degradation: surviving-GPU re-placement and host fallback.

Two recovery levels, both driven by the executor (docs/resilience.md):

1. **Survivor re-placement** — when a device dies mid-run,
   :func:`replan` re-packs only the union-find placement groups that
   were assigned to dead devices onto the surviving ordinals, seeding
   the bin loads from the groups that stay put (Algorithm 1's balanced
   packing, restricted to what actually moved).

2. **Host shadow execution** — with zero survivors, GPU tasks run on
   the CPU against *shadow* arrays: a degraded pull materializes its
   host span (or its captured replay snapshot) into ``node.host_shadow``,
   a degraded kernel runs its registered ``.host_fallback(fn)`` callable
   over the shadows, and a degraded push writes the shadow back through
   the ordinary span write-back.  The data flow is bit-identical to the
   device path because the simulated device views and the shadows are
   both numpy arrays over the same bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro._lazy import np
from repro.core.node import Node, TaskType
from repro.core.placement import CostMetric, PlacementResult
from repro.errors import KernelError
from repro.gpu.kernel import KernelLaunch, wants_context
from repro.gpu.memory import DeviceBuffer
from repro.utils.span import Late


def kernels_without_fallback(nodes: Iterable[Node]) -> List[Node]:
    """Kernel nodes that cannot degrade to host execution."""
    return [
        n
        for n in nodes
        if n.type is TaskType.KERNEL and n.fallback_fn is None
    ]


def replan(
    nodes: Sequence[Node],
    result: PlacementResult,
    alive: Iterable[int],
    cost_metric: CostMetric,
) -> List[int]:
    """Re-pack placement groups stranded on dead devices onto *alive*
    ordinals, mutating ``node.device`` and ``result.assignment`` in
    place.  Returns the nids that moved.

    Groups already on surviving devices keep their placement; their
    costs seed the per-survivor loads so the moved groups balance
    against real occupancy, not an empty machine.
    """
    alive_sorted = sorted(set(alive))
    if not alive_sorted:
        raise ValueError("replan requires at least one surviving device")
    nid_map: Dict[int, Node] = {n.nid: n for n in nodes}
    loads: Dict[int, float] = {o: 0.0 for o in alive_sorted}

    stranded: List[Tuple[float, int, List[Node]]] = []
    for root, member_ids in result.groups.items():
        members = [nid_map[i] for i in member_ids if i in nid_map]
        if not members:
            continue
        cost = cost_metric(members)
        dev = result.assignment.get(member_ids[0])
        if dev in loads:
            loads[dev] += cost
        else:
            stranded.append((cost, root, members))

    moved: List[int] = []
    for cost, root, members in sorted(stranded, key=lambda t: (-t[0], t[1])):
        bin_ = min(alive_sorted, key=lambda o: (loads[o], o))
        loads[bin_] += cost
        for m in members:
            m.device = bin_
            result.assignment[m.nid] = bin_
            moved.append(m.nid)

    # push tasks re-inherit their (possibly moved) source pull's device
    for n in nodes:
        if n.type is TaskType.PUSH and n.source is not None:
            if n.device != n.source.device:
                moved.append(n.nid)
            n.device = n.source.device
            result.assignment[n.nid] = n.source.device
    return moved


# -- host shadow execution (zero survivors) -------------------------

def run_degraded_pull(node: Node, use_snapshot: bool) -> None:
    """Materialize the pull's data into a host shadow array.

    A *replayed* pull (its device copy was lost after it already ran)
    reads the snapshot captured at H2D completion time, not the live
    span — a completed push may have overwritten the host array since.
    """
    if use_snapshot and node.pull_snapshot is not None:
        src = node.pull_snapshot
    else:
        src = node.span.host_array()
    node.host_shadow = np.array(src, copy=True)


def run_degraded_kernel(node: Node, launch: KernelLaunch) -> None:
    """Run the kernel's registered host fallback over shadow arrays,
    with the arguments its compiled *launch* sorted: pull positions
    take the pulls' shadows and :class:`Late` arguments resolve."""
    fn = node.fallback_fn
    if fn is None:
        raise KernelError(
            f"kernel task {node.name!r} has no host fallback registered"
        )
    args = list(launch.args)
    for i, pull in launch.pulls:
        if pull.host_shadow is None:
            raise KernelError(
                f"kernel task {node.name!r} reads pull task "
                f"{pull.name!r}, which has no degraded host data"
            )
        args[i] = pull.host_shadow
    for i in launch.convert:
        if isinstance(args[i], DeviceBuffer):
            raise KernelError(
                f"kernel task {node.name!r} takes a raw device buffer "
                f"argument and cannot degrade to host execution"
            )
        if isinstance(args[i], Late):
            args[i] = args[i].resolve()
    launch.call(fn, args, -1, wants_context(fn))


def run_degraded_push(node: Node) -> None:
    """Write the source pull's shadow back into the push target span."""
    src = node.source
    if src is None or src.host_shadow is None:
        raise KernelError(
            f"push task {node.name!r} has no degraded source data"
        )
    node.span.write_back(src.host_shadow)
