"""The :class:`Heteroflow` graph: task creation, inspection, DOT dump.

Mirrors the paper's ``hf::Heteroflow`` class (§III-A): an object-
oriented container for one task dependency graph, with creation methods
for the four task types, placeholder creation, and DOT visualization
(Listing 11).  Graphs are passive — they execute only when submitted to
an :class:`~repro.core.executor.Executor`.
"""

from __future__ import annotations

import io
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.node import Node, TaskType, bump_structure_version
from repro.core.task import HostTask, KernelTask, PullTask, PushTask, Task, handle_for
from repro.errors import CycleError, FrozenTopologyError, GraphError
from repro.utils.dot import DotWriter

_graph_ids = itertools.count()

#: DOT fill colours per task type, for quick visual triage.
_DOT_STYLE: Dict[TaskType, str] = {
    TaskType.HOST: "white",
    TaskType.PULL: "lightskyblue",
    TaskType.PUSH: "lightsalmon",
    TaskType.KERNEL: "palegreen",
    TaskType.PLACEHOLDER: "lightgray",
}


class Heteroflow:
    """A directed-acyclic task dependency graph."""

    def __init__(self, name: str = "") -> None:
        self.name = name or f"heteroflow{next(_graph_ids)}"
        self._nodes: List[Node] = []
        #: compiled form, set by :meth:`freeze` (docs/runtime.md)
        self._frozen = None
        #: ``(structure version, Lowering)`` of the last fresh
        #: submission, reused while no graph changed
        #: (:meth:`~repro.core.topology.Topology.lower`)
        self._lowered = None

    # -- task creation ---------------------------------------------
    def _add(self, type_: TaskType, name: str = "") -> Node:
        if self._frozen is not None:
            raise FrozenTopologyError("add a task", self.name)
        node = Node(type_, name)
        self._nodes.append(node)
        bump_structure_version()
        return node

    def host(self, callable_: Callable[[], Any], name: str = "") -> HostTask:
        """Create a host task running *callable_* on a CPU core."""
        return HostTask(self._add(TaskType.HOST, name)).host(callable_)

    def pull(self, *args: Any, name: str = "") -> PullTask:
        """Create a pull (H2D) task over a stateful span (Listing 3)."""
        return PullTask(self._add(TaskType.PULL, name)).pull(*args)

    def push(self, source: PullTask, *args: Any, name: str = "") -> PushTask:
        """Create a push (D2H) task from *source*'s device data (Listing 5)."""
        return PushTask(self._add(TaskType.PUSH, name)).push(source, *args)

    def kernel(self, fn: Callable, *args: Any, name: str = "") -> KernelTask:
        """Create a kernel task offloading *fn* to a GPU (Listing 7).

        Pull-task arguments become placement sources; dependencies on
        them must still be added explicitly with ``precede``/``succeed``.
        """
        return KernelTask(self._add(TaskType.KERNEL, name)).kernel(fn, *args)

    def placeholder(self, handle_type: Type[Task] = Task, name: str = "") -> Task:
        """Create a node whose work is bound later (paper §III-A-1).

        The returned handle participates in dependency links right away;
        binding work (``.host(...)``, ``.pull(...)``, ...) must happen
        before execution or the run fails with ``EmptyTaskError``.
        """
        node = self._add(TaskType.PLACEHOLDER, name)
        if handle_type is Task:
            return Task(node)
        if handle_type in (HostTask, PullTask, PushTask, KernelTask):
            return handle_type(node)
        raise GraphError(f"unknown task handle type {handle_type!r}")

    # -- inspection --------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def empty(self) -> bool:
        return not self._nodes

    @property
    def nodes(self) -> List[Node]:
        """Internal node list (used by executor/placement/simulator)."""
        return self._nodes

    def tasks(self) -> List[Task]:
        """Handles for every node, in creation order."""
        return [handle_for(n) for n in self._nodes]

    def num_tasks_of(self, type_: TaskType) -> int:
        return sum(1 for n in self._nodes if n.type is type_)

    def clear(self) -> None:
        """Remove all tasks (outstanding handles become dangling)."""
        if self._frozen is not None:
            raise FrozenTopologyError("clear", self.name)
        self._nodes.clear()
        bump_structure_version()

    # -- validation --------------------------------------------------
    def _kahn(self) -> Tuple[List[int], List[List[int]]]:
        """The one Kahn topological sort behind :meth:`topological_order`,
        :meth:`validate` and slot lowering (:class:`~repro.core.topology.Lowering`).

        Returns ``(order, succ)``: *order* lists creation indices in
        ready order, *succ* maps each creation index to its successors'
        creation indices.  Raises :class:`CycleError` on cycles and
        :class:`GraphError` on edges escaping this graph."""
        nodes = self._nodes
        index = {id(n): i for i, n in enumerate(nodes)}
        succ: List[List[int]] = []
        for n in nodes:
            try:
                succ.append([index[id(s)] for s in n.successors])
            except KeyError:
                s = next(s for s in n.successors if id(s) not in index)
                raise GraphError(
                    f"task {n.name!r} precedes {s.name!r}, "
                    f"which belongs to a different graph"
                ) from None
        indeg = [len(n.dependents) for n in nodes]
        # FIFO Kahn: the ready queue, read from *head*, is the order
        order = [i for i, d in enumerate(indeg) if d == 0]
        head = 0
        while head < len(order):
            for j in succ[order[head]]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    order.append(j)
            head += 1
        if len(order) != len(nodes):
            raise CycleError([n.name for n, d in zip(nodes, indeg) if d > 0])
        return order, succ

    def topological_order(self) -> List[Node]:
        """Kahn topological order; raises :class:`CycleError` on cycles
        and :class:`GraphError` on edges escaping this graph."""
        nodes = self._nodes
        return [nodes[i] for i in self._kahn()[0]]

    def _check_work(self) -> None:
        """Raise :class:`GraphError` for the first node without work."""
        host, pull, push = TaskType.HOST, TaskType.PULL, TaskType.PUSH
        for n in self._nodes:
            t = n.type
            if t is host:
                if n.callable is None:
                    raise GraphError(f"host task {n.name!r} has no callable")
            elif t is TaskType.PLACEHOLDER:
                raise GraphError(f"placeholder task {n.name!r} was never assigned work")
            elif t is pull:
                if n.span is None:
                    raise GraphError(f"pull task {n.name!r} has no span")
            elif t is push:
                if n.source is None or n.span is None:
                    raise GraphError(f"push task {n.name!r} is incompletely bound")
            elif n.kernel_fn is None:
                raise GraphError(f"kernel task {n.name!r} has no kernel")

    def validate(self) -> None:
        """Check the graph is acyclic and every node has work bound."""
        self._kahn()
        self._check_work()

    @property
    def has_gpu_tasks(self) -> bool:
        return any(n.type.is_gpu for n in self._nodes)

    # -- freeze and replay (docs/runtime.md, "Freeze and replay") ----
    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` compiled this graph."""
        return self._frozen is not None

    def freeze(self):
        """Compile this graph into an immutable
        :class:`~repro.core.topology.FrozenTopology` (idempotent).

        The graph is lowered to slots once — the same
        :class:`~repro.core.topology.Lowering` a fresh submission builds
        every time: topological ready-order slots, per-slot successor
        lists, join counters, and host callables; the executor adds
        (and caches) the device-placement plan and buddy-rounded
        footprint on first submission.  ``Executor.run(frozen)`` then
        replays the stored lowering with no per-submission validation,
        lowering, or placement.

        Freezing is one-way: every later mutation — task creation,
        ``precede``/``succeed``, work rebinding, retry/timeout/launch
        configuration, ``clear()`` — raises a structured
        :class:`~repro.errors.FrozenTopologyError`.  Per-submission host
        callables go through ``run(frozen, bindings=...)`` instead.
        """
        if self._frozen is not None:
            return self._frozen
        from repro.core.topology import FrozenTopology

        frozen = FrozenTopology(self)
        self._frozen = frozen
        for n in self._nodes:
            n.frozen = True
        return frozen

    def lint(self, **kwargs):
        """Run the hflint static analyzer over this graph.

        Returns a :class:`repro.analysis.LintReport` of severity-tiered
        diagnostics (dataflow races, use-before-transfer, capacity
        predictions, ...); keyword arguments are forwarded to
        :func:`repro.analysis.lint`.  Purely an inspection — the graph
        is not modified and nothing executes.

        After :meth:`freeze` the graph can no longer change, so reports
        are cached on the frozen topology (one analysis per distinct
        keyword set) and repeat calls return the same object.
        """
        if self._frozen is not None:
            return self._frozen.lint(**kwargs)
        from repro.analysis.linter import lint as _lint

        return _lint(self, **kwargs)

    # -- visualization ------------------------------------------------
    def dump(self, stream: Optional[io.TextIOBase] = None) -> str:
        """Serialize to GraphViz DOT (Listing 11); returns the text."""
        w = DotWriter(self.name)
        for n in self._nodes:
            label = n.name
            if n.type is TaskType.KERNEL:
                gx, _, _ = n.launch.grid
                bx, _, _ = n.launch.block
                label = f"{n.name}\\n<<<{gx},{bx}>>>"
            w.add_node(
                id(n),
                label,
                shape="box" if n.type.is_gpu else "ellipse",
                style="filled",
                fillcolor=_DOT_STYLE[n.type],
            )
        for n in self._nodes:
            for s in n.successors:
                w.add_edge(id(n), id(s))
        return w.render(stream)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Heteroflow({self.name!r}, tasks={len(self._nodes)})"
