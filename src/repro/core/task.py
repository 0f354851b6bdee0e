"""Task handles: the user-facing wrapper around graph nodes.

A task handle is a lightweight object wrapping a node pointer (paper
§III-A-1).  Handles compare equal when they wrap the same node, can be
*empty* (placeholders), and expose the fluent dependency methods
``precede``/``succeed`` plus type-specific configuration (kernel shape,
work rebinding).  Every mutating method is a :func:`_mutator`: it bumps
the graph-structure version once its mutation has landed.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional, Tuple

from repro.core.node import Node, TaskType, bump_structure_version
from repro.errors import EmptyTaskError, FrozenTopologyError, GraphError
from repro.gpu.kernel import LaunchConfig
from repro.utils.span import Span


def _mutator(method: Callable) -> Callable:
    """Bump the graph-structure version after *method* ran, even when
    it raised part-way through its mutation: a fresh submission's
    cached lowering must never outlive a change to the graph."""

    @functools.wraps(method)
    def mutate(self, *args: Any, **kwargs: Any) -> Any:
        try:
            return method(self, *args, **kwargs)
        finally:
            bump_structure_version()

    return mutate


class Task:
    """Base handle; may be empty (not yet bound to a node)."""

    __slots__ = ("_node",)

    def __init__(self, node: Optional[Node] = None) -> None:
        self._node = node

    # -- identity ----------------------------------------------------
    @property
    def empty(self) -> bool:
        """True for a placeholder handle with no graph node."""
        return self._node is None

    def _require(self) -> Node:
        if self._node is None:
            raise EmptyTaskError("operation on an empty task handle")
        return self._node

    def _mutable(self, operation: str) -> Node:
        """Resolve the node for a mutating method (a :func:`_mutator`,
        which bumps the structure version after it); raises
        :class:`~repro.errors.FrozenTopologyError` once the owning graph
        was frozen (docs/runtime.md, "Freeze and replay")."""
        node = self._require()
        if node.frozen:
            raise FrozenTopologyError(operation, node.name)
        return node

    @property
    def node(self) -> Node:
        """The underlying node (internal; used by executor/placement)."""
        return self._require()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other._node is self._node

    def __hash__(self) -> int:
        return id(self._node)

    # -- attributes ----------------------------------------------------
    @property
    def name(self) -> str:
        return self._require().name

    @_mutator
    def rename(self, name: str) -> "Task":
        """Set a human-readable name; returns self for chaining."""
        self._mutable("rename").name = str(name)
        return self

    @property
    def type(self) -> TaskType:
        return self._require().type

    @property
    def num_successors(self) -> int:
        return self._require().num_successors

    @property
    def num_dependents(self) -> int:
        return self._require().num_dependents

    # -- dependencies ---------------------------------------------------
    @_mutator
    def precede(self, *tasks: "Task") -> "Task":
        """Force this task to run before every task in *tasks*."""
        me = self._mutable("precede")
        for t in tasks:
            me.precede(t._require())
        return self

    @_mutator
    def succeed(self, *tasks: "Task") -> "Task":
        """Force this task to run after every task in *tasks*."""
        me = self._mutable("succeed")
        for t in tasks:
            t._require().precede(me)
        return self

    # -- resilience (docs/resilience.md) -----------------------------
    @_mutator
    def retry(self, policy: Optional[Any] = None, **kwargs: Any) -> "Task":
        """Attach a per-task :class:`~repro.resilience.RetryPolicy`.

        Accepts a ready policy or its keyword fields
        (``t.retry(max_attempts=5, base_delay=0.01)``); overrides any
        run-level policy for this task only.
        """
        from repro.resilience.policy import RetryPolicy

        node = self._mutable("retry")
        if policy is None:
            policy = RetryPolicy(**kwargs)
        elif kwargs:
            raise GraphError(
                "task.retry() takes a RetryPolicy or keyword fields, not both"
            )
        elif not isinstance(policy, RetryPolicy):
            raise GraphError(
                f"task.retry() takes a RetryPolicy, got {type(policy).__name__}"
            )
        node.retry_policy = policy
        return self

    @_mutator
    def timeout(self, seconds: float) -> "Task":
        """Attach a per-task deadline in seconds (overrides the
        run-level policy timeout for this task)."""
        if seconds is not None and seconds <= 0:
            raise GraphError("task timeout must be positive")
        self._mutable("timeout").timeout_s = None if seconds is None else float(seconds)
        return self

    def effects(self) -> Any:
        """Infer this task's memory effects from its callable's bytecode.

        Returns a :class:`repro.analysis.effects.TaskEffects` describing
        which parameters, captured objects, and pull-task spans the body
        reads or writes, plus nondeterminism markers.  Pure inspection:
        nothing is executed and the graph is not modified.
        """
        from repro.analysis.effects import infer_task_effects

        return infer_task_effects(self._require())

    def __repr__(self) -> str:  # pragma: no cover
        if self._node is None:
            return f"{type(self).__name__}(<empty>)"
        return f"{type(self).__name__}({self._node.name!r})"


class HostTask(Task):
    """Runs a callable on a CPU core."""

    __slots__ = ()

    @_mutator
    def host(self, callable_: Callable[[], Any]) -> "HostTask":
        """(Re)bind the callable; used to fill placeholders."""
        if not callable(callable_):
            raise GraphError("host task requires a callable")
        node = self._mutable("host")
        node.callable = callable_
        node.type = TaskType.HOST
        return self


class PullTask(Task):
    """Copies host data to its assigned GPU (H2D)."""

    __slots__ = ()

    @_mutator
    def pull(self, *args: Any) -> "PullTask":
        """(Re)bind the host span; arguments follow :class:`Span` forms."""
        node = self._mutable("pull")
        node.span = args[0] if len(args) == 1 and isinstance(args[0], Span) else Span(*args)
        node.type = TaskType.PULL
        return self

    @property
    def device(self) -> Optional[int]:
        """GPU ordinal assigned by the last device-placement pass."""
        return self._require().device


class PushTask(Task):
    """Copies a pull task's device data back to the host (D2H)."""

    __slots__ = ()

    @_mutator
    def push(self, source: PullTask, *args: Any) -> "PushTask":
        """(Re)bind the source pull task and target span."""
        if not isinstance(source, PullTask) or source.empty:
            raise GraphError("push task requires a non-empty pull task source")
        node = self._mutable("push")
        node.source = source.node
        node.span = args[0] if len(args) == 1 and isinstance(args[0], Span) else Span(*args)
        node.type = TaskType.PUSH
        return self


class KernelTask(Task):
    """Offloads a kernel callable to its assigned GPU."""

    __slots__ = ()

    @_mutator
    def kernel(self, fn: Callable, *args: Any) -> "KernelTask":
        """(Re)bind the kernel function and arguments.

        Pull-task arguments are gathered as *sources* (paper Listing 8,
        ``gather_sources``): the placement pass uses them to co-locate
        the kernel with its data.  They do **not** create dependency
        edges — dependencies stay explicit, per the paper.
        """
        if not callable(fn):
            raise GraphError("kernel task requires a callable kernel")
        node = self._mutable("kernel")
        node.kernel_fn = fn
        node.kernel_args = tuple(args)
        node.kernel_sources = [a.node for a in args if isinstance(a, PullTask)]
        node.kernel_reads = set()
        node.kernel_writes = set()
        node.type = TaskType.KERNEL
        return self

    # -- access-mode declarations (consumed by repro.analysis) -------
    @_mutator
    def _declare(self, attr: str, pulls: Tuple["PullTask", ...]) -> "KernelTask":
        node = self._mutable(attr.replace("kernel_", ""))
        for p in pulls:
            if not isinstance(p, PullTask) or p.empty:
                raise GraphError(
                    "access-mode declarations take non-empty pull tasks"
                )
            if p.node not in node.kernel_sources:
                raise GraphError(
                    f"kernel {node.name!r} declares access to pull task "
                    f"{p.node.name!r}, which is not among its arguments"
                )
            getattr(node, attr).add(p.node)
        return self

    def reads(self, *pulls: "PullTask") -> "KernelTask":
        """Declare *pulls* read-only for this kernel.

        Kernels are opaque callables, so the static analyzer
        (:mod:`repro.analysis`) must otherwise assume every pull
        argument is read **and** written.  Marking the inputs read-only
        lets unordered kernels legitimately share them (e.g. replicated
        weights, adjacency structures) without tripping the HF011 race
        rule.  Declarations are reset if the kernel is rebound.
        """
        return self._declare("kernel_reads", pulls)

    def writes(self, *pulls: "PullTask") -> "KernelTask":
        """Declare *pulls* written by this kernel (read-write).

        Only needed to override an earlier :meth:`reads` declaration —
        undeclared pull arguments already default to read-write.
        """
        return self._declare("kernel_writes", pulls)

    @_mutator
    def host_fallback(self, fn: Optional[Callable] = None) -> "KernelTask":
        """Register a CPU fallback for graceful degradation.

        When every GPU has failed, the executor runs *fn* over the host
        shadow arrays of the kernel's pull arguments instead of failing
        the topology (docs/resilience.md).  With no argument, the bound
        kernel callable itself is reused — correct whenever the kernel
        is a plain numpy function of its views, which all simulated
        kernels are.
        """
        node = self._mutable("host_fallback")
        if fn is None:
            if node.kernel_fn is None:
                raise GraphError(
                    "host_fallback() without a function requires the "
                    "kernel to be bound first"
                )
            node.fallback_fn = node.kernel_fn
        else:
            if not callable(fn):
                raise GraphError("host fallback requires a callable")
            node.fallback_fn = fn
        return self

    # -- launch-shape builders (paper: .block_x(...) etc.) ----------
    @_mutator
    def _update(self, **kw: int) -> "KernelTask":
        node = self._mutable("update the launch shape of")
        grid = list(node.launch.grid)
        block = list(node.launch.block)
        shm = node.launch.shm
        for key, val in kw.items():
            axis = {"x": 0, "y": 1, "z": 2}[key[-1]]
            if key.startswith("grid"):
                grid[axis] = int(val)
            else:
                block[axis] = int(val)
        node.launch = LaunchConfig(tuple(grid), tuple(block), shm)
        return self

    def grid_x(self, v: int) -> "KernelTask":
        return self._update(grid_x=v)

    def grid_y(self, v: int) -> "KernelTask":
        return self._update(grid_y=v)

    def grid_z(self, v: int) -> "KernelTask":
        return self._update(grid_z=v)

    def block_x(self, v: int) -> "KernelTask":
        return self._update(block_x=v)

    def block_y(self, v: int) -> "KernelTask":
        return self._update(block_y=v)

    def block_z(self, v: int) -> "KernelTask":
        return self._update(block_z=v)

    @_mutator
    def shm(self, nbytes: int) -> "KernelTask":
        node = self._mutable("shm")
        node.launch = LaunchConfig(node.launch.grid, node.launch.block, int(nbytes))
        return self

    @_mutator
    def grid(self, gx: int, gy: int = 1, gz: int = 1) -> "KernelTask":
        node = self._mutable("grid")
        node.launch = LaunchConfig((int(gx), int(gy), int(gz)), node.launch.block, node.launch.shm)
        return self

    @_mutator
    def block(self, bx: int, by: int = 1, bz: int = 1) -> "KernelTask":
        node = self._mutable("block")
        node.launch = LaunchConfig(node.launch.grid, (int(bx), int(by), int(bz)), node.launch.shm)
        return self

    @property
    def launch_config(self) -> LaunchConfig:
        return self._require().launch

    @property
    def sources(self) -> Tuple[PullTask, ...]:
        """The gathered source pull tasks."""
        return tuple(PullTask(n) for n in self._require().kernel_sources)

    @property
    def device(self) -> Optional[int]:
        return self._require().device


_HANDLE_FOR = {
    TaskType.HOST: HostTask,
    TaskType.PULL: PullTask,
    TaskType.PUSH: PushTask,
    TaskType.KERNEL: KernelTask,
    TaskType.PLACEHOLDER: Task,
}


def handle_for(node: Node) -> Task:
    """Wrap *node* in the handle class matching its task type."""
    return _HANDLE_FOR[node.type](node)
