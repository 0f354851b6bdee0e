"""Graph nodes: the internal storage behind task handles.

A node stores its task type, a polymorphic work payload, dependency
edges, and per-run device state (assigned device, device buffer for
pull tasks).  Readiness is not tracked here: join counters live on the
submission's topology (:mod:`repro.core.topology`).  Every graph
mutation bumps one process-wide *structure version*
(:func:`structure_version`) after it lands; a fresh submission reuses a
graph's lowering while the version has not moved.  User code never
touches nodes directly; the task-handle layer (:mod:`repro.core.task`)
wraps them, exactly as the paper's handle layer wraps graph-node
pointers to "prevent users from direct access to the internal graph
storage".
"""

from __future__ import annotations

import itertools
import threading
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import FrozenTopologyError, GraphError
from repro.gpu.kernel import LaunchConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.memory import DeviceBuffer
    from repro.utils.span import Span

_node_ids = itertools.count()

_version_lock = threading.Lock()
_structure_version = 0


def structure_version() -> int:
    """The graph-structure version: it moves after every mutation of
    any graph (task creation, an edge, rebinding or configuring a task,
    ``clear()``), so an unchanged value means no graph changed."""
    return _structure_version


def bump_structure_version() -> None:
    """Record that a graph mutation has landed.  Called after the
    mutation, never before: a lowering built concurrently with the
    mutation must not be cached under the new version.  The lock keeps
    two concurrent bumps from losing one."""
    global _structure_version
    with _version_lock:
        _structure_version += 1


class TaskType(Enum):
    """The four task categories of the Heteroflow model.

    ``PLACEHOLDER`` marks a created-but-unassigned node; it must be
    given work (via the handle's rebind method) before execution.
    """

    HOST = "host"
    PULL = "pull"
    PUSH = "push"
    KERNEL = "kernel"
    PLACEHOLDER = "placeholder"

    @property
    def is_gpu(self) -> bool:
        return self in _GPU_TYPES


# built once: attribute lookups on the enum class are slow, and is_gpu
# runs per node in lowering and placement
_GPU_TYPES = (TaskType.PULL, TaskType.PUSH, TaskType.KERNEL)


class Node:
    """One vertex of a task dependency graph."""

    __slots__ = (
        "nid",
        "name",
        "type",
        # edges
        "successors",
        "dependents",
        # payloads (by type)
        "callable",  # HOST
        "span",  # PULL (host-side span) / PUSH (target span)
        "source",  # PUSH: the source pull node
        "kernel_fn",  # KERNEL
        "kernel_args",  # KERNEL: raw argument list (may contain pull handles)
        "kernel_sources",  # KERNEL: gathered source pull nodes
        "kernel_reads",  # KERNEL: pulls declared read-only (hflint)
        "kernel_writes",  # KERNEL: pulls declared written (hflint)
        "launch",  # KERNEL: LaunchConfig
        # per-run device state
        "device",
        "buffer",
        # resilience (docs/resilience.md)
        "retry_policy",  # per-task RetryPolicy override
        "timeout_s",  # per-task deadline override (seconds)
        "fallback_fn",  # KERNEL: host fallback callable
        "pull_snapshot",  # PULL: host bytes captured at H2D completion
        "host_shadow",  # PULL: degraded-mode host-resident copy
        # freeze-and-replay (docs/runtime.md, "Freeze and replay")
        "frozen",  # True once the owning graph was frozen
    )

    def __init__(self, type_: TaskType, name: str = "") -> None:
        self.nid = next(_node_ids)
        self.name = name or f"{type_.value}{self.nid}"
        self.type = type_
        self.successors: List[Node] = []
        self.dependents: List[Node] = []
        self.callable: Optional[Callable[[], Any]] = None
        self.span: Optional["Span"] = None
        self.source: Optional[Node] = None
        self.kernel_fn: Optional[Callable] = None
        self.kernel_args: Tuple[Any, ...] = ()
        self.kernel_sources: List[Node] = []
        # declared span access modes; pulls in neither set default to
        # read-write, the conservative assumption the static analyzer
        # (repro.analysis) makes about an opaque kernel callable
        self.kernel_reads: set = set()
        self.kernel_writes: set = set()
        self.launch = LaunchConfig()
        self.device: Optional[int] = None
        self.buffer: Optional["DeviceBuffer"] = None
        self.retry_policy = None
        self.timeout_s: Optional[float] = None
        self.fallback_fn: Optional[Callable] = None
        self.pull_snapshot = None
        self.host_shadow = None
        self.frozen = False

    # -- structure ---------------------------------------------------
    def precede(self, other: "Node") -> None:
        """Add a directed edge self -> other (idempotent duplicate-safe
        at graph level is *not* enforced; the paper allows parallel
        edges and counts each as a dependency)."""
        if other is self:
            raise GraphError(f"task {self.name!r} cannot precede itself")
        if self.frozen or other.frozen:
            raise FrozenTopologyError("precede", self.name)
        self.successors.append(other)
        other.dependents.append(self)
        bump_structure_version()

    @property
    def num_successors(self) -> int:
        return len(self.successors)

    @property
    def num_dependents(self) -> int:
        return len(self.dependents)

    @property
    def is_source(self) -> bool:
        """True if the node has no dependents (run-ready at start)."""
        return not self.dependents

    def __repr__(self) -> str:  # pragma: no cover
        return f"Node({self.type.value}, {self.name!r})"
