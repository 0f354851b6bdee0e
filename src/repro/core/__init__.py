"""Heteroflow core: the task-graph programming model and its runtime.

Public surface:

- :class:`~repro.core.heteroflow.Heteroflow` — build a task dependency
  graph out of host / pull / push / kernel tasks;
- :class:`~repro.core.executor.Executor` — run graphs over N CPU worker
  threads and M (simulated) GPUs with automatic device placement,
  work stealing, per-worker streams and pooled device memory;
- task handles (:class:`~repro.core.task.HostTask`, ...) returned by the
  graph-construction methods, supporting ``precede``/``succeed`` and
  kernel shape configuration.

Graph-analysis helpers (:mod:`~repro.core.algorithms`), composition
patterns (:mod:`~repro.core.patterns`) and serialization
(:mod:`~repro.core.serialize`) are re-exported too; like every name
here they load on first use.
"""

from repro._lazy import attach

# public name -> defining submodule; loaded on first use (PEP 562)
_EXPORTS = {
    "Executor": "repro.core.executor",
    "Heteroflow": "repro.core.heteroflow",
    "TaskType": "repro.core.node",
    "ExecutorObserver": "repro.core.observer",
    "TraceObserver": "repro.core.observer",
    "DevicePlacement": "repro.core.placement",
    "PlacementResult": "repro.core.placement",
    "HostTask": "repro.core.task",
    "KernelTask": "repro.core.task",
    "PullTask": "repro.core.task",
    "PushTask": "repro.core.task",
    "Task": "repro.core.task",
    "FrozenTopology": "repro.core.topology",
    "average_parallelism": "repro.core.algorithms",
    "critical_path": "repro.core.algorithms",
    "graph_stats": "repro.core.algorithms",
    "redundant_edges": "repro.core.algorithms",
    "gpu_map": "repro.core.patterns",
    "parallel_for": "repro.core.patterns",
    "pipeline": "repro.core.patterns",
    "reduce_tree": "repro.core.patterns",
    "graph_to_dict": "repro.core.serialize",
    "graph_to_json": "repro.core.serialize",
    "skeleton_from_dict": "repro.core.serialize",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
