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
"""

from repro.core.algorithms import (
    average_parallelism,
    critical_path,
    graph_stats,
    redundant_edges,
)
from repro.core.executor import Executor
from repro.core.heteroflow import Heteroflow
from repro.core.node import TaskType
from repro.core.observer import ExecutorObserver, TraceObserver
from repro.core.patterns import gpu_map, parallel_for, pipeline, reduce_tree
from repro.core.placement import DevicePlacement, PlacementResult
from repro.core.serialize import graph_to_dict, graph_to_json, skeleton_from_dict
from repro.core.task import HostTask, KernelTask, PullTask, PushTask, Task
from repro.core.topology import FrozenTopology

__all__ = [
    "DevicePlacement",
    "Executor",
    "ExecutorObserver",
    "FrozenTopology",
    "Heteroflow",
    "HostTask",
    "KernelTask",
    "PlacementResult",
    "PullTask",
    "PushTask",
    "Task",
    "TaskType",
    "TraceObserver",
    "average_parallelism",
    "critical_path",
    "gpu_map",
    "graph_stats",
    "graph_to_dict",
    "graph_to_json",
    "parallel_for",
    "pipeline",
    "redundant_edges",
    "reduce_tree",
    "skeleton_from_dict",
]
