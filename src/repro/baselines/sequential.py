"""Sequential reference executor.

Runs a Heteroflow graph on the calling thread in topological order,
using the same device placement and simulated GPU runtime as the
parallel executor but performing every GPU operation synchronously.
Because it shares no scheduling machinery with
:class:`repro.core.executor.Executor`, it makes a strong differential
oracle: any divergence between the two on the same graph is a real
runtime bug, not a shared-code artifact.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.core.placement import CostMetric, DevicePlacement
from repro.core.topology import kernel_launch
from repro.errors import KernelError
from repro.gpu.device import DEFAULT_MEMORY_BYTES, GpuRuntime, ScopedDeviceContext


class SequentialExecutor:
    """Single-threaded topological-order executor."""

    def __init__(
        self,
        num_gpus: int = 0,
        *,
        gpu_memory_bytes: int = DEFAULT_MEMORY_BYTES,
        cost_metric: Optional[CostMetric] = None,
    ) -> None:
        self._gpu = GpuRuntime(num_gpus, gpu_memory_bytes)
        self._placement = DevicePlacement(cost_metric)
        self._streams = {}

    @property
    def num_gpus(self) -> int:
        return self._gpu.device_count

    def _stream(self, device: int):
        if device not in self._streams:
            self._streams[device] = self._gpu.device(device).create_stream("seq")
        return self._streams[device]

    def run(self, graph: Heteroflow, passes: int = 1) -> None:
        """Execute *graph* to completion, *passes* times (blocking)."""
        graph.validate()
        order: List[Node] = graph.topological_order()
        self._placement.place(graph.nodes, self.num_gpus)
        try:
            for _ in range(passes):
                for node in order:
                    self._invoke(node)
        finally:
            for node in graph.nodes:
                if node.buffer is not None:
                    node.buffer.free()
                    node.buffer = None

    # -- per-type synchronous visitors ---------------------------------
    def _invoke(self, node: Node) -> None:
        if node.type is TaskType.HOST:
            assert node.callable is not None
            node.callable()
            return
        assert node.device is not None or node.type is TaskType.PUSH
        if node.type is TaskType.PULL:
            self._invoke_pull(node)
        elif node.type is TaskType.KERNEL:
            self._invoke_kernel(node)
        elif node.type is TaskType.PUSH:
            self._invoke_push(node)

    def _invoke_pull(self, node: Node) -> None:
        device = self._gpu.device(node.device)
        with ScopedDeviceContext(device):
            stream = self._stream(node.device)
            host = node.span.host_array()
            need = max(int(host.nbytes), 1)
            if node.buffer is not None and (
                node.buffer.device is not device or node.buffer.nbytes < need
            ):
                node.buffer.free()
                node.buffer = None
            if node.buffer is None:
                node.buffer = device.heap.allocate(need, dtype=host.dtype)
            else:
                node.buffer.dtype = host.dtype
            self._gpu.memcpy_h2d_async(node.buffer, host, stream)
            stream.synchronize()

    def _invoke_kernel(self, node: Node) -> None:
        device = self._gpu.device(node.device)
        launch = kernel_launch(node)
        with ScopedDeviceContext(device):
            stream = self._stream(node.device)
            launch.enqueue(stream)
            stream.synchronize()

    def _invoke_push(self, node: Node) -> None:
        src = node.source.buffer
        if src is None:
            raise KernelError(f"push {node.name!r} ordered before its pull task")
        device = src.device
        with ScopedDeviceContext(device):
            stream = self._stream(device.ordinal)
            staging = np.empty(src.size, dtype=src.dtype)
            self._gpu.memcpy_d2h_async(staging, src, stream)
            stream.synchronize()
            node.span.write_back(staging)

    def shutdown(self) -> None:
        self._gpu.destroy()

    def __enter__(self) -> "SequentialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
