"""Tests for the baseline executors and placements."""

import numpy as np
import pytest

from repro.baselines import RoundRobinPlacement, SequentialExecutor
from repro.core import Executor, Heteroflow
from repro.errors import ExecutorError, KernelError
from repro.sim import CostModel, MachineSpec, SimExecutor
from tests.conftest import saxpy_kernel


class TestSequentialExecutor:
    def test_saxpy(self, saxpy_graph):
        hf, x, y, n = saxpy_graph
        with SequentialExecutor(num_gpus=1) as seq:
            seq.run(hf)
        assert y == [4] * n

    def test_multi_pass_stateful(self):
        hf = Heteroflow()
        data = np.zeros(8)
        pull = hf.pull(data)

        def inc(arr):
            arr += 1

        k = hf.kernel(inc, pull)
        push = hf.push(pull, data)
        pull.precede(k)
        k.precede(push)
        with SequentialExecutor(num_gpus=1) as seq:
            seq.run(hf, passes=3)
        assert set(data) == {3.0}

    def test_agrees_with_parallel_executor(self, saxpy_graph):
        """Differential: sequential and parallel runtimes produce the
        same final data."""
        hf, x, y, n = saxpy_graph
        with SequentialExecutor(num_gpus=2) as seq:
            seq.run(hf)
        y_seq = list(y)
        x.clear()
        y.clear()
        with Executor(4, 2, gpu_memory_bytes=1 << 22) as ex:
            ex.run(hf).result(timeout=30)
        assert y == y_seq

    def test_gpu_tasks_need_gpus(self):
        hf = Heteroflow()
        hf.pull([1])
        with SequentialExecutor(num_gpus=0) as seq:
            with pytest.raises(ExecutorError):
                seq.run(hf)

    def test_kernel_before_pull_raises(self):
        hf = Heteroflow()
        p = hf.pull([1])
        k = hf.kernel(lambda arr: None, p)
        k.precede(p)  # wrong direction on purpose
        with SequentialExecutor(num_gpus=1) as seq:
            with pytest.raises(KernelError):
                seq.run(hf)

    def test_releases_buffers(self):
        hf = Heteroflow()
        p = hf.pull(np.zeros(64))
        seq = SequentialExecutor(num_gpus=1)
        seq.run(hf)
        assert seq._gpu.device(0).heap.bytes_in_use == 0
        seq.shutdown()


def _mixed_graph(n_chains=8):
    hf = Heteroflow()
    cm = CostModel()
    for i in range(n_chains):
        h = hf.host(lambda: None)
        p = hf.pull([0])
        k = hf.kernel(lambda: None, p)
        h.precede(p)
        p.precede(k)
        cm.annotate_host(h, 1.0)
        cm.annotate_copy(p, 0)
        cm.annotate_kernel(k, 1.0)
    return hf, cm


class TestSimBaselines:
    def test_dedicated_never_faster_on_host_heavy_work(self):
        hf = Heteroflow()
        cm = CostModel()
        for _ in range(16):
            cm.annotate_host(hf.host(lambda: None), 1.0)
        m = MachineSpec(4, 2)
        uni = SimExecutor(m, cm).run(hf).makespan
        ded = SimExecutor(m, cm, dedicated_gpu_workers=True).run(hf).makespan
        assert ded >= uni

    def test_central_queue_never_beats_lifo_on_pipelines(self):
        hf, cm = _mixed_graph(12)
        m = MachineSpec(1, 1)
        lifo = SimExecutor(m, cm).run(hf).makespan
        fifo = SimExecutor(m, cm, ready_policy="fifo").run(hf).makespan
        assert fifo >= lifo - 1e-9

    def test_round_robin_correctness_preserved(self):
        """Round-robin placement still co-locates kernels with their
        pulls, so the real executor runs correctly under it."""
        hf = Heteroflow()
        data = np.zeros(16)
        outs = []
        for i in range(4):
            p = hf.pull(data)
            k = hf.kernel(lambda arr: None, p)
            p.precede(k)
        res = RoundRobinPlacement().place(hf.nodes, 3)
        from repro.core.node import TaskType

        for n in hf.nodes:
            if n.type is TaskType.KERNEL:
                assert n.device == n.kernel_sources[0].device
        _ = outs
