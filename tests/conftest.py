"""Shared fixtures for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import Executor, Heteroflow
from repro.gpu.device import GpuRuntime

#: every verification suite at its smallest size: one scenario per
#: config (stress, replay) or fault class (chaos); two per gateway suite
#: (serve + kill, stall + kill); and the crash suite's first full
#: cadence period (three clean, one journal fault, one crash cycle)
SMALLEST = {
    "stress": 3,
    "replay": 4,
    "sanitize": 3,
    "chaos": 5,
    "soak": 3,
    "gateway": 2,
    "gateway-gray": 2,
    "gateway-crash": 5,
}


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """``verify_run(suite)`` -> ``(exit code, report envelope)`` of
    ``python -m repro verify SUITE --scenarios N --json OUT`` at the
    suite's smallest size, run once per session and shared by every
    test that asserts on it."""
    runs = {}

    def get(suite):
        if suite not in runs:
            out = tmp_path_factory.mktemp("verify") / f"{suite}.json"
            code = main(
                ["verify", suite, "--scenarios", str(SMALLEST[suite]), "--json", str(out)]
            )
            runs[suite] = (code, json.loads(out.read_text()))
        return runs[suite]

    return get


@pytest.fixture
def gpu2():
    """A fresh 2-device simulated GPU runtime, torn down after the test."""
    rt = GpuRuntime(2, memory_bytes=1 << 22)
    yield rt
    rt.destroy()


@pytest.fixture
def executor():
    """A small 2-worker, 2-GPU executor."""
    ex = Executor(num_workers=2, num_gpus=2, gpu_memory_bytes=1 << 22)
    yield ex
    ex.shutdown()


@pytest.fixture
def cpu_executor():
    """A 2-worker, GPU-less executor."""
    ex = Executor(num_workers=2, num_gpus=0)
    yield ex
    ex.shutdown()


def saxpy_kernel(ctx, n, a, x, y):
    """The paper's saxpy written in guarded-index style."""
    i = ctx.flat_indices()
    i = i[i < n]
    y[i] = a * x[i] + y[i]


@pytest.fixture
def saxpy_graph():
    """The Listing-1 saxpy graph over list containers.

    Returns (graph, x, y, n): after one run, y == 2*1 + 2 == 4
    everywhere and x is unchanged.
    """
    n = 4096
    x: list = []
    y: list = []
    hf = Heteroflow("saxpy")
    host_x = hf.host(lambda: x.extend([1] * n), name="host_x")
    host_y = hf.host(lambda: y.extend([2] * n), name="host_y")
    pull_x = hf.pull(x, name="pull_x")
    pull_y = hf.pull(y, name="pull_y")
    kernel = (
        hf.kernel(saxpy_kernel, n, 2, pull_x, pull_y, name="saxpy")
        .block_x(256)
        .grid_x((n + 255) // 256)
    )
    push_x = hf.push(pull_x, x, name="push_x")
    push_y = hf.push(pull_y, y, name="push_y")
    host_x.precede(pull_x)
    host_y.precede(pull_y)
    kernel.succeed(pull_x, pull_y).precede(push_x, push_y)
    return hf, x, y, n
