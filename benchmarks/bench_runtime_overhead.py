"""TAB-OVERHEAD — per-task scheduling overhead of the real runtime.

The classic tasking-library microbenchmarks (Taskflow reports these):
tasks-per-second throughput on empty host tasks across graph shapes,
and the per-GPU-op overhead of the simulated substrate.  Run on real
threads — on this 1-core/GIL box the absolute numbers characterize the
Python runtime, not the paper's C++ one; the point is tracking
regressions and documenting honest overheads.
"""

import numpy as np
import pytest

from repro.core import Executor, Heteroflow

N_TASKS = 2000


def build_wide():
    hf = Heteroflow("wide")
    for _ in range(N_TASKS):
        hf.host(lambda: None)
    return hf


def build_chain():
    hf = Heteroflow("chain")
    prev = None
    for _ in range(N_TASKS):
        t = hf.host(lambda: None)
        if prev is not None:
            prev.precede(t)
        prev = t
    return hf


def build_diamonds():
    hf = Heteroflow("diamonds")
    for _ in range(N_TASKS // 4):
        a = hf.host(lambda: None)
        b = hf.host(lambda: None)
        c = hf.host(lambda: None)
        d = hf.host(lambda: None)
        a.precede(b, c)
        d.succeed(b, c)
    return hf


@pytest.mark.parametrize(
    "builder", [build_wide, build_chain, build_diamonds], ids=["wide", "chain", "diamond"]
)
def test_overhead_host_tasks(builder, benchmark):
    hf = builder()
    with Executor(2, 0) as ex:
        result = benchmark.pedantic(
            lambda: ex.run(hf).result(), rounds=3, iterations=1
        )
    assert result == 1


def test_overhead_gpu_roundtrip(benchmark):
    """Pull + kernel + push round-trip cost for a tiny payload."""
    hf = Heteroflow()
    data = np.zeros(16)
    p = hf.pull(data)
    k = hf.kernel(lambda a: None, p)
    s = hf.push(p, data)
    p.precede(k)
    k.precede(s)
    with Executor(1, 1) as ex:
        benchmark.pedantic(lambda: ex.run(hf).result(), rounds=5, iterations=1)


GPU_CHAIN = 64


def test_overhead_gpu_chain(benchmark):
    """Per-task cost of the healthy GPU route: a pull, a chain of
    GPU_CHAIN kernels and a push on 1 worker and 1 GPU, no policy.
    ``extra_info["us_per_gpu_task"]`` is the median run over its
    GPU_CHAIN + 2 tasks."""
    hf = Heteroflow("gpu-chain")
    data = np.zeros(16)
    prev = p = hf.pull(data)
    for _ in range(GPU_CHAIN):
        k = hf.kernel(lambda a: None, p)
        prev.precede(k)
        prev = k
    prev.precede(hf.push(p, data))
    with Executor(1, 1) as ex:
        ex.run(hf).result()  # lower and compile outside the timing
        benchmark.pedantic(lambda: ex.run(hf).result(), rounds=30, iterations=1)
    us = benchmark.stats.stats.median * 1e6 / (GPU_CHAIN + 2)
    benchmark.extra_info["us_per_gpu_task"] = us
    print(f"\ngpu chain: {us:.1f} us per healthy GPU task")


def test_overhead_counter_record():
    """Structured record: throughput per shape + executor counters."""
    import time

    from conftest import record_table

    rows = []
    meta = {}
    for name, builder in [
        ("wide", build_wide), ("chain", build_chain), ("diamond", build_diamonds)
    ]:
        hf = builder()
        with Executor(2, 0) as ex:
            t0 = time.perf_counter()
            ex.run(hf).result()
            wall = time.perf_counter() - t0
            snap = ex.metrics.snapshot()
        rows.append([name, N_TASKS, wall * 1e3, N_TASKS / wall])
        meta[name] = {
            "wall_seconds": wall,
            "tasks_executed": snap["executor.tasks_executed"],
            "local_pops": snap["executor.local_pops"],
            "shared_pops": snap["executor.shared_pops"],
            "steals_succeeded": snap["executor.steals_succeeded"],
            "sleeps": snap["executor.sleeps"],
            "queue_high_water": snap["executor.queue_high_water"],
        }
    record_table(
        "TAB-OVERHEAD: host-task throughput (2 workers, real threads)",
        ["shape", "tasks", "wall_ms", "tasks per s"],
        rows,
        notes="per-shape executor counter snapshots ride in the meta payload "
              "(docs/observability.md)",
        meta=meta,
    )


def test_overhead_graph_construction(benchmark):
    """Task-creation throughput (nodes + edges per second)."""
    hf = benchmark(build_diamonds)
    assert hf.num_nodes == N_TASKS
