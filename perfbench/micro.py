"""Micro-benchmarks of the primitives under the executor.

Each function times a fixed number of calls into one public primitive
in batches and returns the median per-call cost, so one slow batch
(a scheduler hiccup) does not move the figure.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.core.notifier import Notifier
from repro.core.wsq import WorkStealingQueue
from repro.gpu.device import Device

from measure import median

BATCHES = 7


def _per_call(batch: Callable[[int], None], calls: int) -> float:
    """Median seconds per call over :data:`BATCHES` batches of *calls*."""
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        batch(calls)
        samples.append((time.perf_counter() - t0) / calls)
    return median(samples)


def wsq_push_pop_ns(calls: int = 20_000) -> float:
    """Owner-side ``push`` + ``pop`` pair on a work-stealing queue."""
    q = WorkStealingQueue()
    push, pop = q.push, q.pop

    def batch(n: int) -> None:
        for i in range(n):
            push(i)
            pop()

    return _per_call(batch, calls) * 1e9


def wsq_steal_ns(calls: int = 20_000) -> float:
    """Thief-side ``steal`` of a queued item (the pushes are untimed)."""
    q = WorkStealingQueue()
    steal = q.steal
    samples = []
    for _ in range(BATCHES):
        for i in range(calls):
            q.push(i)
        t0 = time.perf_counter()
        for _ in range(calls):
            steal()
        samples.append((time.perf_counter() - t0) / calls)
    return median(samples) * 1e9


def notifier_notify_ns(calls: int = 20_000) -> float:
    """``notify_one`` with no sleeping waiter (the common hot path)."""
    notifier = Notifier()
    notify = notifier.notify_one

    def batch(n: int) -> None:
        for _ in range(n):
            notify()

    return _per_call(batch, calls) * 1e9


def gpu_malloc_free_us(calls: int = 2_000, nbytes: int = 4096) -> float:
    """Buddy-pool ``allocate`` + ``free`` of one device buffer."""
    device = Device(0, memory_bytes=1 << 22)
    try:
        alloc = device.allocate

        def batch(n: int) -> None:
            for _ in range(n):
                alloc(nbytes).free()

        return _per_call(batch, calls) * 1e6
    finally:
        device.destroy()


def stream_launch_sync_us(calls: int = 300) -> float:
    """Enqueue one no-op onto a stream and synchronize on it: the
    round trip through the stream's dispatcher thread."""
    device = Device(0, memory_bytes=1 << 22)
    try:
        stream = device.create_stream("micro")

        def noop() -> None:
            return None

        def batch(n: int) -> None:
            for _ in range(n):
                stream.enqueue(noop)
                stream.synchronize()

        return _per_call(batch, calls) * 1e6
    finally:
        device.destroy()


def run_all() -> dict:
    """Every micro-benchmark.  They time the primitives alone, not the
    workload, so every traced run reports them."""
    return {
        "core.wsq.push_pop_ns": wsq_push_pop_ns(),
        "core.wsq.steal_ns": wsq_steal_ns(),
        "core.notifier.notify_ns": notifier_notify_ns(),
        "gpu.malloc_free_us": gpu_malloc_free_us(),
        "gpu.stream.launch_sync_us": stream_launch_sync_us(),
    }
