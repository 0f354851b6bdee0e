"""ABL-STEAL — work-stealing LIFO vs central-queue FIFO scheduling.

Two measurements:

1. On the virtual-time model (:func:`repro.figures.abl_steal_table`):
   the Fig.-5 timing workload scheduled depth-first (work-stealing
   owner-LIFO, the paper's discipline) vs breadth-first (one central
   FIFO queue).  Depth-first reaches the GPU stages of each view
   sooner, so the GPU fills earlier and the makespan shrinks at low
   worker counts.
2. On real threads: raw throughput of the work-stealing deque under
   an owner + thieves against a single shared locked queue.
"""

import queue
import threading

from repro.core.wsq import WorkStealingQueue
from repro.figures import abl_steal_table

from conftest import record_table


def test_ablation_stealing_schedule_quality(benchmark):
    table = benchmark.pedantic(abl_steal_table, rounds=1, iterations=1)
    record_table(*table)
    lifo = {cores: s for cores, s, _fifo, _ratio in table.rows}
    fifo = {cores: s for cores, _lifo, s, _ratio in table.rows}

    for cores in (1, 2, 4):
        assert fifo[cores] >= lifo[cores] - 1e-9
    assert fifo[1] / lifo[1] > 1.2


N_ITEMS = 20000


def _drive_wsq():
    q = WorkStealingQueue()
    consumed = [0, 0]
    done = threading.Event()

    def owner():
        for i in range(N_ITEMS):
            q.push(i)
            if i % 2:
                if q.pop() is not None:
                    consumed[0] += 1
        done.set()

    def thief():
        while not (done.is_set() and q.empty):
            if q.steal() is not None:
                consumed[1] += 1

    ts = [threading.Thread(target=owner), threading.Thread(target=thief)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return consumed[0] + consumed[1]


def _drive_central():
    q: "queue.Queue" = queue.Queue()
    consumed = [0, 0]
    done = threading.Event()

    def producer():
        for i in range(N_ITEMS):
            q.put(i)
            if i % 2:
                try:
                    q.get_nowait()
                    consumed[0] += 1
                except queue.Empty:
                    pass
        done.set()

    def consumer():
        while not (done.is_set() and q.empty()):
            try:
                q.get(timeout=0.01)
                consumed[1] += 1
            except queue.Empty:
                pass

    ts = [threading.Thread(target=producer), threading.Thread(target=consumer)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return consumed[0] + consumed[1]


def test_ablation_wsq_throughput(benchmark):
    assert benchmark(_drive_wsq) == N_ITEMS


def test_ablation_central_queue_throughput(benchmark):
    assert benchmark(_drive_central) == N_ITEMS
