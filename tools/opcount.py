#!/usr/bin/env python3
"""Count the CPython bytecodes the runtime executes per operation.

Wall-clock numbers on a shared box drift from run to run; the number
of bytecodes a workload executes does not, so a change to the runtime's
per-task Python shows up here exactly.  Stdlib only (``sys.settrace``
opcode events on every thread); the workloads come from
``perfbench/graphs.py``, which this tool only reads.

    PYTHONPATH=src python tools/opcount.py [--ops N] [--top K] [--workload W ...]

prints, for each workload, the bytecodes per op (all threads) and a
per-function table (self counts, largest first):

- ``graph_fresh``: the benchmark's unchanged 76-node GPU graph
  submitted fresh each op;
- ``graph_frozen``: the benchmark's frozen 256-task host-only DAG;
- ``gpu_chain``: a pull, a chain of 64 no-op kernels and a push on one
  worker and one GPU; "per op" is per GPU task there (one run over
  66 tasks).

Tracing makes every thread several times slower, so thread
interleavings (steals, sleeps) differ from an untraced run and the
counts of the two-worker workloads move by a few percent between
sittings.  :func:`dispatcher_per_kernel` and :func:`inline_per_slot`
are exact marginal counts on one worker (the tier-1 budget test in
``tests/test_opcount.py`` calls them).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: kernels in the ``gpu_chain`` workload (as in
#: ``benchmarks/bench_runtime_overhead.py::test_overhead_gpu_chain``)
GPU_CHAIN = 64


class Tally:
    """Bytecodes executed while enabled, per thread and per code object.

    :meth:`install` must run before the threads to count are started
    (``threading.settrace`` reaches only threads started after it);
    counting is on only between :meth:`start` and :meth:`stop`.  *roots*
    names functions (``co_qualname``) whose calls are also counted
    inclusively, callees and all, per thread name in :attr:`inclusive`.
    """

    def __init__(self, roots: Iterable[str] = ()) -> None:
        self.roots = frozenset(roots)
        self.enabled = False
        #: thread ident -> {code object: bytecodes}
        self._tables: Dict[int, Dict[object, int]] = {}
        #: thread ident -> [root call depth, inclusive bytecodes]
        self._inclusive: Dict[int, List[int]] = {}
        self._names: Dict[int, str] = {}
        self._previous: Tuple = (None, None)

    # -- tracing -------------------------------------------------------
    def _global(self, frame, event, arg):
        tid = threading.get_ident()
        table = self._tables.get(tid)
        if table is None:
            table = self._tables.setdefault(tid, {})
            self._inclusive.setdefault(tid, [0, 0])
            self._names[tid] = threading.current_thread().name
        inc = self._inclusive[tid]
        code = frame.f_code
        root = code.co_qualname in self.roots
        if root:
            inc[0] += 1
        frame.f_trace_opcodes = True
        tally = self

        def local(frame, event, arg):
            if event == "opcode":
                if tally.enabled:
                    table[code] = table.get(code, 0) + 1
                    if inc[0]:
                        inc[1] += 1
            elif event == "return" and root:
                inc[0] -= 1
            return local

        return local

    def install(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)

    def uninstall(self) -> None:
        """Put back whatever tracers were installed before (a coverage
        tool's, say)."""
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])  # type: ignore[arg-type]

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    # -- results -------------------------------------------------------
    @property
    def total(self) -> int:
        return sum(sum(t.values()) for t in list(self._tables.values()))

    def by_thread(self, prefix: str = "") -> int:
        """Bytecodes on threads whose name starts with *prefix*."""
        return sum(
            sum(t.values())
            for tid, t in list(self._tables.items())
            if self._names.get(tid, "").startswith(prefix)
        )

    def inclusive(self, prefix: str = "") -> int:
        """Bytecodes inside calls of the roots, on threads whose name
        starts with *prefix*."""
        return sum(
            inc[1]
            for tid, inc in list(self._inclusive.items())
            if self._names.get(tid, "").startswith(prefix)
        )

    def by_function(self) -> List[Tuple[str, int]]:
        """``(file:qualname, bytecodes)`` pairs, largest first."""
        out: Dict[str, int] = defaultdict(int)
        for table in list(self._tables.values()):
            for code, n in list(table.items()):
                path = os.path.relpath(code.co_filename, ROOT)
                if path.startswith(".."):
                    path = os.path.basename(code.co_filename)
                out[f"{path}:{code.co_qualname}"] += n
        return sorted(out.items(), key=lambda kv: -kv[1])


def counted(
    setup: Callable[[], object],
    op: Callable[[object], None],
    ops: int,
    warmup: int,
    teardown: Callable[[object], None],
    roots: Iterable[str] = (),
) -> Tally:
    """Set up under tracing, run *warmup* uncounted ops, then *ops*
    counted ones, and tear down.  The garbage collector is off while
    counting: a collection runs weakref callbacks on whichever thread
    triggers it."""
    tally = Tally(roots)
    tally.install()
    try:
        state = setup()
        try:
            for _ in range(warmup):
                op(state)
            gc.collect()
            gc.disable()
            try:
                tally.start()
                for _ in range(ops):
                    op(state)
                tally.stop()
            finally:
                gc.enable()
        finally:
            teardown(state)
    finally:
        tally.uninstall()
    return tally


# -- workloads ---------------------------------------------------------
def _perfbench_graphs():
    path = os.path.join(ROOT, "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    import graphs

    return graphs


def _bench_workload(name: str, ops: int, warmup: int) -> Tally:
    graphs = _perfbench_graphs()

    def setup():
        w = graphs.GraphWorkload(name, seed=1)
        w.setup()
        return w

    def op(w) -> None:
        if not w.op():
            raise RuntimeError(f"{name}: an op failed its output check")

    return counted(setup, op, ops, warmup, lambda w: w.teardown())


def gpu_chain_graph(kernels: int):
    """A pull, *kernels* no-op kernels in a chain, and a push."""
    from repro._lazy import np
    from repro.core.heteroflow import Heteroflow

    hf = Heteroflow("gpu-chain")
    data = np.zeros(16)
    prev = p = hf.pull(data)
    for _ in range(kernels):
        k = hf.kernel(lambda a: None, p)
        prev.precede(k)
        prev = k
    prev.precede(hf.push(p, data))
    return hf


def host_chain_graph(tasks: int):
    """*tasks* empty host tasks in a chain."""
    from repro.core.heteroflow import Heteroflow

    hf = Heteroflow("host-chain")
    prev = None
    for _ in range(tasks):
        t = hf.host(lambda: None)
        if prev is not None:
            prev.precede(t)
        prev = t
    return hf


def _run_graph(
    graph, workers: int, gpus: int, runs: int, roots: Iterable[str] = (), warmup: int = 1
) -> Tally:
    """*runs* counted runs of *graph* (after *warmup* uncounted ones,
    which lower and compile it) on a fresh executor."""
    from repro.core.executor import Executor

    def setup():
        return Executor(workers, gpus)

    def op(ex) -> None:
        ex.run(graph).result(timeout=60)
        # the thread that resolved the future is still returning: let
        # it finish (and block) before the count can stop
        time.sleep(0.01)

    def teardown(ex) -> None:
        ex.shutdown()

    return counted(setup, op, runs, warmup, teardown, roots)


def dispatcher_per_kernel(short: int = 16, long: int = 48) -> float:
    """Bytecodes a stream dispatcher runs per continued kernel of a
    healthy GPU chain on one worker and one GPU: the marginal count
    between a *short* and a *long* chain, so the pull, the push and
    the end of the run cancel out.  Includes the kernel body (a no-op
    lambda, 3 bytecodes)."""
    counts = [
        _run_graph(gpu_chain_graph(k), 1, 1, 1).by_thread("gpu")
        for k in (short, long)
    ]
    return (counts[1] - counts[0]) / (long - short)


def inline_per_slot(short: int = 200, long: int = 600) -> float:
    """Bytecodes the slot loop runs per host slot of a chain of empty
    host tasks on one worker (inclusive of ``Executor._invoke`` and its
    callees, the task body included): the marginal count between a
    *short* and a *long* chain."""
    counts = [
        _run_graph(host_chain_graph(k), 1, 0, 1, roots=("Executor._invoke",)).inclusive(
            "hf-worker"
        )
        for k in (short, long)
    ]
    return (counts[1] - counts[0]) / (long - short)


#: workload -> (tally builder, divisor per op, default ops, warm-up ops)
WORKLOADS = {
    "graph_fresh": (lambda ops, w: _bench_workload("graph_fresh", ops, w), 1, 40, 10),
    "graph_frozen": (lambda ops, w: _bench_workload("graph_frozen", ops, w), 1, 40, 10),
    "gpu_chain": (
        lambda ops, w: _run_graph(gpu_chain_graph(GPU_CHAIN), 1, 1, ops, warmup=w),
        GPU_CHAIN + 2,
        10,
        2,
    ),
}


def report(name: str, ops: Optional[int], top: int) -> None:
    build, per, default_ops, warmup = WORKLOADS[name]
    n = default_ops if ops is None else ops
    tally = build(n, warmup)
    div = n * per
    unit = "GPU task" if name == "gpu_chain" else "op"
    print(f"{name}: {tally.total / div:,.0f} bytecodes per {unit} ({n} ops, all threads)")
    for fn, count in tally.by_function()[:top]:
        print(f"  {count / div:10,.1f}  {fn}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--ops", type=int, default=None, help="counted ops per workload")
    ap.add_argument("--top", type=int, default=25, help="functions listed per workload")
    ap.add_argument(
        "--budgets",
        action="store_true",
        help="also print dispatcher_per_kernel() and inline_per_slot()",
    )
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in args.workload or list(WORKLOADS):
        report(name, args.ops, args.top)
    if args.budgets:
        print(f"dispatcher bytecodes per continued kernel: {dispatcher_per_kernel():.1f}")
        print(f"inline-loop bytecodes per host slot: {inline_per_slot():.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
