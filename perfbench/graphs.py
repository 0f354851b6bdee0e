"""The two in-process graph workloads and their closed-loop runner.

``graph_fresh`` submits one unchanged GPU graph (:class:`ChainGraph`)
as a fresh Heteroflow every op, so validation, topological order,
Algorithm-1 placement, node dispatch, streams and buddy allocation all
block the result.  ``graph_frozen`` replays one frozen host-only
layered DAG (:class:`LayeredDag`) on the slot fast path, where the
scheduler primitives are almost all the work.  Both graphs are built
from the seed alone, with fixed node and edge counts so that seeds
change wiring and data but not the amount of work.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from repro import Executor, Heteroflow

from spans import Tracer

#: ChainGraph shape: CHAINS x (fill, pull, KERNELS kernels, push)
#: + CHAINS/2 join kernels + one checking fan-in = 76 nodes
CHAINS = 10
KERNELS = 4
LENGTH = 512

#: LayeredDag layer widths (256 host tasks; every non-first node has
#: two parents in the layer above, the last node joins its whole layer)
LAYERS = (1, 8, 16, 32, 48, 48, 48, 32, 16, 6, 1)
DAG_TASKS = sum(LAYERS)


def _affine(m, c, v):
    """Kernel: ``v = v * m + c`` in place on the device view."""
    v *= m
    v += c


def _accumulate(dst, src):
    """Join kernel: ``dst += src``; reading *src* merges both chains
    into one placement group."""
    dst += src


class ChainGraph:
    """Host-filled GPU chains (pull -> kernels -> push), pairwise join
    kernels, and a host fan-in that checks every pushed value exactly.

    Set :attr:`step` before each run: the fill tasks write
    ``base + step`` and the fan-in records the step in :attr:`verified`
    only when every chain's pushed array equals the closed-form
    expectation (integer arithmetic, so "equal" is exact).
    """

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.base = rng.integers(0, 100, size=(CHAINS, LENGTH), dtype=np.int64)
        self.mul = rng.integers(1, 4, size=(CHAINS, KERNELS), dtype=np.int64)
        self.add = rng.integers(0, 10, size=(CHAINS, KERNELS), dtype=np.int64)
        perm = [int(v) for v in rng.permutation(CHAINS)]
        #: (dst, src) chain pairs joined by a kernel
        self.pairs: List[Tuple[int, int]] = [
            (perm[2 * i], perm[2 * i + 1]) for i in range(CHAINS // 2)
        ]
        self.data = [np.zeros(LENGTH, dtype=np.int64) for _ in range(CHAINS)]
        self.step = 0
        self.verified = -1
        # expected output = offset + step * slope, per chain
        slope = np.ones(CHAINS, dtype=np.int64)
        offset = self.base.copy()
        for j in range(KERNELS):
            slope = slope * self.mul[:, j]
            offset = offset * self.mul[:, j][:, None] + self.add[:, j][:, None]
        for dst, src in self.pairs:
            slope[dst] += slope[src]
            offset[dst] += offset[src]
        self._slope = [int(s) for s in slope]
        self._offset = offset
        self.graph = self._build()

    def _fill(self, i: int) -> None:
        np.add(self.base[i], self.step, out=self.data[i])

    def _check(self) -> None:
        step = self.step
        for i in range(CHAINS):
            if not np.array_equal(self.data[i], self._offset[i] + step * self._slope[i]):
                return
        self.verified = step

    def _build(self) -> Heteroflow:
        hf = Heteroflow("chains")
        pulls, lasts, pushes = [], [], []
        for i in range(CHAINS):
            fill = hf.host(partial(self._fill, i), name=f"fill{i}")
            pull = hf.pull(self.data[i], name=f"pull{i}")
            fill.precede(pull)
            prev = pull
            for j in range(KERNELS):
                k = hf.kernel(
                    _affine, int(self.mul[i, j]), int(self.add[i, j]), pull, name=f"k{i}_{j}"
                )
                prev.precede(k)
                prev = k
            pulls.append(pull)
            lasts.append(prev)
            pushes.append(hf.push(pull, self.data[i], name=f"push{i}"))
        joined = set()
        for dst, src in self.pairs:
            join = hf.kernel(_accumulate, pulls[dst], pulls[src], name=f"join{dst}_{src}")
            join.reads(pulls[src])
            lasts[dst].precede(join)
            lasts[src].precede(join)
            join.precede(pushes[dst])
            joined.add(dst)
        for i in range(CHAINS):
            if i not in joined:
                lasts[i].precede(pushes[i])
        check = hf.host(self._check, name="check")
        for push in pushes:
            push.precede(check)
        return hf

    def ok(self) -> bool:
        """Did the last run push exactly the expected arrays?"""
        return self.verified == self.step


class LayeredDag:
    """A host-only layered DAG of near-empty tasks with fan-out, fan-in
    and diamonds.  Every task appends its id to :attr:`hits`, so a run
    is correct when each of the :data:`DAG_TASKS` ids appears once."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.hits: List[int] = []
        hf = Heteroflow("layered")
        append = self.hits.append
        prev: list = []
        tid = 0
        for depth, width in enumerate(LAYERS):
            layer = []
            for _ in range(width):
                task = hf.host(partial(append, tid), name=f"t{tid}")
                tid += 1
                if depth == len(LAYERS) - 1:
                    parents = prev
                else:
                    parents = rng.sample(prev, min(2, len(prev)))
                for p in parents:
                    p.precede(task)
                layer.append(task)
            prev = layer
        self.graph = hf
        self.step = 0

    def ok(self) -> bool:
        hits = self.hits
        good = len(hits) == DAG_TASKS and len(set(hits)) == DAG_TASKS
        hits.clear()
        return good


class GraphWorkload:
    """One in-process executor driven by a single closed-loop client."""

    def __init__(self, name: str, seed: int, tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.seed = seed
        self.tracer = tracer
        self.setup_times: dict = {}
        self.executor: Optional[Executor] = None
        self.model = None
        self.target = None

    def setup(self) -> None:
        fresh = self.name == "graph_fresh"
        self.model = ChainGraph(self.seed) if fresh else LayeredDag(self.seed)
        t0 = time.perf_counter()
        self.executor = Executor(num_workers=2, num_gpus=2 if fresh else 0, seed=self.seed)
        t1 = time.perf_counter()
        self.setup_times["executor_start_s"] = t1 - t0
        if self.name == "graph_frozen":
            self.target = self.model.graph.freeze()
            self.setup_times["freeze_s"] = time.perf_counter() - t1
        else:
            self.target = self.model.graph

    def op(self, model=None, target=None) -> bool:
        """One closed-loop operation; True when its output checked out."""
        if model is None:
            model, target = self.model, self.target
        model.step += 1
        try:
            self.executor.run(target).result()
        except Exception:  # a failed run is a failed op, not a crash
            return False
        return model.ok()

    def traced_op(self, k: int) -> bool:
        tr = self.tracer
        self.model.step += 1
        with tr.span("op", op=k):
            try:
                with tr.span("core.executor.run"):
                    fut = self.executor.run(self.target)
                with tr.span("core.executor.result"):
                    fut.result()
            except Exception:
                return False
            with tr.span("check"):
                return self.model.ok()

    def run(self, ops: int, traced: bool = False, base: int = 0) -> Tuple[List[float], int]:
        """Run *ops* operations; returns (latencies in s, failures).
        Traced ops get op ids from *base* on."""
        lat: List[float] = []
        failed = 0
        clock = time.perf_counter
        for k in range(ops):
            t0 = clock()
            good = self.traced_op(base + k) if traced else self.op()
            lat.append(clock() - t0)
            if not good:
                failed += 1
        return lat, failed

    def teardown(self) -> None:
        if self.executor is not None:
            self.executor.shutdown()
            self.executor = None
