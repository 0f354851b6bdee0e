"""Seeded random Heteroflow graphs with known-good reference results.

The stress harness needs graphs that (a) mix all four task types, (b)
exercise the placement grouping (kernels sharing pull tasks), (c) have
enough structural randomness to shake out scheduler races, and (d) ship
with an *oracle*: a host-side replay of the exact arithmetic the GPU
chains perform, so every run can be checked for data correctness, not
just schedule shape.

A generated graph is built from:

- ``H`` host tasks, each appending its id to a shared log (exact-once
  accounting across passes);
- ``C`` GPU *chains*: ``pull -> kernel... -> push`` over a per-chain
  float64 array, where each kernel applies an affine update
  ``x = x * c + d`` (bitwise-reproducible on the host oracle);
- optional *join* kernels reading a second chain's pulled data (unions
  two placement groups, the Algorithm-1 stress case);
- host-*filled* chains whose data is written by an upstream host task
  (exercises stateful/late-bound spans);
- random extra forward edges over a fixed topological creation order
  (acyclic by construction).

Everything derives from one integer seed via :mod:`random.Random`, so a
failing stress case is reproducible from its seed alone.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.heteroflow import Heteroflow
from repro.core.task import Task


@dataclass
class _Chain:
    """One pull -> kernels -> push chain and its oracle description."""

    index: int
    array: np.ndarray
    #: snapshot of ``array`` at generation time — ``array`` itself is
    #: overwritten with results by push tasks, so the oracle replays
    #: from this copy
    init: np.ndarray
    base: Optional[np.ndarray]  # host-filled chains: value written each pass
    #: kernel op list: ("affine", c, d) or ("join", src_chain_index, c)
    ops: List[Tuple] = field(default_factory=list)


@dataclass
class GeneratedGraph:
    """A random graph plus the state needed to verify a run of it."""

    graph: Heteroflow
    seed: int
    num_hosts: int
    chains: List[_Chain]
    host_log: List[int]
    #: set for gated graphs: the first task blocks until this event
    gate: Optional[threading.Event] = None

    @property
    def num_nodes(self) -> int:
        return len(self.graph.nodes)

    def expected_arrays(self, passes: int = 1) -> Dict[int, np.ndarray]:
        """Replay the chain arithmetic on the host for *passes* runs."""
        host: Dict[int, np.ndarray] = {
            c.index: c.init.copy() for c in self.chains
        }
        for _ in range(passes):
            dev: Dict[int, np.ndarray] = {}
            for c in self.chains:
                if c.base is not None:
                    host[c.index] = c.base.copy()
            for c in self.chains:
                dev[c.index] = host[c.index].copy()
            # chains are processed in index order; join kernels only
            # reference lower-indexed chains, whose device state is
            # final by then (their own kernels never read other chains)
            for c in self.chains:
                x = dev[c.index]
                for op in c.ops:
                    if op[0] == "affine":
                        _, cmul, dadd = op
                        x *= cmul
                        x += dadd
                    else:
                        _, src, cmul = op
                        x += dev[src][0] * cmul
            for c in self.chains:
                host[c.index] = dev[c.index].copy()
        return host

    def verify(self, passes: int = 1) -> List[str]:
        """Check run results against the oracle; returns violations."""
        problems: List[str] = []
        counts: Dict[int, int] = {}
        for hid in self.host_log:
            counts[hid] = counts.get(hid, 0) + 1
        for hid in range(self.num_hosts):
            got = counts.pop(hid, 0)
            if got != passes:
                problems.append(
                    f"host task {hid} ran {got} times, expected {passes}"
                )
        for hid, got in counts.items():
            problems.append(f"unknown host task id {hid} ran {got} times")
        expected = self.expected_arrays(passes)
        for c in self.chains:
            if not np.allclose(c.array, expected[c.index], rtol=1e-12, atol=1e-12):
                bad = int(np.sum(~np.isclose(c.array, expected[c.index]))) or len(c.array)
                problems.append(
                    f"chain {c.index}: {bad}/{c.array.size} elements differ "
                    f"from the reference result"
                )
        return problems


def _affine_kernel(cmul: float, dadd: float) -> Callable:
    def affine(x):
        x *= cmul
        x += dadd

    return affine


def _join_kernel(cmul: float) -> Callable:
    def join(x, y):
        x += y[0] * cmul

    return join


def generate_graph(
    seed: int,
    num_gpus: int,
    *,
    max_hosts: int = 8,
    max_chains: int = 4,
    max_kernels: int = 3,
    max_len: int = 512,
    extra_edge_prob: float = 0.15,
    fallbacks: bool = True,
    gate: bool = False,
) -> GeneratedGraph:
    """Build a seeded random graph (see module docstring).

    ``num_gpus == 0`` produces a host-only graph.  With ``fallbacks``
    (the default) every kernel registers its own callable as host
    fallback — the simulated kernels are plain numpy functions of their
    views, so graceful degradation (docs/resilience.md) reproduces the
    oracle arithmetic bit-for-bit; pass ``fallbacks=False`` to test the
    no-survivor failure path.  With ``gate=True`` a blocking first task
    is prepended so the caller can hold the whole graph at the starting
    line (cancellation tests).  Fault injection is no longer a
    generator concern: seed fault profiles on the devices instead
    (:meth:`repro.gpu.device.Device.configure_faults`).
    """
    rng = random.Random(seed)
    hf = Heteroflow(f"check-seed{seed}")
    log: List[int] = []
    log_lock = threading.Lock()

    num_hosts = rng.randint(3, max(3, max_hosts))
    num_chains = rng.randint(1, max_chains) if num_gpus > 0 else 0

    def make_host(hid: int) -> Callable:
        def work() -> None:
            with log_lock:
                log.append(hid)

        return work

    ordered: List[Task] = []  # topological creation order for extra edges
    hosts = []
    for hid in range(num_hosts):
        t = hf.host(make_host(hid), name=f"h{hid}")
        hosts.append(t)
        ordered.append(t)

    chains: List[_Chain] = []
    # chain index -> (pull handle, last kernel handle), for join kernels
    chain_handles: Dict[int, Tuple[Task, Task]] = {}
    for ci in range(num_chains):
        length = rng.randint(16, max_len)
        values = np.asarray(
            [rng.uniform(-4.0, 4.0) for _ in range(length)], dtype=np.float64
        )
        host_filled = rng.random() < 0.5
        if host_filled:
            base = values
            array = np.zeros(length, dtype=np.float64)
            filler = rng.choice(hosts)
        else:
            base = None
            array = values.copy()
            filler = None
        chain = _Chain(index=ci, array=array, init=array.copy(), base=base)

        pull = hf.pull(array, name=f"c{ci}.pull")
        if host_filled:
            # rebind the chosen host task to also (re)fill the data;
            # wrap instead so the log accounting stays intact
            fill_src = base

            def make_filler(prev: Callable, dst=array, src=fill_src) -> Callable:
                def fill() -> None:
                    dst[:] = src
                    prev()

                return fill

            filler.host(make_filler(filler.node.callable))
            filler.precede(pull)
        ordered.append(pull)

        prev: Task = pull
        num_kernels = rng.randint(1, max_kernels)
        for ki in range(num_kernels):
            join_candidates = [c for c in chains if c.index < ci]
            if join_candidates and rng.random() < 0.3:
                src = rng.choice(join_candidates)
                cmul = rng.uniform(-1.0, 1.0)
                src_pull, src_last_kernel = chain_handles[src.index]
                k = hf.kernel(
                    _join_kernel(cmul), pull, src_pull, name=f"c{ci}.k{ki}.join{src.index}"
                )
                # the joined chain's data is only read; declaring it
                # keeps concurrent joins off the same source chain
                # race-free under hflint (HF011)
                k.reads(src_pull)
                k.succeed(prev, src_last_kernel)
                chain.ops.append(("join", src.index, cmul))
            else:
                cmul = rng.uniform(0.5, 1.5)
                dadd = rng.uniform(-1.0, 1.0)
                k = hf.kernel(_affine_kernel(cmul, dadd), pull, name=f"c{ci}.k{ki}")
                k.succeed(prev)
                chain.ops.append(("affine", cmul, dadd))
            if fallbacks:
                k.host_fallback()
            ordered.append(k)
            prev = k

        push = hf.push(pull, array, name=f"c{ci}.push")
        push.succeed(prev)
        ordered.append(push)
        chain_handles[ci] = (pull, prev)
        chains.append(chain)

    # random extra forward edges (creation order is topological)
    n = len(ordered)
    budget = max(2, n)
    for _ in range(budget):
        if rng.random() >= extra_edge_prob * 2:
            continue
        i = rng.randrange(n - 1)
        j = rng.randrange(i + 1, n)
        a, b = ordered[i], ordered[j]
        if b.node in a.node.successors:
            continue
        # keep push/pull data semantics: extra edges are ordering-only,
        # which is always safe because only same-chain tasks touch a
        # chain's data and their order is already fixed by chain edges
        a.precede(b)

    gen = GeneratedGraph(
        graph=hf,
        seed=seed,
        num_hosts=num_hosts,
        chains=chains,
        host_log=log,
    )
    if gate:
        ev = threading.Event()
        gate_task = hf.host(ev.wait, name="gate")
        for t in ordered:
            if t.node.is_source and t.node is not gate_task.node:
                gate_task.precede(t)
        gen.gate = ev
    return gen
