"""Picklable workload specifications for the multiprocess gateway.

Heteroflow graphs capture arbitrary host closures and live numpy
arrays, so a graph object itself cannot cross a process boundary.  The
gateway therefore ships *specs* — small, picklable descriptions from
which a worker process materializes the graph locally, exactly once
per instance (docs/gateway.md, "Work specs").  Three kinds cover the
serving story:

- :class:`GeneratedSpec` — a seeded random graph from
  :func:`repro.check.generator.generate_graph`.  Deterministic from
  its parameters, and it carries a host-side oracle, so the gateway
  soak can verify results end to end across the process boundary;
- :class:`BuiltinSpec` — one of the shipped corpus flows
  (`repro.analysis.corpus.BUILTIN_CORPUS`): ``saxpy``, ``timing``,
  ``placement``, ``sparsenn``;
- :class:`BurstSpec` — ``width`` independent trivial host tasks, the
  freeze-and-replay throughput shape of ``benchmarks/bench_replay.py``
  (host-only, so frozen submissions take the slot fast path inside
  every worker).

A spec must be **idempotent to rebuild**: the worker monitor replays
in-flight submissions of a dead worker onto a replacement, which
re-materializes the spec from scratch.  Anything a spec builds must
therefore derive from the spec's own fields, never from parent-process
state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

from repro.errors import GatewayError


@dataclass(frozen=True)
class WorkSpec:
    """Base class: a picklable recipe for one Heteroflow graph."""

    def build(self):
        """Materialize the graph in the calling process.

        Returns ``(graph, generated)`` where *generated* is the
        :class:`repro.check.generator.GeneratedGraph` carrying the
        verification oracle, or ``None`` when the spec has no oracle.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class GeneratedSpec(WorkSpec):
    """A seeded random graph with a host-replay oracle."""

    seed: int
    num_gpus: int = 0
    max_hosts: int = 4
    max_chains: int = 2
    max_kernels: int = 2
    max_len: int = 64

    def build(self):
        from repro.check.generator import generate_graph

        gen = generate_graph(
            self.seed,
            num_gpus=self.num_gpus,
            max_hosts=self.max_hosts,
            max_chains=self.max_chains,
            max_kernels=self.max_kernels,
            max_len=self.max_len,
        )
        return gen.graph, gen

    def describe(self) -> str:
        return f"generated(seed={self.seed}, gpus={self.num_gpus})"


@dataclass(frozen=True)
class BuiltinSpec(WorkSpec):
    """One of the shipped corpus flows, by name."""

    name: str

    def build(self):
        from repro.analysis.corpus import BUILTIN_CORPUS

        factory = BUILTIN_CORPUS.get(self.name)
        if factory is None:
            raise GatewayError(
                f"unknown builtin workload {self.name!r}; "
                f"available: {', '.join(BUILTIN_CORPUS)}"
            )
        return factory(), None

    def describe(self) -> str:
        return f"builtin({self.name})"


@dataclass(frozen=True)
class BurstSpec(WorkSpec):
    """``width`` independent host tasks: empty, sleeping, or spinning.

    With neither duration set this is the replay-throughput shape
    (empty host tasks, frozen fast path); a small ``sleep_s`` makes a
    controllable-duration workload for drain-under-load and
    worker-death tests; a small ``spin_s`` busy-loops instead —
    CPU-bound Python that the GIL serializes inside one process but
    worker *processes* run truly in parallel, which is exactly the
    claim the gateway throughput comparison measures.
    """

    width: int = 64
    sleep_s: float = 0.0
    spin_s: float = 0.0

    def build(self):
        from repro.core.heteroflow import Heteroflow

        hf = Heteroflow(f"burst-{self.width}")
        if self.spin_s > 0:
            spin = self.spin_s

            def work(_spin=spin) -> None:
                t0 = time.perf_counter()
                while time.perf_counter() - t0 < _spin:
                    pass

        elif self.sleep_s > 0:
            delay = self.sleep_s

            def work(_delay=delay) -> None:
                time.sleep(_delay)

        else:

            def work() -> None:
                return None

        for i in range(self.width):
            hf.host(work, name=f"burst{i}")
        return hf, None

    def describe(self) -> str:
        return (
            f"burst(width={self.width}, sleep={self.sleep_s}, "
            f"spin={self.spin_s})"
        )


def spec_key(spec: WorkSpec) -> Tuple:
    """Stable identity of a spec (frozen dataclasses hash by value)."""
    return (type(spec).__name__, spec)


__all__ = [
    "WorkSpec",
    "GeneratedSpec",
    "BuiltinSpec",
    "BurstSpec",
    "spec_key",
]
