"""Stress suite: seeded random graphs x (workers, gpus) configs through
the validators.

For every (workers, gpus) configuration and every seed, a scenario

1. generates a seeded random graph (:mod:`repro.check.generator`),
2. runs it 1-3 passes under a real :class:`~repro.core.executor.Executor`
   with a :class:`~repro.core.observer.TraceObserver` attached and an
   :class:`~repro.check.audit.AllocatorAuditor` hooked into every
   device pool,
3. validates the trace against the schedule invariants, the results
   against the generator's oracle, and the allocator event stream
   against the pool invariants.

Every third seed additionally runs the graph through three failure
paths, checking that the recovery machinery
(:mod:`repro.errors`, topology flushing, buffer reclamation) leaves
partial traces and pools consistent:

- ``fault`` — a seeded one-shot kernel fault on every device
  (:class:`~repro.resilience.FaultProfile`); with no retry policy the
  raw :class:`~repro.errors.KernelError` must reach the future;
- ``retry`` — the same fault profile under a run-level
  :class:`~repro.resilience.RetryPolicy`; the run must *succeed*, the
  trace must stay strictly exact-once, and the oracle must match;
- ``cancel`` — the graph is cancelled at the starting line.

Run with ``python -m repro verify stress``.
"""

from __future__ import annotations

import random
from concurrent.futures import CancelledError
from typing import Iterator, List, Sequence, Tuple

from repro.analysis.diagnostics import Severity
from repro.analysis.linter import lint
from repro.check.audit import AllocatorAuditor
from repro.check.generator import generate_graph
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.errors import KernelError, ValidationError
from repro.harness import Report, Scenario
from repro.resilience import FaultProfile, RetryPolicy

#: small per-device pool so the sweep also squeezes the buddy pools
STRESS_POOL_BYTES = 1 << 21

_RESULT_TIMEOUT = 120.0


def _run_mode(workers: int, gpus: int, seed: int, mode: str, sc: Scenario) -> None:
    """One validated execution of graph *seed* in *mode*, tallied into *sc*."""
    rng = random.Random((seed << 8) ^ (workers * 37) ^ (gpus * 101))
    passes = rng.randint(1, 3) if mode == "normal" else 1
    gen = generate_graph(
        seed,
        num_gpus=gpus,
        gate=(mode == "cancel"),
    )
    obs = TraceObserver()
    auditor = AllocatorAuditor(keep_events=False)
    violations: List[str] = []
    # cross-validation: generated graphs are well-formed by construction,
    # so hflint must agree — a warning-or-worse finding here is either a
    # generator bug or an analyzer false positive, and both must surface
    static = lint(gen.graph, gpu_memory_bytes=STRESS_POOL_BYTES)
    violations.extend(
        f"hflint: {d}" for d in static.at_least(Severity.WARNING)
    )
    ex = Executor(
        num_workers=workers,
        num_gpus=gpus,
        gpu_memory_bytes=STRESS_POOL_BYTES,
        observers=[obs],
        seed=seed,
    )
    try:
        auditor.attach_runtime(ex.gpu_runtime)
        if mode in ("fault", "retry"):
            # seed a one-shot kernel fault on every device: whichever
            # GPU the placement pass picks, the first launch there fails
            for ordinal in range(gpus):
                ex.gpu_runtime.device(ordinal).configure_faults(
                    FaultProfile(kernel_fault_at=1), seed=seed
                )
        policy = (
            RetryPolicy(max_attempts=3, base_delay=0.0)
            if mode == "retry" else None
        )
        fut = ex.run_n(gen.graph, passes, policy=policy)
        if mode == "cancel":
            ex.cancel(fut)
            gen.gate.set()
        try:
            fut.result(timeout=_RESULT_TIMEOUT)
            if mode == "fault":
                violations.append(
                    "injected kernel fault did not propagate to the future"
                )
            if mode == "cancel":
                violations.append("cancelled run resolved successfully")
        except CancelledError:
            if mode != "cancel":
                violations.append("run unexpectedly cancelled")
        except KernelError as exc:
            if mode != "fault" or "injected" not in str(exc):
                violations.append(f"unexpected task failure: {exc!r}")
        except Exception as exc:  # noqa: BLE001 - harness boundary
            violations.append(f"unexpected task failure: {exc!r}")
    finally:
        ex.shutdown()
    # retry runs recover from the injected fault, so the oracle must
    # hold exactly as for a clean run
    checked, num_records = gen.check(
        obs.records, passes=passes, num_gpus=gpus, completed=mode in ("normal", "retry")
    )
    violations.extend(checked)
    audit = auditor.finish()
    violations.extend(audit.violations)
    sc.violations.extend(f"{mode}: {v}" for v in violations)
    sc.detail["nodes"] = gen.num_nodes
    for key, val in (
        ("runs", 1),
        ("records", num_records),
        ("allocs", audit.num_allocs),
        ("frees", audit.num_frees),
    ):
        sc.counts[key] = sc.counts.get(key, 0) + val


def run_scenario(index: int, workers: int, gpus: int, seed: int) -> Scenario:
    """Graph *seed* on *workers* x *gpus*: a normal run, plus (every
    third seed) the ``fault``/``retry`` (GPU configs) and ``cancel``
    modes."""
    modes = ["normal"]
    if seed % 3 == 0:
        modes += (["fault", "retry"] if gpus > 0 else []) + ["cancel"]
    sc = Scenario(
        index, f"{workers}x{gpus}", seed,
        detail={"workers": workers, "gpus": gpus, "modes": modes},
    )
    for mode in modes:
        _run_mode(workers, gpus, seed, mode, sc)
    return sc


def scenarios(
    report: Report, n: int, configs: Sequence[Tuple[int, int]]
) -> Iterator[Scenario]:
    """Scenario *i* runs graph seed ``report.seed + i // len(configs)``
    on config ``configs[i % len(configs)]``."""
    for i in range(n):
        workers, gpus = configs[i % len(configs)]
        yield run_scenario(i, workers, gpus, report.seed + i // len(configs))


def run_determinism_check(
    seed: int = 0, *, passes: int = 2
) -> Tuple[bool, List[str], List[str]]:
    """Run the same host-only graph twice on one worker; compare traces.

    Returns ``(identical, order_a, order_b)`` where the orders are the
    task-name sequences in execution order; a run that fails its run
    check raises :class:`~repro.errors.ValidationError`.  Only host-only
    graphs on a single worker are deterministic: GPU tasks complete on
    stream dispatcher threads that race with the worker for queue order
    (see docs/testing.md).
    """
    orders: List[List[str]] = []
    for _ in range(2):
        gen = generate_graph(seed, num_gpus=0)
        obs = TraceObserver()
        with Executor(num_workers=1, num_gpus=0, observers=[obs], seed=seed) as ex:
            ex.run_n(gen.graph, passes).result(timeout=_RESULT_TIMEOUT)
        violations, _ = gen.check(obs.records, passes=passes, num_gpus=0, completed=True)
        if violations:
            raise ValidationError("; ".join(violations))
        orders.append([r.name for r in obs.records])
    return orders[0] == orders[1], orders[0], orders[1]
