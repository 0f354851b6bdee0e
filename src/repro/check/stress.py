"""Stress/soak harness: sweep configs x seeds through the validators.

For every (workers, gpus) configuration and every seed, the runner

1. generates a seeded random graph (:mod:`repro.check.generator`),
2. runs it 1-3 passes under a real :class:`~repro.core.executor.Executor`
   with a :class:`~repro.core.observer.TraceObserver` attached and an
   :class:`~repro.check.audit.AllocatorAuditor` hooked into every
   device pool,
3. validates the trace against the schedule invariants, the results
   against the generator's oracle, and the allocator event stream
   against the pool invariants.

Fault-injection mode additionally runs every graph through three
failure paths, checking that the recovery machinery
(:mod:`repro.errors`, topology flushing, buffer reclamation) leaves
partial traces and pools consistent:

- ``fault`` — a seeded one-shot kernel fault on every device
  (:class:`~repro.resilience.FaultProfile`); with no retry policy the
  raw :class:`~repro.errors.KernelError` must reach the future;
- ``retry`` — the same fault profile under a run-level
  :class:`~repro.resilience.RetryPolicy`; the run must *succeed*, the
  trace must stay strictly exact-once, and the oracle must match;
- ``cancel`` — the graph is cancelled at the starting line.

Exposed via ``python -m repro check --stress``.
"""

from __future__ import annotations

import random
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Severity
from repro.analysis.linter import lint
from repro.check.audit import AllocatorAuditor
from repro.check.generator import generate_graph
from repro.check.validate import validate_schedule
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.errors import KernelError
from repro.resilience import FaultProfile, RetryPolicy

#: default sweep: ≥3 worker/GPU configurations, per the roadmap's
#: "correct DAG execution across N CPU workers and M GPUs" claim
DEFAULT_CONFIGS: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (4, 2))

#: small per-device pool so the sweep also squeezes the buddy pools
STRESS_POOL_BYTES = 1 << 21

_RESULT_TIMEOUT = 120.0


@dataclass
class RunOutcome:
    """One validated execution."""

    workers: int
    gpus: int
    seed: int
    mode: str  # "normal" | "fault" | "retry" | "cancel"
    passes: int
    num_nodes: int
    num_records: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class StressReport:
    """Aggregated sweep outcome."""

    outcomes: List[RunOutcome] = field(default_factory=list)
    num_allocs: int = 0
    num_frees: int = 0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def num_runs(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        out: List[str] = []
        for o in self.outcomes:
            out.extend(
                f"[{o.workers}w x {o.gpus}g seed={o.seed} {o.mode}] {v}"
                for v in o.violations
            )
        return out


def _run_one(
    workers: int,
    gpus: int,
    seed: int,
    mode: str,
    report: StressReport,
) -> RunOutcome:
    rng = random.Random((seed << 8) ^ (workers * 37) ^ (gpus * 101))
    passes = rng.randint(1, 3) if mode == "normal" else 1
    gen = generate_graph(
        seed,
        num_gpus=gpus,
        gate=(mode == "cancel"),
    )
    obs = TraceObserver()
    auditor = AllocatorAuditor(keep_events=False)
    outcome = RunOutcome(
        workers=workers,
        gpus=gpus,
        seed=seed,
        mode=mode,
        passes=passes,
        num_nodes=gen.num_nodes,
        num_records=0,
    )
    # cross-validation: generated graphs are well-formed by construction,
    # so hflint must agree — a warning-or-worse finding here is either a
    # generator bug or an analyzer false positive, and both must surface
    static = lint(gen.graph, gpu_memory_bytes=STRESS_POOL_BYTES)
    outcome.violations.extend(
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
                outcome.violations.append(
                    "injected kernel fault did not propagate to the future"
                )
            if mode == "cancel":
                outcome.violations.append(
                    "cancelled run resolved successfully"
                )
        except CancelledError:
            if mode != "cancel":
                outcome.violations.append("run unexpectedly cancelled")
        except KernelError as exc:
            if mode != "fault" or "injected" not in str(exc):
                outcome.violations.append(f"unexpected task failure: {exc!r}")
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(f"unexpected task failure: {exc!r}")
    finally:
        ex.shutdown()
    partial = mode in ("fault", "cancel")
    schedule = validate_schedule(
        gen.graph,
        obs.records,
        passes=passes,
        num_gpus=gpus,
        allow_partial=partial,
    )
    outcome.num_records = schedule.num_records
    outcome.violations.extend(str(v) for v in schedule.violations)
    if mode in ("normal", "retry"):
        # retry runs recover from the injected fault, so the oracle
        # must hold exactly as for a clean run
        outcome.violations.extend(gen.verify(passes))
    audit = auditor.finish()
    outcome.violations.extend(audit.violations)
    report.num_allocs += audit.num_allocs
    report.num_frees += audit.num_frees
    return outcome


def run_stress(
    seeds: int = 25,
    configs: Optional[Sequence[Tuple[int, int]]] = None,
    *,
    faults: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> StressReport:
    """Sweep *seeds* random graphs over every (workers, gpus) config.

    With ``faults=True`` every third seed additionally runs the
    device-level fault-injection modes (``fault``/``retry``, GPU
    configs only) and cancellation mode.  Returns a
    :class:`StressReport`; the sweep never raises on violations — the
    caller decides (CLI exits nonzero, tests assert).
    """
    configs = tuple(configs) if configs else DEFAULT_CONFIGS
    report = StressReport()
    for workers, gpus in configs:
        config_violations = 0
        for seed in range(seeds):
            modes = ["normal"]
            if faults and seed % 3 == 0:
                if gpus > 0:
                    modes += ["fault", "retry"]
                modes += ["cancel"]
            for mode in modes:
                outcome = _run_one(workers, gpus, seed, mode, report)
                report.outcomes.append(outcome)
                config_violations += len(outcome.violations)
        if log is not None:
            runs = [
                o for o in report.outcomes
                if o.workers == workers and o.gpus == gpus
            ]
            log(
                f"  {workers} worker(s) x {gpus} GPU(s): "
                f"{len(runs)} run(s), "
                f"{sum(o.num_records for o in runs)} task records, "
                f"{config_violations} violation(s)"
            )
    return report


def run_determinism_check(
    seed: int = 0, *, passes: int = 2
) -> Tuple[bool, List[str], List[str]]:
    """Run the same host-only graph twice on one worker; compare traces.

    Returns ``(identical, order_a, order_b)`` where the orders are the
    task-name sequences in execution order.  Only host-only graphs on a
    single worker are deterministic: GPU tasks complete on stream
    dispatcher threads that race with the worker for queue order (see
    docs/testing.md).
    """
    orders: List[List[str]] = []
    for _ in range(2):
        gen = generate_graph(seed, num_gpus=0)
        obs = TraceObserver()
        with Executor(num_workers=1, num_gpus=0, observers=[obs], seed=seed) as ex:
            ex.run_n(gen.graph, passes).result(timeout=_RESULT_TIMEOUT)
        validate_schedule(
            gen.graph, obs.records, passes=passes, num_gpus=0
        ).raise_if_failed()
        if gen.verify(passes):
            raise AssertionError("determinism check graph failed its oracle")
        orders.append([r.name for r in obs.records])
    return orders[0] == orders[1], orders[0], orders[1]
