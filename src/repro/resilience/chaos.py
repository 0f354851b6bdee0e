"""Chaos harness: seeded fault-scenario sweeps over the resilience layer.

Each scenario builds a seeded random Heteroflow graph
(:mod:`repro.check.generator`), arms one fault class on the simulated
devices (:class:`~repro.resilience.FaultProfile`), runs the graph under
a real executor, and checks the contract of docs/resilience.md:

- **alloc** — the first 1-2 buddy-pool allocations fail; a run-level
  :class:`~repro.resilience.RetryPolicy` must absorb them and the run
  must complete.
- **kernel** — a one-shot kernel fault on every device; retries must
  recover it.
- **stall** — one stream op hangs forever; the per-run timeout must
  fire, the stream must be quarantined, and the retried task must
  complete on a fresh stream.
- **device** — one of two GPUs dies mid-run; the executor must
  re-place stranded groups onto the survivor, replay lost spans, and
  complete.
- **degrade** — the only GPU dies.  With host fallbacks registered the
  run must complete on the CPU; without them it must fail with a
  structured :class:`~repro.errors.TaskFailedError` (alternating per
  degrade scenario).

Every completed scenario is cross-checked by the schedule validator
(exact-once must hold across retries and replays) and by the
generator's host-side oracle — the recovered results must be
bit-identical to a fault-free run.  Failed scenarios must still leave
a partially-valid trace.  Run with ``python -m repro verify chaos``.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.check.generator import generate_graph
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.errors import TaskFailedError
from repro.harness import Report, Scenario, counters_of
from repro.resilience.faults import FaultProfile
from repro.resilience.policy import ResiliencePolicy, RetryPolicy
from repro.utils.rng import derive_seed

#: fault classes, cycled over the scenario index
KINDS = ("alloc", "kernel", "stall", "device", "degrade")

#: per-scenario deadline — a hang is itself a failed scenario
_RESULT_TIMEOUT = 60.0

#: injected-stall scenarios use this per-run task deadline (seconds)
_STALL_TIMEOUT = 0.5

#: resilience counters aggregated across the sweep
_COUNTER_KEYS = (
    "resilience.retries",
    "resilience.timeouts",
    "resilience.exhausted",
    "resilience.device_failures",
    "resilience.streams_quarantined",
    "resilience.replayed_tasks",
    "resilience.fallback_tasks",
    "resilience.degraded_topologies",
)


def _profile_for(kind: str, rng: random.Random) -> FaultProfile:
    if kind == "alloc":
        return FaultProfile(alloc_failures=rng.randint(1, 2))
    if kind == "kernel":
        return FaultProfile(kernel_fault_at=rng.randint(1, 2))
    if kind == "stall":
        return FaultProfile(stall_at_op=rng.randint(1, 3))
    if kind == "device":
        return FaultProfile(die_at_op=rng.randint(1, 4))
    assert kind == "degrade"
    return FaultProfile(die_at_op=rng.randint(1, 3))


def run_scenario(index: int, seed: int = 0) -> Scenario:
    """Run chaos scenario *index* of the sweep seeded with *seed*.

    Fully deterministic given ``(index, seed)``: the graph shape, the
    fault profile, the device RNGs, and the retry jitter all derive
    from one blake2b child seed, so a red scenario reproduces from the
    two integers in its report line alone.
    """
    sseed = derive_seed(seed, "chaos", index)
    rng = random.Random(sseed)
    kind = KINDS[index % len(KINDS)]
    workers = rng.choice((1, 2, 4))
    if kind == "device":
        gpus = 2
    elif kind == "degrade":
        gpus = 1
    else:
        gpus = rng.choice((1, 2))
    # alternate degrade scenarios drop the fallbacks: those must fail
    # with a structured TaskFailedError instead of completing
    fallbacks = not (kind == "degrade" and (index // len(KINDS)) % 2 == 1)
    graph_seed = sseed % (1 << 31)
    gen = generate_graph(graph_seed, num_gpus=gpus, fallbacks=fallbacks)
    expect_failure = not fallbacks
    outcome = Scenario(
        index, kind, graph_seed,
        detail={
            "workers": workers,
            "gpus": gpus,
            "nodes": gen.num_nodes,
            "expect_failure": expect_failure,
            "error": "",
        },
    )
    completed = False
    events = 0

    profile = _profile_for(kind, rng)
    if kind in ("device", "degrade"):
        victims = [rng.randrange(gpus)] if kind == "device" else [0]
    elif kind == "stall":
        victims = [0]
    else:
        # placement decides which GPU runs what; arm them all so the
        # fault fires regardless
        victims = list(range(gpus))

    policy: Optional[object] = None
    if kind in ("alloc", "kernel"):
        policy = RetryPolicy(max_attempts=4, base_delay=0.0, seed=graph_seed)
    elif kind == "stall":
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, seed=graph_seed),
            timeout=_STALL_TIMEOUT,
        )

    obs = TraceObserver()
    ex = Executor(
        num_workers=workers, num_gpus=gpus, observers=[obs], seed=graph_seed
    )
    try:
        for ordinal in victims:
            ex.gpu_runtime.device(ordinal).configure_faults(
                profile, seed=graph_seed
            )
        fut = ex.run(gen.graph, metrics=True, policy=policy)
        try:
            fut.result(timeout=_RESULT_TIMEOUT)
            completed = True
            if expect_failure:
                outcome.violations.append(
                    "no-fallback degradation scenario completed; expected "
                    "TaskFailedError"
                )
        except TaskFailedError as exc:
            outcome.detail["error"] = repr(exc)
            if not expect_failure:
                outcome.violations.append(
                    f"scenario should have recovered, got {exc!r}"
                )
        except Exception as exc:  # noqa: BLE001 - harness boundary
            # anything but a structured TaskFailedError is a contract
            # violation, whatever the scenario expected
            outcome.detail["error"] = repr(exc)
            outcome.violations.append(
                f"unstructured failure escaped the resilience layer: {exc!r}"
            )
        report = getattr(fut, "run_report", None)
        if report is not None:
            events = len(report.events)
        # recovered results must be bit-identical to a fault-free run:
        # the oracle replays the exact chain arithmetic
        checked, num_records = gen.check(
            obs.records, passes=1, num_gpus=gpus, completed=completed
        )
        outcome.violations.extend(checked)
        snapshot = ex.metrics.snapshot()
    finally:
        ex.shutdown()
    outcome.counts = {
        "completed": int(completed),
        "failed_as_expected": int(expect_failure and not completed),
        "records": num_records,
        "events": events,
        **counters_of(snapshot, _COUNTER_KEYS),
    }
    return outcome


def scenarios(report: Report, n: int) -> Iterator[Scenario]:
    """Chaos scenarios ``0 .. n-1`` of the sweep seeded ``report.seed``."""
    for i in range(n):
        yield run_scenario(i, report.seed)
