"""Differential replay harness: frozen-graph replays vs fresh runs.

A fresh submission and a replay of a frozen graph (docs/runtime.md,
"Freeze and replay") run on the same slot loop and differ in what they
reuse: a replay re-applies the plan cached on the frozen topology
(placement and device assignment from its first submission) and reads
its host callables from the frozen table that ``bindings=`` patches
(this harness binds nothing), where a fresh run packs its placement per
submission.  This harness runs every stress-generator graph **both
ways** and cross-checks them:

1. generate the same seeded graph twice (identical structure and
   arithmetic — everything derives from the seed);
2. run one copy fresh (``run_n(graph, N)``) and the other frozen
   (``freeze()`` + N serialized ``run(frozen)`` submissions), each
   under its own :class:`~repro.core.executor.Executor` with a
   :class:`~repro.core.observer.TraceObserver` attached;
3. give **both** sides the generator's run check
   (:meth:`~repro.check.generator.GeneratedGraph.check`: exact-once,
   happens-before, stream FIFO, placement consistency, then the
   host-replay oracle) — N serialized one-pass replays must check
   exactly like one N-pass run;
4. compare the two runs' final chain arrays, host-task counts and trace
   lengths against each other.

Scenario modes (``seed % 4``) also drive cancellation, submission
deadlines, and device fault injection *through the replay path*, plus
a clean follow-up replay proving the frozen graph survives a
cancelled/expired submission.  Run with ``python -m repro verify
replay``.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import CancelledError
from typing import Callable, Iterator, Sequence, Tuple

import numpy as np

from repro.check.generator import GeneratedGraph, generate_graph
from repro.check.stress import STRESS_POOL_BYTES, _RESULT_TIMEOUT
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.harness import Report, Scenario
from repro.resilience import FaultProfile, RetryPolicy

#: scenario modes, chosen per seed; ``fault`` degrades to ``normal``
#: on host-only configs (nothing to inject)
_MODES = ("normal", "cancel", "deadline", "fault")

#: deadline armed for deadline-mode scenarios; the gate holds the graph
#: at the starting line well past this
_DEADLINE_S = 0.05


def _inject_faults(ex: Executor, gpus: int, seed: int) -> None:
    # one-shot kernel fault on every device: whichever GPU the cached
    # plan picks, the first launch there fails and the retry policy
    # must recover — through the frozen path on the replay side
    for ordinal in range(gpus):
        ex.gpu_runtime.device(ordinal).configure_faults(
            FaultProfile(kernel_fault_at=1), seed=seed
        )


def _cross_compare(
    fresh: GeneratedGraph, frozen: GeneratedGraph, outcome: Scenario
) -> None:
    """Compare the two runs' terminal state against each other."""
    fresh_counts = sorted(fresh.host_log)
    frozen_counts = sorted(frozen.host_log)
    if fresh_counts != frozen_counts:
        outcome.violations.append(
            f"host-task execution multiset differs: fresh ran "
            f"{len(fresh_counts)} tasks, frozen ran {len(frozen_counts)}"
        )
    for ca, cb in zip(fresh.chains, frozen.chains):
        if not np.allclose(ca.array, cb.array, rtol=1e-12, atol=1e-12):
            outcome.violations.append(
                f"chain {ca.index}: frozen replay result differs from "
                f"the fresh run"
            )


def run_scenario(index: int, workers: int, gpus: int, seed: int) -> Scenario:
    """One fresh-vs-frozen differential scenario; its mode derives from
    the seed (``seed % 4``), ``fault`` degrading to ``normal`` on
    host-only configs (nothing to inject)."""
    mode = _MODES[seed % len(_MODES)]
    if mode == "fault" and gpus == 0:
        mode = "normal"
    rng = random.Random((seed << 8) ^ (workers * 37) ^ (gpus * 101))
    passes = rng.randint(2, 3) if mode in ("normal", "fault") else 1
    gated = mode in ("cancel", "deadline")
    fresh = generate_graph(seed, num_gpus=gpus, gate=gated)
    frozen_gen = generate_graph(seed, num_gpus=gpus, gate=gated)
    frozen = frozen_gen.graph.freeze()
    outcome = Scenario(
        index, mode, seed,
        counts={"records_fresh": 0, "records_frozen": 0},
        detail={
            "workers": workers,
            "gpus": gpus,
            "passes": passes,
            "nodes": fresh.num_nodes,
            # the frozen side takes the slot fast path
            "fast": frozen.fast_capable,
        },
    )
    if len(fresh.graph) != len(frozen_gen.graph):
        outcome.violations.append(
            "generator is not seed-deterministic; differential is void"
        )
        return outcome

    policy = (
        RetryPolicy(max_attempts=3, base_delay=0.0) if mode == "fault" else None
    )

    def drive(
        gen: GeneratedGraph,
        ex: Executor,
        obs: TraceObserver,
        side: str,
        submit: Callable,
    ) -> int:
        """Run one side through the scenario mode; *submit* is
        ``(ex, passes, policy, deadline) -> futures``.  Returns the
        number of trace records it checked."""
        if mode in ("normal", "fault"):
            if mode == "fault":
                _inject_faults(ex, gpus, seed)
            for fut in submit(ex, passes, policy, None):
                try:
                    fut.result(timeout=_RESULT_TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - harness boundary
                    outcome.violations.append(
                        f"{side}: unexpected failure: {exc!r}"
                    )
            checked, num_records = gen.check(
                obs.records, passes=passes, num_gpus=gpus, completed=True
            )
            outcome.violations.extend(f"{side}: {v}" for v in checked)
            return num_records
        # cancel/deadline: one gated submission is killed mid-flight,
        # then a clean follow-up run proves the graph still replays
        (fut,) = submit(ex, 1, None, None if mode == "cancel" else _DEADLINE_S)
        if mode == "cancel":
            ex.cancel(fut)
            gen.gate.set()
        else:
            # hold the graph at the gate until the deadline fires (the
            # ``service.deadline_exceeded`` counter ticks on the timer
            # thread), then release it so the flush can finish
            give_up = time.monotonic() + 10.0
            while (
                ex.metrics.snapshot().get("service.deadline_exceeded", 0) == 0
                and time.monotonic() < give_up
            ):
                time.sleep(0.005)
            gen.gate.set()
        try:
            fut.result(timeout=_RESULT_TIMEOUT)
            outcome.violations.append(f"{side}: {mode} run resolved cleanly")
        except CancelledError:
            pass
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(f"{side}: unexpected failure: {exc!r}")
        partial, partial_records = gen.check(
            obs.records, passes=1, num_gpus=gpus, completed=False
        )
        outcome.violations.extend(f"{side}: {v}" for v in partial)
        # the gate stays set, so the follow-up runs unimpeded; the
        # oracle judges it alone, whatever the killed run left behind
        gen.reset()
        obs2 = TraceObserver()
        ex.remove_observer(obs)
        ex.add_observer(obs2)
        (fut2,) = submit(ex, 1, None, None)
        try:
            fut2.result(timeout=_RESULT_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(
                f"{side}: follow-up after {mode} failed: {exc!r}"
            )
        strict, strict_records = gen.check(
            obs2.records, passes=1, num_gpus=gpus, completed=True
        )
        outcome.violations.extend(f"{side}: {v}" for v in strict)
        return partial_records + strict_records

    # the fresh side submits run_n(graph, N); the frozen side N
    # serialized single-pass replays of the compiled topology, which the
    # graph FIFO orders, so its trace must check like one N-pass run
    for side, gen, submit in (
        ("fresh", fresh, lambda ex, n, pol, dl: [
            ex.run_n(fresh.graph, n, policy=pol, deadline=dl)
        ]),
        ("frozen", frozen_gen, lambda ex, n, pol, dl: [
            ex.run(frozen, policy=pol, deadline=dl) for _ in range(n)
        ]),
    ):
        obs = TraceObserver()
        ex = Executor(
            num_workers=workers, num_gpus=gpus, gpu_memory_bytes=STRESS_POOL_BYTES,
            observers=[obs], seed=seed,
        )
        try:
            outcome.counts[f"records_{side}"] = drive(gen, ex, obs, side, submit)
        finally:
            ex.shutdown()

    if mode in ("normal", "fault"):
        _cross_compare(fresh, frozen_gen, outcome)
        fresh_n, frozen_n = (
            outcome.counts["records_fresh"], outcome.counts["records_frozen"]
        )
        if fresh_n != frozen_n:
            outcome.violations.append(
                f"trace length differs: fresh committed {fresh_n} "
                f"records, frozen {frozen_n}"
            )
    return outcome


def scenarios(
    report: Report, n: int, configs: Sequence[Tuple[int, int]]
) -> Iterator[Scenario]:
    """Scenario *i* runs graph seed ``report.seed + i // len(configs)``
    on config ``configs[i % len(configs)]``: the configs pair a
    host-only shape (slot fast path) with GPU shapes (general frozen
    path, cached placement plan)."""
    for i in range(n):
        workers, gpus = configs[i % len(configs)]
        yield run_scenario(i, workers, gpus, report.seed + i // len(configs))
