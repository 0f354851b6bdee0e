"""Differential replay harness: frozen-graph replays vs fresh runs.

The freeze-and-replay fast path (docs/runtime.md, "Freeze and replay")
re-implements dispatch for frozen graphs: a compiled slot table, a
cached placement plan, and (for host-only graphs) a chunked slot loop
that bypasses the per-node scheduling machinery entirely.  That is
exactly the kind of duplicated logic that drifts, so this harness runs
every stress-generator graph **both ways** and cross-checks them:

1. generate the same seeded graph twice (identical structure and
   arithmetic — everything derives from the seed);
2. run one copy fresh (``run_n(graph, N)``) and the other frozen
   (``freeze()`` + N serialized ``run(frozen)`` submissions), each
   under its own :class:`~repro.core.executor.Executor` with a
   :class:`~repro.core.observer.TraceObserver` attached;
3. feed **both** trace streams through
   :func:`~repro.check.validate.validate_schedule` (exact-once,
   happens-before, stream FIFO, placement consistency) — N serialized
   one-pass replays must validate exactly like one N-pass run;
4. check **both** result sets against the generator's host-replay
   oracle, then compare the two runs' final chain arrays and host-task
   counts against each other;
5. require the two validator verdicts to agree (both clean, or the
   fresh path already broken — a frozen-only violation is a replay
   bug by construction).

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
from repro.check.validate import validate_schedule
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


def _make_executor(workers: int, gpus: int, seed: int) -> Executor:
    return Executor(
        num_workers=workers,
        num_gpus=gpus,
        gpu_memory_bytes=STRESS_POOL_BYTES,
        seed=seed,
    )


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
    ) -> None:
        """Run one side through the scenario mode."""
        if mode in ("normal", "fault"):
            if mode == "fault":
                _inject_faults(ex, gpus, seed)
            for fut in submit(passes, policy):
                try:
                    fut.result(timeout=_RESULT_TIMEOUT)
                except Exception as exc:  # noqa: BLE001 - harness boundary
                    outcome.violations.append(
                        f"{side}: unexpected failure: {exc!r}"
                    )
            report = validate_schedule(
                gen.graph,
                obs.records,
                passes=passes,
                num_gpus=gpus,
            )
            outcome.violations.extend(f"{side}: {v}" for v in report.violations)
            outcome.violations.extend(
                f"{side}: oracle: {p}" for p in gen.verify(passes)
            )
            _record(side, report.num_records)
            return
        # cancel/deadline: one gated submission is killed mid-flight,
        # then a clean follow-up run proves the graph still replays
        (fut,) = submit(1, None) if mode == "cancel" else submit(1, None, True)
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
        partial = validate_schedule(
            gen.graph,
            obs.records,
            passes=1,
            num_gpus=gpus,
            allow_partial=True,
        )
        outcome.violations.extend(f"{side}: {v}" for v in partial.violations)
        # the gate stays set, so the follow-up runs unimpeded
        obs2 = TraceObserver()
        ex.remove_observer(obs)
        ex.add_observer(obs2)
        (fut2,) = submit(1, None)
        try:
            fut2.result(timeout=_RESULT_TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - harness boundary
            outcome.violations.append(
                f"{side}: follow-up after {mode} failed: {exc!r}"
            )
        strict = validate_schedule(
            gen.graph, obs2.records, passes=1, num_gpus=gpus
        )
        outcome.violations.extend(f"{side}: {v}" for v in strict.violations)
        _record(side, partial.num_records + strict.num_records)

    def _record(side: str, n: int) -> None:
        outcome.counts[f"records_{side}"] = n

    # fresh side: classic run_n submission
    obs_a = TraceObserver()
    ex_a = _make_executor(workers, gpus, seed)
    ex_a.add_observer(obs_a)
    try:
        drive(
            fresh,
            ex_a,
            obs_a,
            "fresh",
            lambda n, pol, dl=False: [
                ex_a.run_n(
                    fresh.graph,
                    n,
                    policy=pol,
                    deadline=_DEADLINE_S if dl else None,
                )
            ],
        )
    finally:
        ex_a.shutdown()

    # frozen side: N serialized single-pass replays of the compiled
    # topology — the graph FIFO orders them, so the trace must
    # validate exactly like one N-pass run
    obs_b = TraceObserver()
    ex_b = _make_executor(workers, gpus, seed)
    ex_b.add_observer(obs_b)
    try:
        drive(
            frozen_gen,
            ex_b,
            obs_b,
            "frozen",
            lambda n, pol, dl=False: [
                ex_b.run(
                    frozen,
                    policy=pol,
                    deadline=_DEADLINE_S if dl else None,
                )
                for _ in range(n)
            ],
        )
    finally:
        ex_b.shutdown()

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
