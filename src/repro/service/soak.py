"""Soak harness: multi-tenant overload scenarios against one executor.

Where the chaos harness (:mod:`repro.resilience.chaos`) stresses the
*fault* path one submission at a time, the soak harness stresses the
*submission* path many tenants at a time: each scenario starts one
executor with a bounded :class:`~repro.service.AdmissionController`
(the policy cycles ``block``/``reject``/``shed`` over the scenario
index), then lets several submitter threads race mixed workloads at
it — ``run``/``run_n``/``run_until`` over seeded generated graphs
(:mod:`repro.check.generator`), stacked resubmissions of the same
graph (so queued siblings exist to shed, cancel, and deadline), random
priorities, random deadlines (some armed to fire, some generous), and
random caller-side cancels.

Every scenario is then checked three ways:

1. **Reconciliation** — every submission reaches exactly one terminal
   outcome, so ``submitted == rejected + admitted`` and ``admitted ==
   completed + shed + deadline_exceeded + cancelled + failed`` must
   hold *exactly*, and the executor's ``service.*`` counters must
   agree; a future still unresolved after the sweep is a stranded
   future and a violation.
2. **Trace validation** — the run's :class:`TraceObserver` records are
   filtered per graph (node ids are globally unique) and checked by the
   schedule validator; graphs with cancelled/shed/deadline submissions
   validate with ``allow_partial``.
3. **Oracle** — graphs whose every submission completed must produce
   bit-identical results to the generator's host-side replay.

The harness records per-submission latency (end-to-end as the
scenario's samples, the submit call as p50/p95/p99 per scenario and
over the sweep, in the report's ``detail``); run
with ``python -m repro verify soak`` (the full-size report is the
committed ``BENCH_service_soak.json`` record).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.check.generator import GeneratedGraph, generate_graph
from repro.core.executor import Executor
from repro.core.observer import TraceObserver
from repro.errors import AdmissionRejectedError
from repro.harness import Report, Scenario, counter_mismatches, counters_of, percentiles
from repro.service.admission import POLICIES, AdmissionController
from repro.utils.rng import derive_seed

#: per-future settle deadline — an unresolved future is itself a
#: stranded-future violation
_RESULT_TIMEOUT = 60.0

#: the terminal outcome classes every submission reconciles into
OUTCOMES = (
    "completed",
    "rejected",
    "shed",
    "deadline_exceeded",
    "cancelled",
    "failed",
)

#: service counters aggregated across the sweep
_COUNTER_KEYS = (
    "service.admitted",
    "service.rejected",
    "service.shed",
    "service.deadline_exceeded",
    "service.admission_blocked",
    "service.drain_cancelled",
)


@dataclass
class _Submission:
    """One ``run*`` call a submitter thread made (admitted or not)."""

    graph_key: tuple
    mode: str
    priority: int
    deadline: Optional[float]
    expected_passes: int
    submit_latency: float
    future: Optional[object] = None  # None: rejected at submission
    reject_reason: str = ""
    cancel_requested: bool = False
    outcome: str = ""
    wall_latency: float = 0.0


def _classify(sub: _Submission, violations: List[str]) -> None:
    """Resolve one submission's terminal outcome (mutates ``sub``)."""
    if sub.future is None:
        sub.outcome = "rejected"
        return
    try:
        sub.future.result(timeout=_RESULT_TIMEOUT)
        sub.outcome = "completed"
        return
    except AdmissionRejectedError as exc:
        sub.outcome = "shed"
        if exc.reason != "shed":
            violations.append(
                f"future resolved with AdmissionRejectedError "
                f"reason={exc.reason!r}; only 'shed' may reach a future"
            )
        return
    except FutureTimeoutError:
        sub.outcome = "failed"
        violations.append(
            f"stranded future: submission ({sub.mode}, "
            f"priority={sub.priority}) unresolved after "
            f"{_RESULT_TIMEOUT:.0f}s"
        )
        return
    except CancelledError:
        if sub.cancel_requested:
            sub.outcome = "cancelled"
        elif sub.deadline is not None:
            sub.outcome = "deadline_exceeded"
        else:
            sub.outcome = "cancelled"
            violations.append(
                f"unexpected CancelledError: no cancel requested and "
                f"no deadline set ({sub.mode}, priority={sub.priority})"
            )
        return
    except BaseException as exc:  # noqa: BLE001 - harness boundary
        sub.outcome = "failed"
        violations.append(
            f"submission failed unexpectedly: {exc!r} ({sub.mode})"
        )


def run_scenario(
    index: int, seed: int = 0, submit_samples: Optional[List[float]] = None
) -> Scenario:
    """Run soak scenario *index* of the sweep seeded with *seed*; the
    submit-call latencies are also appended to *submit_samples*.

    Graph shapes, workload mix, priorities, deadlines, and cancel
    choices all derive deterministically from ``(index, seed)``; only
    thread interleavings vary between runs.
    """
    sseed = derive_seed(seed, "soak", index)
    rng = random.Random(sseed)
    policy = POLICIES[index % len(POLICIES)]
    workers = rng.choice((2, 4))
    gpus = rng.choice((1, 2))
    max_topologies = rng.randint(3, 6)
    submitters = rng.randint(3, 5)

    scenario = Scenario(
        index, policy, sseed % (1 << 31),
        detail={
            "workers": workers,
            "gpus": gpus,
            "max_topologies": max_topologies,
            "submitters": submitters,
        },
    )
    ctrl = AdmissionController(
        max_topologies=max_topologies,
        policy=policy,
        block_timeout=5.0 if policy == "block" else None,
    )
    obs = TraceObserver()
    ex = Executor(
        num_workers=workers,
        num_gpus=gpus,
        observers=[obs],
        seed=scenario.seed,
        admission=ctrl,
    )

    graphs: Dict[tuple, GeneratedGraph] = {}
    graphs_lock = threading.Lock()
    submissions: List[_Submission] = []
    subs_lock = threading.Lock()
    violations: List[str] = []

    def submitter(tid: int) -> None:
        srng = random.Random(derive_seed(sseed, "tenant", tid))
        for g in range(srng.randint(2, 3)):
            gseed = derive_seed(sseed, "graph", tid, g) % (1 << 31)
            gen = generate_graph(
                gseed,
                num_gpus=gpus,
                max_hosts=4,
                max_chains=2,
                max_kernels=2,
                max_len=64,
            )
            key = (tid, g)
            with graphs_lock:
                graphs[key] = gen
            # stacked submissions of the same graph create the queued
            # siblings that shedding, deadlines, and cancels act on
            for _ in range(srng.randint(1, 3)):
                mode = srng.choice(("run", "run_n", "run_until"))
                priority = srng.randint(0, 3)
                roll = srng.random()
                deadline = (
                    0.003 if roll < 0.15 else 30.0 if roll < 0.30 else None
                )
                expected = 1
                t0 = time.monotonic()
                try:
                    if mode == "run":
                        fut = ex.run(
                            gen.graph, priority=priority, deadline=deadline
                        )
                    elif mode == "run_n":
                        expected = srng.randint(1, 2)
                        fut = ex.run_n(
                            gen.graph,
                            expected,
                            priority=priority,
                            deadline=deadline,
                        )
                    else:
                        expected = srng.randint(1, 2)
                        state = {"n": 0}

                        def pred(state=state, target=expected) -> bool:
                            state["n"] += 1
                            return state["n"] >= target

                        fut = ex.run_until(
                            gen.graph,
                            pred,
                            priority=priority,
                            deadline=deadline,
                        )
                except AdmissionRejectedError as exc:
                    with subs_lock:
                        submissions.append(
                            _Submission(
                                graph_key=key,
                                mode=mode,
                                priority=priority,
                                deadline=deadline,
                                expected_passes=0,
                                submit_latency=time.monotonic() - t0,
                                reject_reason=exc.reason,
                            )
                        )
                    continue
                sub = _Submission(
                    graph_key=key,
                    mode=mode,
                    priority=priority,
                    deadline=deadline,
                    expected_passes=expected,
                    submit_latency=time.monotonic() - t0,
                    future=fut,
                )
                fut.add_done_callback(
                    lambda f, sub=sub, t0=t0: setattr(
                        sub, "wall_latency", time.monotonic() - t0
                    )
                )
                with subs_lock:
                    submissions.append(sub)
                if srng.random() < 0.15:
                    time.sleep(srng.random() * 0.004)
                    sub.cancel_requested = ex.cancel(fut)

    threads = [
        threading.Thread(target=submitter, args=(tid,), name=f"soak-t{tid}")
        for tid in range(submitters)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # settle every future and classify its terminal outcome
        for sub in submissions:
            _classify(sub, violations)
        if not ex.drain(timeout=_RESULT_TIMEOUT):
            violations.append("drain timed out after every future settled")
        for sub in submissions:
            if sub.future is not None and not sub.future.done():
                violations.append(
                    f"stranded future after drain ({sub.mode}, "
                    f"outcome={sub.outcome})"
                )
        snapshot = ex.metrics.snapshot()
    finally:
        ex.shutdown(wait=False)

    # -- reconciliation ----------------------------------------------
    counts = {k: 0 for k in OUTCOMES}
    for sub in submissions:
        counts[sub.outcome] += 1
    admitted = len(submissions) - counts["rejected"]
    settled = sum(counts[k] for k in OUTCOMES if k != "rejected")
    if settled != admitted:  # pragma: no cover - counts are exhaustive
        violations.append(
            f"outcome reconciliation broke: {settled} settled vs "
            f"{admitted} admitted"
        )
    counters = counters_of(snapshot, _COUNTER_KEYS)
    # the deadline counter may exceed the classified count: a deadline
    # can fire in the race window where the run is completing anyway
    violations.extend(counter_mismatches(
        [
            ("service.admitted", counters.get("service.admitted", 0), admitted),
            ("service.rejected", counters.get("service.rejected", 0), counts["rejected"]),
            ("service.shed", counters.get("service.shed", 0), counts["shed"]),
        ],
        at_least=[(
            "service.deadline_exceeded",
            counters.get("service.deadline_exceeded", 0),
            counts["deadline_exceeded"],
        )],
    ))

    # -- per-graph trace validation + oracle --------------------------
    num_records = 0
    by_graph: Dict[tuple, List[_Submission]] = {}
    for sub in submissions:
        by_graph.setdefault(sub.graph_key, []).append(sub)
    for key, gen in graphs.items():
        subs = by_graph.get(key, [])
        nids = {n.nid for n in gen.graph.nodes}
        records = [r for r in obs.records if r.nid in nids]
        expected = sum(
            s.expected_passes for s in subs if s.outcome != "rejected"
        )
        checked, n = gen.check(
            records,
            passes=max(expected, 1),
            num_gpus=gpus,
            completed=all(s.outcome == "completed" for s in subs),
        )
        num_records += n
        violations.extend(f"graph {key}: {v}" for v in checked)

    scenario.violations = violations
    scenario.counts = {
        **counts,
        "submitted": len(submissions),
        "admitted": admitted,
        "graphs": len(graphs),
        "records": num_records,
        **counters,
    }
    scenario.samples = [
        s.wall_latency for s in submissions if s.future is not None
    ]
    submit = [s.submit_latency for s in submissions]
    scenario.detail["submit_latency_s"] = percentiles(submit)
    if submit_samples is not None:
        submit_samples.extend(submit)
    return scenario


def scenarios(report: Report, n: int) -> Iterator[Scenario]:
    """Soak scenarios ``0 .. n-1`` of the sweep seeded ``report.seed``;
    the sweep-wide submit-call percentiles go to the report's detail."""
    submit: List[float] = []
    for i in range(n):
        yield run_scenario(i, report.seed, submit)
    report.detail["submit_latency_s"] = percentiles(submit)
