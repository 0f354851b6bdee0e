"""Gateway suites: multiprocess serving scenarios under chaos.

Asynchronous *tenants* race one shared :class:`~repro.gateway.Gateway`
— a pool of spawned worker processes, each with its own executor and
bounded admission controller — for the whole sweep (spawning a pool
per scenario would measure process start-up, not serving behaviour).
Each tenant mixes pinned generated-graph instances (seeded, carrying
the host-replay oracle), frozen burst replays (some hedged), one-shot
corpus flows, random priorities, deadlines armed to fire and deadlines
that never will, and racy caller cancels.

Two rows of :data:`repro.harness.SUITES` run this module and differ
only in their row — gateway configuration, chaos families and cadence,
hedge shape, traffic mix and sweep-level checks:

- ``gateway`` — *black* failures: planned scenarios SIGKILL a live
  worker mid-flight and time the respawn; the sweep ends with frozen
  burst replays through the pool vs. one in-process executor of a
  single worker's shape (the GIL claim of docs/gateway.md);
- ``gateway-gray`` — *gray* failures: planned scenarios wedge a live
  worker's recv loop, which must be breaker-ejected from routing,
  never killed, and re-admitted once heartbeats resume, while a hedged
  submission aimed at it races the wedged primary; planned kills as
  above; and a retry-budget exhaustion drill.

Scenario checks:

1. **Reconciliation** — every submission settles with exactly one
   terminal outcome; the gateway's own ``gateway.submits`` /
   ``gateway.settled`` counters must agree with the harness's count
   *exactly*; a submission still pending after the settle sweep is a
   stranded awaitable and a violation, and so is a non-zero
   ``gateway.inflight`` once everything settled (a leaked leg).
2. **Failure accounting** — ``worker_lost`` and ``failed`` outcomes
   are violations except ``worker_lost`` in kill scenarios, the
   documented post-replan residue.
3. **Oracle** — pinned generated instances whose every submission
   completed on an unkilled worker must verify bit-identically against
   the generator's host-side replay.

Run with ``python -m repro verify gateway`` / ``gateway-gray``.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.gateway.gateway import Gateway, Submission
from repro.gateway.messages import OUTCOMES
from repro.gateway.spec import BuiltinSpec, BurstSpec, GeneratedSpec
from repro.gateway.worker import WorkerConfig
from repro.harness import Report, Scenario, cadence, event_loop, unfired
from repro.resilience import RetryBudget
from repro.utils.rng import derive_seed

#: per-scenario settle deadline — an unresolved awaitable past this is
#: a stranded-submission violation
_SETTLE_TIMEOUT = 120.0

#: how long a killed worker slot may take to come back
_RESPAWN_TIMEOUT = 30.0

#: injected recv-loop stall — comfortably past the gray row's stall
#: window, comfortably under its death budget
_STALL_S = 1.2

#: how long a stalled worker may take to trip its breaker open
_BREAKER_OPEN_TIMEOUT = 5.0

#: how long a recovered worker may take to be re-admitted (cooldown
#: escalation + half-open probes included)
_READMIT_TIMEOUT = 15.0

#: chaos family -> the scenario tally that counts it firing
_FIRED = {"kill": "kills", "stall": "stalls"}


async def _tenant(
    gw: Gateway,
    name: str,
    tseed: int,
    mix: Tuple[float, float, float],
    frozen_pool: list,
    hedge_fh,
    sc: Scenario,
    subs: List[Submission],
    instances: List[list],
) -> None:
    """One tenant's traffic; *mix* is (P(pinned instance), P(frozen
    burst), P(hedged | burst)), the rest one-shot corpus flows."""
    p_instance, p_frozen, p_hedge = mix
    rng = random.Random(tseed)
    for g in range(rng.randint(2, 3)):
        roll = rng.random()
        if roll < p_instance:
            # pinned generated instance: the oracle-bearing shape
            gseed = derive_seed(tseed, "graph", g) % (1 << 31)
            gh = gw.instance(GeneratedSpec(seed=gseed, num_gpus=1), tenant=name)
            entry = [gh, 0, True]  # handle, expected passes, all-completed
            instances.append(entry)
            for _ in range(rng.randint(1, 2)):
                sub = gw.submit(
                    gh,
                    tenant=name,
                    priority=rng.randint(0, 3),
                    repeats=rng.randint(1, 2),
                )
                subs.append(sub)
                res = await sub
                if res.outcome == "completed":
                    entry[1] += res.passes
                else:
                    entry[2] = False
        elif roll < p_instance + p_frozen:
            # frozen burst replays, racing concurrently
            batch = []
            for _ in range(rng.randint(2, 4)):
                if rng.random() < p_hedge:
                    batch.append(gw.submit(
                        hedge_fh,
                        tenant=name,
                        hedge_after=rng.choice((0.2, "p95")),
                    ))
                else:
                    batch.append(gw.submit(
                        rng.choice(frozen_pool),
                        tenant=name,
                        priority=rng.randint(0, 3),
                    ))
            subs.extend(batch)
            await asyncio.gather(*(s.future for s in batch))
        else:
            # one-shot workloads with deadline/cancel pressure
            droll = rng.random()
            deadline = 0.003 if droll < 0.2 else 30.0 if droll < 0.4 else None
            sub = gw.submit(
                BuiltinSpec(rng.choice(("saxpy", "timing"))),
                tenant=name,
                priority=rng.randint(0, 3),
                deadline=deadline,
            )
            subs.append(sub)
            if rng.random() < 0.3:
                await asyncio.sleep(rng.random() * 0.004)
                if gw.cancel(sub):
                    sc.counts["cancels"] += 1
            await asyncio.wait({sub.future})
        if rng.random() < 0.3:
            await asyncio.sleep(rng.random() * 0.01)


def _live_victim(gw: Gateway, rng: random.Random):
    victim = gw._workers[rng.randrange(gw.num_workers)]
    if victim is None or victim.dead or not victim.proc.is_alive():
        return None  # the sweep's planned_chaos_fired check reports it
    return victim


async def _kill(gw: Gateway, rng: random.Random, sc: Scenario) -> None:
    """SIGKILL a live worker mid-flight and time its respawn."""
    await asyncio.sleep(rng.random() * 0.05)
    victim = _live_victim(gw, rng)
    if victim is None:
        return
    sc.detail["killed_wid"] = victim.wid
    t0 = time.monotonic()
    os.kill(victim.proc.pid, signal.SIGKILL)
    sc.counts["kills"] += 1
    while time.monotonic() - t0 < _RESPAWN_TIMEOUT:
        fresh = gw._workers[victim.wid]
        if fresh is not victim and fresh is not None and fresh.ready:
            sc.detail["respawn_s"] = round(time.monotonic() - t0, 4)
            return
        await asyncio.sleep(0.02)
    sc.violations.append(
        f"worker {victim.wid} not respawned within "
        f"{_RESPAWN_TIMEOUT:.0f}s of SIGKILL"
    )


def _tenant_hashed_to(num_workers: int, wid: int) -> str:
    """A tenant string whose crc32 affinity is worker *wid*."""
    k = 0
    while zlib.crc32(f"pin-{k}".encode()) % num_workers != wid:
        k += 1
    return f"pin-{k}"


async def _stall(
    gw: Gateway, rng: random.Random, sc: Scenario, hedge_fh, subs: List[Submission]
) -> None:
    """Wedge a live worker's recv loop: its breaker must open, and the
    worker must be re-admitted — never respawned — once it recovers."""
    await asyncio.sleep(0.02 + rng.random() * 0.03)
    victim = _live_victim(gw, rng)
    if victim is None:
        return
    wid = victim.wid
    sc.detail["stalled_wid"] = wid
    breaker = gw._breakers[wid]
    opened0 = breaker.opened_total
    t0 = time.monotonic()
    gw.inject_chaos(wid, stall_s=_STALL_S)
    sc.counts["stalls"] += 1
    # aim one hedged submission at the wedged worker: its Submit sits
    # unread behind the stall, so the hedge leg on a healthy worker
    # should win the race
    hs = gw.submit(
        hedge_fh, tenant=_tenant_hashed_to(gw.num_workers, wid), hedge_after=0.15
    )
    subs.append(hs)
    if hs.wid == wid:
        sc.counts["hedged"] += 1
    while time.monotonic() - t0 < _BREAKER_OPEN_TIMEOUT:
        if breaker.opened_total > opened0:
            sc.detail["stall_detect_s"] = round(time.monotonic() - t0, 4)
            break
        await asyncio.sleep(0.02)
    else:
        sc.violations.append(
            f"worker {wid} stalled {_STALL_S:.1f}s but its breaker never "
            f"opened within {_BREAKER_OPEN_TIMEOUT:.0f}s"
        )
        return
    while time.monotonic() - t0 < _READMIT_TIMEOUT:
        if gw._workers[wid] is not victim:
            sc.violations.append(
                f"stalled worker {wid} was respawned — a gray stall "
                f"escalated to a death"
            )
            return
        if breaker.routable:
            sc.detail["readmit_s"] = round(time.monotonic() - t0, 4)
            return
        await asyncio.sleep(0.05)
    sc.violations.append(
        f"worker {wid} recovered but was not re-admitted within "
        f"{_READMIT_TIMEOUT:.0f}s"
    )


async def _scenario(
    gw: Gateway,
    label: str,
    index: int,
    seed: int,
    kind: str,
    mix: Tuple[float, float, float],
    frozen_pool: list,
    hedge_fh,
) -> Scenario:
    sseed = derive_seed(seed, label, index)
    rng = random.Random(sseed)
    sc = Scenario(
        index, kind, sseed % (1 << 31),
        counts=dict.fromkeys(
            (*OUTCOMES, "submitted", "cancels", "kills", "stalls", "hedged",
             "verified_instances", "tainted_instances"), 0,
        ),
        detail={"tenants": rng.randint(2, 4)},
    )
    before = gw.snapshot()
    subs: List[Submission] = []
    instances: List[list] = []
    tasks = [
        asyncio.create_task(_tenant(
            gw, f"{label}-{index}-{tid}", derive_seed(sseed, "tenant", tid),
            mix, frozen_pool, hedge_fh, sc, subs, instances,
        ))
        for tid in range(sc.detail["tenants"])
    ]
    chaos: Optional[asyncio.Task] = None
    if kind == "kill":
        chaos = asyncio.create_task(_kill(gw, rng, sc))
    elif kind == "stall":
        chaos = asyncio.create_task(_stall(gw, rng, sc, hedge_fh, subs))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), _SETTLE_TIMEOUT)
    except asyncio.TimeoutError:
        sc.violations.append(f"scenario did not settle within {_SETTLE_TIMEOUT:.0f}s")
        for t in tasks:
            t.cancel()
    if chaos is not None:
        await chaos
    await _reconcile(gw, sc, subs, instances, before)
    return sc


async def _reconcile(
    gw: Gateway, sc: Scenario, subs: List[Submission], instances: List[list], before: dict
) -> None:
    """Exactly-once settle reconciliation, gateway-counter agreement,
    and the pinned-instance oracle."""
    violations = sc.violations
    pending = [s for s in subs if not s.done()]
    if pending:
        _done, still = await asyncio.wait([s.future for s in pending], timeout=30.0)
        if still:
            violations.append(f"{len(still)} stranded submission(s) after settle sweep")
    results = [s.future.result() for s in subs if s.done()]
    for res in results:
        sc.counts[res.outcome] += 1
    sc.counts["submitted"] = len(subs)
    if len(results) != len(subs):
        violations.append(
            f"outcome reconciliation broke: {len(results)} settled vs "
            f"{len(subs)} submitted"
        )
    if sc.counts["failed"]:
        violations.append(f"{sc.counts['failed']} submission(s) failed")
    if sc.counts["worker_lost"] and sc.kind != "kill":
        violations.append(f"{sc.counts['worker_lost']} worker_lost outcome(s) without a kill")

    # gateway counters must agree with the harness exactly
    after = gw.snapshot()
    d_submits = after["gateway.submits"] - before["gateway.submits"]
    if d_submits != len(subs):
        violations.append(
            f"gateway.submits moved by {d_submits}, harness submitted {len(subs)}"
        )
    d_settled = after["gateway.settled"] - before["gateway.settled"]
    if d_settled != len(results):
        violations.append(
            f"gateway.settled moved by {d_settled}, harness settled {len(results)}"
        )
    # every harness submission has settled, so no leg may be left in
    # the gateway's routing state: a live leg here outlived its Result
    if len(results) == len(subs) and after["gateway.inflight"]:
        violations.append(
            f"gateway.inflight is {after['gateway.inflight']:.0f} after every "
            "submission settled (leaked legs)"
        )

    for gh, expected, all_completed in instances:
        if gh.tainted:
            sc.counts["tainted_instances"] += 1
            continue
        if not all_completed or expected <= 0:
            continue
        for v in await gw.verify(gh, expected):
            violations.append(f"instance {gh.iid}: {v}")
        sc.counts["verified_instances"] += 1
    sc.samples = [r.wall_s for r in results if r.wall_s > 0]


async def _measure_throughput(
    gw: Gateway, config: WorkerConfig, *, repeats: int, width: int, spin_s: float = 0.002
) -> Dict[str, float]:
    """Frozen burst replays: the full pool vs. one in-process executor
    of a single worker's shape.

    The burst tasks *spin* (CPU-bound Python): the GIL serializes them
    inside one process no matter how many executor threads it has, but
    worker processes run them truly in parallel — the core claim of
    the gateway.  The ratio only means something on a multi-core host,
    so the envelope carries the CPU count.

    Replays go out in waves sized to the pool's admission capacity
    (round-robin routing lands exactly ``max_topologies`` per worker
    per wave), so the measurement never trips the reject policy; the
    single-process side runs the same wave shape for a fair baseline.
    """
    from repro.core.executor import Executor

    wave = max(1, gw.num_workers * (config.max_topologies or 4))
    fh = await gw.freeze(BurstSpec(width=width, spin_s=spin_s))
    bad = 0
    t0 = time.monotonic()
    done = 0
    while done < repeats:
        n = min(wave, repeats - done)
        batch = [gw.submit(fh) for _ in range(n)]
        await asyncio.gather(*(s.future for s in batch))
        bad += sum(1 for s in batch if not s.future.result().ok)
        done += n
    gw_wall = time.monotonic() - t0

    hf, _gen = BurstSpec(width=width, spin_s=spin_s).build()
    frozen = hf.freeze()
    ex = Executor(num_workers=config.threads, num_gpus=config.gpus)
    try:

        def run_waves() -> float:
            start = time.monotonic()
            left = repeats
            while left:
                n = min(wave, left)
                futures = [ex.run(frozen) for _ in range(n)]
                for f in futures:
                    f.result(60.0)
                left -= n
            return time.monotonic() - start

        single_wall = await asyncio.to_thread(run_waves)
    finally:
        ex.shutdown(wait=False)

    return {
        "repeats": float(repeats),
        "burst_width": float(width),
        "spin_s": spin_s,
        "gateway_wall_s": gw_wall,
        "gateway_runs_per_s": repeats / gw_wall if gw_wall else 0.0,
        "single_wall_s": single_wall,
        "single_runs_per_s": repeats / single_wall if single_wall else 0.0,
        "speedup": (single_wall / gw_wall) if gw_wall else 0.0,
        "errors": float(bad),
    }


def scenarios(
    report: Report,
    n: int,
    *,
    workers: int,
    worker: dict,
    gateway: dict,
    families: Tuple[str, ...],
    frozen: Tuple[int, ...],
    mix: Tuple[float, float, float],
    hedge: Optional[Tuple[int, float]] = None,
    throughput_per_scenario: int = 0,
    budget_drill: bool = False,
) -> Iterator[Scenario]:
    """The sweep against one shared gateway shaped by the suite's row.

    ``gateway["retry_budget"]`` is ``(capacity, refill_per_success)``.
    With ``throughput_per_scenario`` the sweep ends with that many
    burst replays per scenario (at least ten scenarios' worth, so the
    ratio is not noise) through the pool and through one process; with
    ``budget_drill``, once the shared gateway is down, with the
    retry-budget exhaustion drill on a gateway of its own.
    """
    config = WorkerConfig(seed=report.seed, **worker)
    kwargs = dict(gateway)
    if "retry_budget" in kwargs:
        capacity, refill = kwargs["retry_budget"]
        kwargs["retry_budget"] = RetryBudget(capacity, refill_per_success=refill)
    gw = Gateway(workers, worker=config, seed=report.seed, name=report.suite, **kwargs)
    with event_loop() as loop:
        loop.run_until_complete(gw.start())
        try:
            # a small shared pool of frozen shapes, shipped once
            pool = [loop.run_until_complete(gw.freeze(BurstSpec(width=w))) for w in frozen]
            hedge_fh = None
            if hedge is not None:
                hedge_fh = loop.run_until_complete(
                    gw.freeze(BurstSpec(width=hedge[0], sleep_s=hedge[1]))
                )
            for i in range(n):
                yield loop.run_until_complete(_scenario(
                    gw, report.suite, i, report.seed,
                    cadence(i, n, families, "serve"), mix, pool, hedge_fh,
                ))
            if throughput_per_scenario:
                report.detail["throughput"] = loop.run_until_complete(_measure_throughput(
                    gw, config, repeats=throughput_per_scenario * max(n, 10), width=8
                ))
            report.counters.update(
                (k, v) for k, v in gw.snapshot().items() if not isinstance(v, dict)
            )
        finally:
            loop.run_until_complete(gw.shutdown())
        if budget_drill:
            t0 = time.monotonic()
            drill = loop.run_until_complete(_budget_drill(report.seed))
            report.detail["budget_drill"] = {**drill, "wall_s": round(time.monotonic() - t0, 4)}


# -- sweep-level checks (named in the suites' rows) -------------------------


def planned_chaos_fired(report: Report) -> List[str]:
    return unfired(report, _FIRED)


def throughput_ok(report: Report) -> List[str]:
    """Throughput replays must all succeed, and on a host with four or
    more cores the worker pool must beat one process by more than 1.5x."""
    t = report.detail.get("throughput", {})
    out = []
    if t.get("errors", 0) > 0:
        out.append(f"{t['errors']:.0f} throughput replay(s) did not complete")
    cores = os.cpu_count() or 1
    if cores >= 4 and t.get("speedup", 0.0) <= 1.5:
        out.append(f"gateway speedup {t.get('speedup', 0.0):.2f}x <= 1.5x on {cores} cores")
    return out


def hedges_balance(report: Report) -> List[str]:
    """Every launched hedge leg either won, lost (cancelled at settle),
    or was dropped with a dead worker."""
    c = report.counters
    launched = c.get("gateway.hedge.launched", 0)
    settled = sum(c.get(f"gateway.hedge.{k}", 0) for k in ("wins", "losses", "dropped"))
    if launched == settled:
        return []
    return [f"hedge accounting broke: {launched} launched vs {settled} wins+losses+dropped"]


async def _budget_drill(seed: int) -> Dict[str, float]:
    """A gateway whose retry bucket starts empty loses a worker with
    work in flight: every replay must be denied and settle at once as
    ``worker_lost`` with ``reason="retry_budget"``."""
    async with Gateway(
        2,
        worker=WorkerConfig(threads=2, gpus=1, seed=seed),
        heartbeat_interval=0.1,
        retry_budget=RetryBudget(1.0, initial=0.0, refill_per_success=0.0),
        seed=seed,
        name="budget-drill",
    ) as gw:
        fh = await gw.freeze(BurstSpec(width=4, sleep_s=0.6))
        batch = [gw.submit(fh) for _ in range(4)]  # round-robin: 2/worker
        await asyncio.sleep(0.15)  # let the Submits land
        os.kill(gw._workers[0].proc.pid, signal.SIGKILL)
        results = await asyncio.gather(*(s.future for s in batch))
        return {
            "submitted": float(len(batch)),
            "worker_lost_budget": float(sum(
                1 for r in results
                if r.outcome == "worker_lost" and r.reason == "retry_budget"
            )),
            "completed": float(sum(1 for r in results if r.outcome == "completed")),
            "denied": float(gw.snapshot().get("gateway.retry_budget.exhausted", 0)),
            "tokens_left": float(gw.retry_budget.tokens),
        }


def budget_drill_ok(report: Report) -> List[str]:
    """The retry-budget exhaustion drill denied every replay."""
    drill = report.detail.get("budget_drill")
    if drill is None:
        return ["budget drill did not run"]
    out = []
    if drill["worker_lost_budget"] < 1:
        out.append("budget drill: no worker_lost settlement carried reason='retry_budget'")
    if drill["denied"] < 1:
        out.append("budget drill: gateway.retry_budget.exhausted never moved")
    return out
