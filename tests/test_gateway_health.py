"""Gray-failure machinery tests: breaker/budget/health state machines
(fake clock, no processes) plus process-level gateway behavior — stall
detection and breaker re-admission, hedged submissions, retry-budget
exhaustion, and the drain-deadline regression suite.

The state-machine classes use injected clocks so every transition is
deterministic; the process classes spawn real 2-worker pools (same
budget discipline as tests/test_gateway.py: few pools, many assertions
per pool).
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import pytest

from repro.errors import ExecutorError, GatewayError
from repro.gateway import (
    BurstSpec,
    Gateway,
    GeneratedSpec,
    HealthConfig,
    WorkerConfig,
    WorkerHealth,
)
from repro.resilience import CircuitBreaker, RetryBudget

_CONFIG = WorkerConfig(threads=2, gpus=1)
_T = 60.0


def _run(coro):
    return asyncio.run(coro)


class _FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------
# circuit breaker state machine (fake clock — fully deterministic)
# ---------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown", 1.0)
        kw.setdefault("jitter", 0.0)
        kw.setdefault("probe_successes", 2)
        return CircuitBreaker(clock=clock, **kw)

    def test_validation(self):
        for kw in (
            {"failure_threshold": 0},
            {"cooldown": -1.0},
            {"backoff": 0.5},
            {"probe_successes": 0},
            {"jitter": 1.0},
        ):
            with pytest.raises(ExecutorError):
                CircuitBreaker(**kw)

    def test_closed_to_open_on_threshold(self):
        clk = _FakeClock()
        b = self._breaker(clk)
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.routable
        b.record_failure()
        assert b.state == "open" and not b.routable
        assert not b.allow()
        assert b.opened_total == 1
        assert b.remaining_cooldown() == pytest.approx(1.0)

    def test_success_resets_failure_streak(self):
        clk = _FakeClock()
        b = self._breaker(clk)
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"  # streak restarted after the success

    def test_half_open_probe_success_closes(self):
        clk = _FakeClock()
        b = self._breaker(clk)
        for _ in range(3):
            b.record_failure()
        clk.advance(0.99)
        assert not b.allow()  # still cooling down
        clk.advance(0.02)
        assert b.allow()  # cooldown elapsed -> half-open probes pass
        assert b.state == "half_open"
        assert not b.routable  # ordinary work still kept away
        b.record_success()
        assert b.state == "half_open"  # needs probe_successes=2
        b.record_success()
        assert b.state == "closed" and b.routable
        assert b.closed_total == 1

    def test_half_open_failure_reopens_with_escalated_cooldown(self):
        clk = _FakeClock()
        b = self._breaker(clk, backoff=2.0, max_cooldown=3.0)
        for _ in range(3):
            b.record_failure()
        assert b.last_cooldown == pytest.approx(1.0)
        clk.advance(1.0)
        assert b.state == "half_open"
        b.record_failure()  # failed probe: re-trip, escalated
        assert b.state == "open"
        assert b.opened_total == 2
        assert b.last_cooldown == pytest.approx(2.0)
        clk.advance(2.0)
        b.record_failure()  # third trip would be 4.0 -> capped at 3.0
        assert b.last_cooldown == pytest.approx(3.0)

    def test_seeded_jitter_is_deterministic(self):
        def trip(seed):
            clk = _FakeClock()
            b = self._breaker(clk, jitter=0.2, seed=seed, name="w0")
            for _ in range(3):
                b.record_failure()
            return b.last_cooldown

        a, b_, c = trip(7), trip(7), trip(8)
        assert a == b_  # same seed, same probe timing
        assert a != c  # different seed spreads differently
        assert 0.8 <= a <= 1.2  # within the +/-20% band

    def test_reset_force_closes_and_clears_escalation(self):
        clk = _FakeClock()
        b = self._breaker(clk)
        for _ in range(3):
            b.record_failure()
        b.reset()
        assert b.state == "closed" and b.routable
        for _ in range(3):
            b.record_failure()
        # escalation restarted: first-trip cooldown again, not backoff^n
        assert b.last_cooldown == pytest.approx(1.0)


# ---------------------------------------------------------------------
# retry budget token bucket
# ---------------------------------------------------------------------
class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ExecutorError):
            RetryBudget(0)
        with pytest.raises(ExecutorError):
            RetryBudget(1.0, refill_per_success=-0.1)

    def test_spend_until_denied(self):
        rb = RetryBudget(2.0, refill_per_success=0.0)
        assert rb.try_spend() and rb.try_spend()
        assert not rb.try_spend()
        assert rb.tokens == pytest.approx(0.0)
        assert rb.spent_total == pytest.approx(2.0)
        assert rb.denied_total == 1

    def test_refill_caps_at_capacity(self):
        rb = RetryBudget(2.0, initial=0.0, refill_per_success=1.5)
        assert not rb.try_spend()
        rb.record_success()
        assert rb.try_spend()
        for _ in range(10):
            rb.record_success()
        assert rb.tokens == pytest.approx(2.0)


# ---------------------------------------------------------------------
# per-worker health estimator
# ---------------------------------------------------------------------
class TestWorkerHealth:
    def _health(self, clk, **kw):
        kw.setdefault("stall_after_s", 1.0)
        return WorkerHealth(0, clock=clk, **kw)

    def test_state_axis_and_score_decay(self):
        clk = _FakeClock(100.0)
        h = self._health(clk)
        assert h.state == "healthy"
        assert h.score() == pytest.approx(1.0)
        clk.advance(0.5)  # silence halfway through the stall window
        assert h.score() == pytest.approx(0.5)
        clk.advance(1.0)
        assert h.score() == 0.0  # silent past the window
        assert h.mark_stalled(True)  # flag change reported
        assert h.state == "stalled"
        assert not h.mark_stalled(True)  # idempotent set: no change
        h.on_pong(0.01)  # recovery: pong resets silence
        h.mark_stalled(False)
        assert h.state == "healthy" and h.score() == pytest.approx(1.0)
        h.mark_dead()
        assert h.state == "dead" and h.score() == 0.0

    def test_slow_rtt_degrades_score(self):
        clk = _FakeClock()
        h = self._health(clk, config=HealthConfig(baseline_rtt_s=0.05))
        h.on_pong(0.2)  # 4x baseline
        assert h.ewma_rtt == pytest.approx(0.2)  # first sample seeds the EWMA
        assert h.score() == pytest.approx(0.25)
        h.on_pong(0.2)
        assert h.ewma_rtt == pytest.approx(0.2)

    def test_settle_quantile_and_hedge_default(self):
        clk = _FakeClock()
        h = self._health(clk, config=HealthConfig(default_hedge_s=0.25))
        assert h.settle_quantile(0.95) == pytest.approx(0.25)  # no samples yet
        for w in (0.1, 0.2, 0.3, 0.4):
            h.on_settle(w)
        assert h.settle_quantile(0.5) == pytest.approx(0.3)
        assert h.settle_quantile(0.95) == pytest.approx(0.4)
        h.on_settle(0.0)  # non-positive walls are dropped
        assert h.settles == 4

    def test_snapshot_is_json_ready(self):
        clk = _FakeClock()
        h = self._health(clk)
        h.on_pong(0.01)
        snap = h.snapshot()
        for key in ("wid", "state", "score", "ewma_rtt_s", "silence_s",
                    "settle_p95_s", "pongs", "settles"):
            assert key in snap


# ---------------------------------------------------------------------
# process-level: stall detection, breaker ejection, re-admission
# ---------------------------------------------------------------------
@pytest.mark.gateway
class TestGrayFailures:
    def test_stall_opens_breaker_then_readmits(self):
        """Wedge one worker's recv loop: the monitor must flag it
        *stalled* (not dead — no respawn), the breaker must eject it
        from routing, and once the stall clears probes must close the
        breaker again."""

        async def main():
            async with Gateway(
                2,
                worker=_CONFIG,
                heartbeat_interval=0.05,
                stall_misses=3,
                heartbeat_misses=80,  # death budget 4s >> stall 0.8s
                breaker_threshold=2,
                breaker_cooldown=0.3,
                breaker_probe_successes=1,
                name="gray-test",
            ) as gw:
                pid0 = gw._workers[0].proc.pid
                breaker = gw._breakers[0]
                gw.inject_chaos(0, stall_s=0.8)
                deadline = time.monotonic() + 10.0
                saw_stalled = False
                while time.monotonic() < deadline:
                    snap = gw.health_snapshot()[0]
                    saw_stalled = saw_stalled or snap["state"] == "stalled"
                    if breaker.opened_total >= 1 and saw_stalled:
                        break
                    await asyncio.sleep(0.02)
                assert saw_stalled, "stall never detected"
                assert breaker.opened_total >= 1, "breaker never opened"
                # stalled-not-dead: routing skips it while the breaker
                # is open, but submissions still flow via worker 1
                if not breaker.routable:
                    sub = gw.submit(BurstSpec(width=2), tenant="t")
                    assert sub.wid == 1
                    assert (await sub).ok
                # recovery: pongs resume, probes re-admit the slot
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and not breaker.routable:
                    await asyncio.sleep(0.02)
                assert breaker.routable, "breaker never re-admitted worker"
                assert gw._workers[0].proc.pid == pid0, (
                    "gray stall escalated to a respawn"
                )
                snap = gw.snapshot()
                assert snap["gateway.health.stalls"] >= 1
                assert snap["gateway.breaker.opened"] >= 1
                assert snap["gateway.breaker.closed"] >= 1
                assert snap["gateway.respawns"] == 0

        _run(main())

    def test_hedged_submission_settles_exactly_once(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                # slow enough that the primary cannot settle before
                # the hedge timer fires on the next loop iteration
                fh = await gw.freeze(BurstSpec(width=4, sleep_s=0.2))
                # hedge_after=0 arms the duplicate leg immediately
                sub = gw.submit(fh, tenant="h", hedge_after=0.0)
                res = await sub
                assert res.ok
                # awaiting again returns the same settled result
                assert (await sub) is res
                kinds = [ev["kind"] async for ev in sub.events()]
                assert kinds.count("settled") == 1
                snap = gw.snapshot()
                launched = snap["gateway.hedge.launched"]
                accounted = (
                    snap["gateway.hedge.wins"]
                    + snap["gateway.hedge.losses"]
                    + snap["gateway.hedge.dropped"]
                )
                assert launched >= 1 and launched == accounted
                # one submission, one settle — legs never double-count
                assert snap["gateway.submits"] == 1
                assert snap["gateway.settled"] == 1

                # validation: hedging is frozen-only, and string delays
                # are restricted to the quantile vocabulary; a refused
                # call is refused before anything is sent
                with pytest.raises(GatewayError, match="FrozenHandle"):
                    gw.submit(BurstSpec(width=2), hedge_after=0.1)
                assert gw.snapshot()["gateway.submits"] == 1
                for bad in ("p42", "auto"):
                    with pytest.raises(GatewayError, match="p95"):
                        gw.submit(fh, hedge_after=bad)
                    assert gw.snapshot()["gateway.submits"] == 1
                # "p95" itself resolves via the primary's quantile
                assert (await gw.submit(fh, hedge_after="p95")).ok

        _run(main())

    def test_retry_budget_exhaustion_settles_worker_lost(self):
        """With an empty, non-refilling budget, a worker death cannot
        replay its inflight — it must settle fast as worker_lost with
        reason retry_budget, and the denial must be countable."""

        async def main():
            budget = RetryBudget(1.0, initial=0.0, refill_per_success=0.0)
            async with Gateway(
                2,
                worker=_CONFIG,
                heartbeat_interval=0.1,
                retry_budget=budget,
                name="budget-test",
            ) as gw:
                fh = await gw.freeze(BurstSpec(width=4, sleep_s=0.5))
                sub = gw.submit(fh, tenant="pin")
                await asyncio.sleep(0.15)  # let the Submit land
                os.kill(gw._workers[sub.wid].proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(sub.future, _T)
                assert res.outcome == "worker_lost"
                assert res.reason == "retry_budget"
                assert budget.denied_total >= 1
                assert gw.snapshot()["gateway.retry_budget.exhausted"] >= 1
                assert gw.retry_budget is budget

        _run(main())


# ---------------------------------------------------------------------
# drain deadline semantics (the PR 9 satellite fixes)
# ---------------------------------------------------------------------
@pytest.mark.gateway
class TestDrainDeadlines:
    def test_drain_shares_one_deadline_across_both_waits(self):
        """Regression: drain(timeout=T) used to wait T+grace for worker
        acks and then *another* T+grace for straggler settles.  With
        work slower than the deadline, the whole call must finish in
        about one T+grace, force-settling the stragglers."""

        async def main():
            async with Gateway(
                2,
                worker=_CONFIG,
                drain_grace=0.5,
                name="drain-test",
            ) as gw:
                subs = [
                    gw.submit(BurstSpec(width=2, sleep_s=2.5))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.2)
                t0 = time.monotonic()
                ok = await gw.drain(timeout=0.5)
                elapsed = time.monotonic() - t0
                assert not ok  # the sleepy bursts cannot finish in time
                # single shared deadline: ~1.0s budget; the old
                # double-grace bug took ~2x that
                assert elapsed < 1.8, f"drain took {elapsed:.2f}s"
                for sub in subs:
                    res = await asyncio.wait_for(sub.future, 1.0)
                    assert res.outcome == "failed"
                    assert res.reason == "drain_timeout"

        _run(main())

    def test_breaker_open_during_drain_settles_every_future(self):
        """Regression: a breaker open (worker stalled, legs possibly
        rerouted) while drain() runs must not strand or double-settle
        anything — every future resolves exactly once."""

        async def main():
            async with Gateway(
                2,
                worker=_CONFIG,
                heartbeat_interval=0.05,
                stall_misses=3,
                heartbeat_misses=80,
                breaker_threshold=1,  # a single stalled tick trips it
                breaker_cooldown=0.2,
                name="drain-stall",
            ) as gw:
                fh = await gw.freeze(BurstSpec(width=2, sleep_s=0.3))
                subs = [gw.submit(fh, tenant=f"t{i}") for i in range(6)]
                await asyncio.sleep(0.05)
                # wedge worker 0 and wait for the breaker to trip so
                # the drain starts with the breaker open and reroute /
                # suppression machinery armed
                gw.inject_chaos(0, stall_s=1.0)
                deadline = time.monotonic() + 5.0
                while (
                    time.monotonic() < deadline
                    and gw._breakers[0].opened_total == 0
                ):
                    await asyncio.sleep(0.02)
                assert gw._breakers[0].opened_total >= 1
                await gw.drain(timeout=20.0)
                results = []
                for sub in subs:
                    assert sub.future.done(), "drain stranded a future"
                    results.append(sub.future.result())
                # exactly-once settle, no duplicate legs leaked
                assert len(results) == len(subs)
                completed = sum(1 for r in results if r.ok)
                assert completed == len(subs), [r.outcome for r in results]
                snap = gw.snapshot()
                assert snap["gateway.settled"] == snap["gateway.submits"]

        _run(main())
