"""The scenario engine: every suite through ``python -m repro verify``,
the one report envelope, the chaos cadence and the sweep-level checks
(docs/testing.md)."""

from __future__ import annotations

import os
import platform

import pytest

from repro.harness import SCHEMA, SUITES, Report, Scenario, cadence, sweep
from tests.conftest import SMALLEST

SCENARIO_FIELDS = {
    "index", "kind", "seed", "ok", "wall_s", "counts", "detail", "latency_s", "violations",
}


def test_every_suite_has_a_smallest_size():
    assert set(SMALLEST) == set(SUITES)


@pytest.mark.parametrize("suite", list(SUITES))
def test_verify_suite(verify_run, suite):
    code, doc = verify_run(suite)
    n = SMALLEST[suite]
    assert code == 0, doc["violations"]
    assert doc["schema"] == SCHEMA == "repro.verify-report/1"
    assert doc["suite"] == suite
    assert doc["seed"] == 0
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert doc["cpu_count"] == (os.cpu_count() or 1)
    assert doc["python"] == platform.python_version()
    assert doc["regenerate"].startswith(
        f"python -m repro verify {suite} --scenarios {n} --seed 0 --json "
    )
    assert doc["num_scenarios"] == n == len(doc["scenarios"])
    assert doc["totals"] and all(v >= 0 for v in doc["totals"].values())
    assert set(doc["latency_s"]) == {"p50", "p95", "p99"}
    for i, sc in enumerate(doc["scenarios"]):
        assert set(sc) == SCENARIO_FIELDS
        assert sc["index"] == i
        assert sc["ok"] is True and sc["violations"] == []
        assert sc["wall_s"] >= 0


def test_gray_suite_stalls_hedges_and_drills(verify_run):
    """A stall is breaker-ejected and re-admitted (never respawned), the
    hedge legs account exactly, and the retry-budget drill denies every
    over-budget replay."""
    code, doc = verify_run("gateway-gray")
    assert code == 0, doc["violations"]
    assert [s["kind"] for s in doc["scenarios"]] == ["stall", "kill"]
    t = doc["totals"]
    assert t["stalls"] == 1 and t["kills"] == 1
    assert t["failed"] == 0
    stall = doc["scenarios"][0]["detail"]
    assert stall["stall_detect_s"] > 0 and stall["readmit_s"] >= stall["stall_detect_s"]
    c = doc["counters"]
    assert c["gateway.breaker.opened"] >= 1
    assert c["gateway.hedge.launched"] == (
        c["gateway.hedge.wins"] + c["gateway.hedge.losses"] + c["gateway.hedge.dropped"]
    )
    drill = doc["detail"]["budget_drill"]
    assert drill["worker_lost_budget"] >= 1
    assert drill["denied"] >= 1


def test_sweep_logs_one_line_per_scenario():
    lines = []
    report = Report("stress", 0, "")
    scenarios = [Scenario(i, "kill", i, counts={"kills": 1, "gateway.x": 2}) for i in range(3)]
    sweep(iter(scenarios), report, log=lines.append)
    assert len(lines) == 3
    assert all("kills=1" in line and line.endswith("ok") for line in lines)
    # dotted (metric) counts sum into counters, the rest into totals
    assert report.totals == {"kills": 3}
    assert report.to_dict()["counters"] == {"gateway.x": 6}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 50])
def test_cadence_plans_every_family(n):
    for families in (("kill",), ("stall", "kill"), ("fault", "crash")):
        plan = [cadence(i, n, families, "plain") for i in range(n)]
        planned = {f for f in plan if f != "plain"}
        if n >= len(families):
            assert planned == set(families), plan
        if n == 50:
            # one family per five scenarios at full size
            assert all(plan.count(f) == 10 for f in families)


# -- sweep-level checks: gates the verify exit code is the whole of ----------


def _report(suite, scenarios=(), **detail):
    report = Report(suite, 0, "")
    report.scenarios.extend(scenarios)
    report.detail.update(detail)
    return report


def test_throughput_errors_are_a_sweep_violation():
    from repro.gateway.soak import throughput_ok

    assert throughput_ok(_report("gateway", throughput={"errors": 0.0, "speedup": 9.0})) == []
    bad = throughput_ok(_report("gateway", throughput={"errors": 1.0, "speedup": 9.0}))
    assert len(bad) == 1 and "throughput" in bad[0]


def test_low_speedup_is_a_violation_only_on_four_cores(monkeypatch):
    from repro.gateway import soak

    report = _report("gateway", throughput={"errors": 0.0, "speedup": 1.4})
    monkeypatch.setattr(soak.os, "cpu_count", lambda: 2)
    assert soak.throughput_ok(report) == []
    monkeypatch.setattr(soak.os, "cpu_count", lambda: 4)
    assert len(soak.throughput_ok(report)) == 1


def test_a_planned_chaos_family_that_never_fired_is_a_violation():
    from repro.durability import soak as crash
    from repro.gateway import soak as gateway

    fired = Scenario(0, "kill", 0, counts={"kills": 1})
    missed = Scenario(1, "stall", 0, counts={"stalls": 0})
    assert gateway.planned_chaos_fired(_report("gateway-gray", [fired, missed])) == [
        "planned stall in scenario #1 never fired"
    ]
    no_fault = Scenario(2, "fault", 0, counts={"fault_injections": 0})
    assert len(crash.planned_chaos_fired(_report("gateway-crash", [no_fault]))) == 1


def test_unclean_final_journal_is_a_violation():
    from repro.durability.soak import journal_clean

    fsck = {"clean": True, "corruptions": [], "unsettled": [], "accepted": 3}
    counts = {"entries": 3, "unsettled": 0}
    assert journal_clean(_report("gateway-crash", final_fsck=fsck, reopen_counts=counts)) == []
    dirty = dict(fsck, clean=False, corruptions=[{"kind": "checksum"}], unsettled=[[1, "k"]])
    assert len(journal_clean(_report("gateway-crash", final_fsck=dirty, reopen_counts=counts))) == 2


def test_a_leg_left_after_every_settle_is_a_violation():
    """Once every harness submission has settled, a non-zero
    ``gateway.inflight`` means a leg outlived its submission."""
    import asyncio
    from types import SimpleNamespace

    from repro.gateway.gateway import Result
    from repro.gateway.messages import OUTCOMES
    from repro.gateway.soak import _reconcile

    before = {"gateway.submits": 0, "gateway.settled": 0, "gateway.inflight": 0}

    async def violations(inflight):
        fut = asyncio.get_running_loop().create_future()
        fut.set_result(Result("completed", passes=1, wall_s=0.01))
        sub = SimpleNamespace(future=fut, done=fut.done)
        after = {"gateway.submits": 1, "gateway.settled": 1, "gateway.inflight": inflight}
        gw = SimpleNamespace(snapshot=lambda: after)
        sc = Scenario(0, "serve", 0, counts=dict.fromkeys((*OUTCOMES, "submitted"), 0))
        await _reconcile(gw, sc, [sub], [], before)
        return sc.violations

    assert asyncio.run(violations(0)) == []
    leaked = asyncio.run(violations(1))
    assert len(leaked) == 1 and "leaked" in leaked[0]
