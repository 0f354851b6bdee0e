"""The committed benchmark records stay valid, clean and regenerable.

Every ``repro.verify-report/1`` record under ``benchmarks/results/`` is
a full-size suite run at seed 0 (docs/testing.md, "Verification
suites"); it must carry its own exact ``regenerate`` command and the
machine it ran on, show zero violations, and keep the coverage
minimums the suites are sized for.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import SCHEMA, SUITES

RESULTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "results")

#: record file -> (suite, {total: minimum})
RECORDS = {
    "BENCH_service_soak.json": ("soak", {"submitted": 1}),
    "BENCH_sanitize_sweep.json": ("sanitize", {"checked_tasks": 1}),
    "BENCH_gateway_soak.json": ("gateway", {"kills": 10}),
    "BENCH_gateway_gray_soak.json": ("gateway-gray", {"kills": 10, "stalls": 10, "hedged": 1}),
    "BENCH_gateway_crash_soak.json": (
        "gateway-crash", {"kills": 10, "crash_cycles": 10, "fault_injections": 10},
    ),
}


def _load(name):
    with open(os.path.join(RESULTS, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_verify_record(name):
    suite, minimums = RECORDS[name]
    doc = _load(name)
    full = SUITES[suite].full
    assert doc["schema"] == SCHEMA
    assert doc["suite"] == suite
    assert doc["seed"] == 0
    assert doc["ok"] is True
    assert doc["violations"] == []
    assert all(sc["violations"] == [] for sc in doc["scenarios"])
    assert isinstance(doc["cpu_count"], int) and doc["cpu_count"] >= 1
    assert doc["python"].count(".") == 2
    assert doc["regenerate"] == (
        f"python -m repro verify {suite} --scenarios {full} --seed 0 "
        f"--json benchmarks/results/{name}"
    )
    assert doc["num_scenarios"] == full == len(doc["scenarios"])
    for total, minimum in minimums.items():
        assert doc["totals"][total] >= minimum, (total, doc["totals"])


def test_crash_record_minimums():
    doc = _load("BENCH_gateway_crash_soak.json")
    assert doc["num_scenarios"] >= 50
    assert doc["totals"]["kills"] >= 10
    assert doc["detail"]["final_fsck"]["clean"] is True
    assert doc["detail"]["final_fsck"]["unsettled"] == []


def test_gray_record_budget_drill():
    drill = _load("BENCH_gateway_gray_soak.json")["detail"]["budget_drill"]
    assert drill["worker_lost_budget"] >= 1
    assert drill["denied"] >= 1


def test_sanitize_record_minimums():
    doc = _load("BENCH_sanitize_sweep.json")
    assert doc["num_scenarios"] >= 25
    assert doc["totals"]["divergences"] == 0


def test_replay_bench_record():
    """Frozen replay beats a fresh submission on every shape now that
    both share one execution core (the bench's own guard)."""
    doc = _load("BENCH_tab-replay.json")
    assert doc["schema"] == "repro.bench/1"
    assert doc["headers"][-1] == "speedup"
    assert doc["rows"], "empty benchmark table"
    for row in doc["rows"]:
        assert float(row[-1]) > 1.0, row


def test_journal_open_record():
    """The reopen-vs-log-size curve: format-2 frames are smaller at
    every size and reopen within the CI gate's ratio at 10k entries."""
    doc = _load("BENCH_journal_open.json")
    assert doc["schema"] == "repro.bench/1"
    assert isinstance(doc["cpu_count"], int) and doc["cpu_count"] >= 1
    assert doc["python"].count(".") == 2
    assert doc["regenerate"] == (
        "PYTHONPATH=src python benchmarks/bench_journal_open.py "
        "--json benchmarks/results/BENCH_journal_open.json"
    )
    rows = [dict(zip(doc["headers"], row)) for row in doc["rows"]]
    assert [r["entries"] for r in rows] == [1_000, 10_000, 50_000]
    for r in rows:
        assert r["records"] == 2 * r["entries"] + 1
        assert r["v2_bytes"] < r["v1_bytes"] / 2
        assert r["ratio"] < 1.0
    assert rows[1]["ratio"] <= 0.8
