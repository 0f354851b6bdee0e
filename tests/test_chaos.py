"""Chaos suite: seeded fault-scenario sweeps (docs/resilience.md)."""

import json

from repro.cli import main
from repro.harness import SCHEMA
from repro.resilience.chaos import KINDS, run_scenario


class TestScenarios:
    def test_kinds_cycle_over_index(self):
        for i in (0, 3, 7):
            out = run_scenario(i, seed=0)
            assert out.kind == KINDS[i % len(KINDS)]
            assert out.ok, out.violations

    def test_deterministic_parameters(self):
        a = run_scenario(2, seed=0)
        b = run_scenario(2, seed=0)
        assert (a.seed, a.kind, a.detail["workers"], a.detail["gpus"]) == (
            b.seed,
            b.kind,
            b.detail["workers"],
            b.detail["gpus"],
        )
        assert a.counts["records"] == b.counts["records"]
        c = run_scenario(2, seed=1)
        assert (a.seed, a.detail["workers"]) != (c.seed, c.detail["workers"]) or (
            a.detail["gpus"] != c.detail["gpus"]
        )

    def test_expected_failure_scenario(self):
        # degrade scenarios alternate fallbacks; index 9 (second degrade)
        # drops them and must fail with a structured error
        out = run_scenario(9, seed=0)
        assert out.kind == "degrade"
        assert out.detail["expect_failure"]
        assert not out.counts["completed"]
        assert out.counts["failed_as_expected"] == 1
        assert out.ok, out.violations
        assert "TaskFailedError" in out.detail["error"]


class TestSweep:
    def test_smoke_sweep(self, verify_run):
        code, doc = verify_run("chaos")
        assert code == 0, doc["violations"]
        t = doc["totals"]
        assert t["completed"] + t["failed_as_expected"] == doc["num_scenarios"]
        # every fault class ran once
        assert [s["kind"] for s in doc["scenarios"]] == list(KINDS)
        # the sweep exercised the resilience machinery, not just clean runs
        assert sum(doc["counters"].values()) > 0

    def test_report_serialization(self, verify_run):
        _code, doc = verify_run("chaos")
        for s in doc["scenarios"]:
            assert set(s["detail"]) >= {"workers", "gpus", "expect_failure", "error"}
            assert set(s["counts"]) >= {"completed", "records", "events"}
        # each scenario's resilience.* counters sum into the sweep's
        assert "resilience.retries" in doc["counters"]
        assert doc["counters"]["resilience.retries"] == sum(
            s["counts"].get("resilience.retries", 0) for s in doc["scenarios"]
        )


class TestCli:
    def test_chaos_smoke_exit_code(self, capsys):
        assert main(["verify", "chaos", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "verify chaos: OK" in out

    def test_chaos_json_artifact(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        assert main(["verify", "chaos", "--smoke", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["schema"] == SCHEMA
        assert data["suite"] == "chaos"
        assert data["ok"] is True
        assert data["num_scenarios"] == 10
        assert data["violations"] == []
