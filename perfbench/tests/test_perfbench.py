"""Self-tests of the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
from spans import Tracer  # noqa: E402


# -- percentiles ---------------------------------------------------------
def test_percentile_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert measure.percentile(values, 0) == 1.0
    assert measure.percentile(values, 20) == 1.0
    assert measure.percentile(values, 21) == 2.0
    assert measure.percentile(values, 50) == 3.0
    assert measure.percentile(values, 90) == 5.0
    assert measure.percentile(values, 100) == 5.0
    hundred = list(range(1, 101))
    assert measure.percentile(hundred, 90) == 90
    assert measure.percentile(hundred, 99) == 99


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


def test_median_even_and_odd():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5


def test_steal_share_reads_field_eight():
    before = [0] * 10
    after = [10, 0, 10, 60, 0, 0, 0, 20, 0, 0]
    assert measure.steal_share(before, after) == pytest.approx(0.2)


def test_pin_to_one_cpu_keeps_the_first_allowed_cpu():
    allowed = os.sched_getaffinity(0)
    try:
        assert measure.pin_to_one_cpu() == min(allowed)
        assert os.sched_getaffinity(0) == {min(allowed)}
    finally:
        os.sched_setaffinity(0, allowed)


def test_block_figures_are_scaled_by_the_machine_speed(monkeypatch):
    import child

    # the loop runs twice as fast as the reference: times double, rates halve
    monkeypatch.setattr(measure, "loop_speed", lambda: 2 * measure.REF_SPEED)

    async def step(n):
        return [0.001 + 0.0001 * i for i in range(n)], 0

    out = asyncio.run(child.measure_blocks(step, 4 * child.BLOCKS, [os.getpid()]))
    m, raw = out["metrics"], out["raw"]
    assert m["latency_p50_ms"] == pytest.approx(2 * raw["latency_p50_ms"])
    assert raw["latency_p50_ms"] == pytest.approx(1.1)  # 4 ops: nearest-rank p50 is the 2nd
    assert m["latency_p90_ms"] == pytest.approx(2 * raw["latency_p90_ms"])
    assert m["cpu_ms_per_op"] == pytest.approx(2 * raw["cpu_ms_per_op"])
    assert m["throughput_ops_s"] == pytest.approx(raw["throughput_ops_s"] / 2)
    assert out["blocks"]["speed_scale"] == [2.0] * child.BLOCKS


# -- spans ---------------------------------------------------------------
def test_self_time_subtracts_covered_child_time_once():
    tr = Tracer()
    root = tr.record("op", 0.0, 10.0, -1, 7)
    tr.record("a", 1.0, 4.0, root, 7)
    tr.record("b", 3.0, 5.0, root, 7)  # overlaps a: covered = [1, 5]
    tr.record("c", 8.0, 12.0, root, 7)  # clipped to the parent: [8, 10]
    selfs = tr.self_times()
    assert selfs[root] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0)


def test_nested_spans_share_the_op_id(tmp_path):
    tr = Tracer()
    with tr.span("op", op=3):
        with tr.span("child"):
            time.sleep(0.001)
    op, child = tr.spans
    assert (op.parent, child.parent) == (-1, 0)
    assert op.op == child.op == 3
    assert op.start <= child.start <= child.end <= op.end
    path = tmp_path / "trace.json"
    tr.write(str(path))
    data = json.loads(path.read_text())
    assert data["summary"]["child"]["count"] == 1
    assert len(data["spans"]) == 2


# -- output checks -------------------------------------------------------
def test_corrupted_graph_output_counts_as_failure():
    from graphs import GraphWorkload

    w = GraphWorkload("graph_fresh", 5)
    w.setup()
    try:
        lat, failed = w.run(3)
        assert (len(lat), failed) == (3, 0)
        w.model.base[2, 7] += 1  # the fill now disagrees with the expectation
        _, failed = w.run(2)
        assert failed == 2
    finally:
        w.teardown()


def test_lost_or_repeated_task_counts_as_failure():
    from graphs import DAG_TASKS, GraphWorkload

    w = GraphWorkload("graph_frozen", 5)
    w.setup()
    try:
        assert w.run(3)[1] == 0
        w.model.hits.append(0)  # one id seen twice
        assert w.run(1)[1] == 1
        assert w.run(1)[1] == 0
        assert len(w.model.graph.nodes) == DAG_TASKS
    finally:
        w.teardown()


def test_plan_ops_is_seeded_and_keeps_the_dedupe_share():
    from serve import DEDUPE_SHARE, plan_ops

    a = plan_ops(3, 200, 50, "t")
    assert a == plan_ops(3, 200, 50, "t")
    assert a != plan_ops(4, 200, 50, "t")
    kinds = [kind for plan in a for kind, _ in plan]
    assert kinds.count("dedupe") == int(200 * DEDUPE_SHARE)
    for plan in a:  # a dedupe only names a key settled before it
        seen = set()
        for kind, key in plan:
            if kind == "fresh":
                seen.add(key)
            else:
                assert key.startswith("seed-") or key in seen


def test_raising_op_counts_as_failure():
    from serve import ServeKeyed

    class Refusing:
        def submit(self, *args, **kwargs):
            raise OSError("journal device gone")

    sk = ServeKeyed(seed=1, journal_dir="unused", preseed=10)
    sk.gw = Refusing()
    lat, failed = asyncio.run(sk.run(8, tag="t"))
    assert (len(lat), failed, sk.inflight) == (8, 8, 0)


def test_every_metric_must_be_a_finite_number():
    import run

    units = {"a": "ms", "gateway.round_trip_ms": "ms"}
    run.check_reported({"a": 1.0, "gateway.round_trip_ms": 0}, units)
    for bad in (None, float("nan"), float("inf"), True, "1.0"):
        with pytest.raises(run.RunError):
            run.check_reported({"a": 1.0, "gateway.round_trip_ms": bad}, units)
    per_layer = set(run.load_metrics(1, os.path.join(ROOT, "BENCHMARK.json")))
    for workload, names in run.PROBED.items():
        assert workload in run.WORKLOADS
        assert names <= per_layer


@pytest.mark.gateway
def test_wrong_dedupe_result_counts_as_failure(tmp_path):
    from serve import ServeKeyed, preseed_journal

    jdir = str(tmp_path / "journal")
    preseed_journal(jdir, seed=1, count=20)

    async def go():
        # the run expects the Results of seed 2; the journal holds seed 1's
        sk = ServeKeyed(seed=2, journal_dir=jdir, preseed=20)
        try:
            await sk.setup()
            return await sk.run(40, tag="t")
        finally:
            await sk.teardown()

    lat, failed = asyncio.run(go())
    assert len(lat) == 40
    assert failed > 0
    assert not os.path.exists(jdir)


# -- process hygiene -----------------------------------------------------
@pytest.mark.gateway
def test_forced_teardown_leaves_no_child_process(tmp_path, monkeypatch):
    import serve

    jdir = str(tmp_path / "journal")
    serve.preseed_journal(jdir, seed=1, count=5)
    monkeypatch.setattr(serve, "SHUTDOWN_TIMEOUT_S", 0.5)

    async def go():
        sk = serve.ServeKeyed(seed=1, journal_dir=jdir, preseed=5)
        await sk.setup()
        assert serve.sut_children(), "the gateway worker should be running"

        async def wedged(*args, **kwargs):
            await asyncio.sleep(3600)

        sk.gw.drain = wedged  # shutdown now hangs in drain until it times out
        # a process the gateway does not know about, left for teardown
        straggler = subprocess.Popen(["sleep", "60"])
        t0 = time.monotonic()
        await sk.teardown()
        straggler.wait(timeout=5)
        return sk, straggler.pid, time.monotonic() - t0

    sk, straggler, took = asyncio.run(go())
    assert took < serve.SHUTDOWN_TIMEOUT_S + 20
    assert straggler in sk.stragglers
    assert serve.sut_children() == []
    assert not os.path.exists(jdir)


def test_reap_session_kills_what_outlives_the_child():
    import run

    proc = subprocess.Popen(
        [sys.executable, "-c", "import subprocess; subprocess.Popen(['sleep', '60'])"],
        start_new_session=True,
    )
    proc.wait(timeout=30)
    assert measure.session_members(proc.pid), "the orphaned sleep should still run"
    killed = run.reap_session(proc.pid)
    assert len(killed) == 1
    assert measure.session_members(proc.pid) == []


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric_as_a_number(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph_frozen", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    import run

    units = run.load_metrics(trace, os.path.join(ROOT, "BENCHMARK.json"))
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert all(run.is_number(m["value"]) for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph_fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
