"""Metrics registry, executor counters, RunReport, and the profile CLI.

Covers the observability surface of docs/observability.md: the
lock-cheap instrument primitives, exact counter values on a
deterministic single-worker schedule, RunReport invariants (measured
critical path bounded by wall time), the schema-v1 golden, chrome-trace
edge cases, and ``python -m repro profile``.
"""

import json
import sys
import threading

import pytest

from repro.cli import main
from repro.check.validate import validate_schedule
from repro.core import Executor, Heteroflow, TraceObserver
from repro.core.tracing import chrome_trace_events
from repro.gpu.buddy import BuddyAllocator
from repro.resilience import RetryPolicy
from repro.metrics import (
    RUN_REPORT_SCHEMA,
    CriticalPathEntry,
    LaneUtilization,
    RunReport,
    build_run_report,
    render_report_text,
)
from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    LaneCounter,
    MaxGauge,
    MetricsRegistry,
)


# ---------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------
class TestRegistryPrimitives:
    def test_counter_concurrent_increments(self):
        c = Counter("t")
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8 * 5000

    def test_counter_weighted(self):
        c = Counter()
        c.inc(10)
        c.inc(2.5)
        assert c.value == 12.5

    def test_lane_counter(self):
        lc = LaneCounter(3, "lanes")
        lc.inc(0)
        lc.inc(2, 5)
        assert lc.per_lane() == [1, 0, 5]
        assert lc.value == 6

    def test_lane_counter_sharded_increments_are_exact(self):
        """The lane owner's plain stores and other threads' sharded
        increments to the same lane never lose a count."""
        lc = LaneCounter(2, "lanes")
        barrier = threading.Barrier(4)

        def owner():
            barrier.wait()
            for _ in range(5000):
                lc.inc(0)

        def helper():
            barrier.wait()
            for _ in range(5000):
                lc.inc_sharded(0)
                lc.inc_sharded(1, 2)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=owner)] + [
                threading.Thread(target=helper) for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert lc.per_lane() == [4 * 5000, 3 * 2 * 5000]
        assert lc.value == 10 * 5000

    def test_gauge_and_max_gauge(self):
        g = Gauge("g")
        g.set(3)
        g.set(1)
        assert g.value == 1
        mg = MaxGauge("m")
        assert mg.value == 0  # empty
        mg.observe(4)
        mg.observe(2)
        assert mg.value == 4

    def test_histogram_buckets_upper_inclusive(self):
        h = Histogram("h", bounds=[1.0, 10.0])
        for v in (0.5, 1.0, 5.0, 10.0, 99.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(115.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 99.0
        # bounds are upper-inclusive: 1.0 -> first bucket, 10.0 -> second
        assert snap["buckets"] == [2, 2, 1]

    def test_histogram_empty(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_registry_idempotent_and_typed(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x")
        assert reg.counter("x") is c1
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_shapes_and_callbacks(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.lane_counter("l", 2).inc(1)
        reg.histogram("h").observe(0.5)
        reg.register_callback("cb", lambda: {"nested": 7})
        snap = reg.snapshot()
        assert snap["c"] == 2
        assert snap["l"] == [0, 1]
        assert snap["h"]["count"] == 1
        assert snap["cb"] == {"nested": 7}


# ---------------------------------------------------------------------
# executor counters
# ---------------------------------------------------------------------
def _add_one(v):
    v += 1.0


def _diamond():
    hf = Heteroflow("diamond")
    a = hf.host(lambda: None, name="a")
    b = hf.host(lambda: None, name="b")
    c = hf.host(lambda: None, name="c")
    d = hf.host(lambda: None, name="d")
    a.precede(b, c)
    d.succeed(b, c)
    return hf


class TestExecutorCounters:
    def test_single_worker_exact_counts(self):
        """One worker makes the pop accounting fully deterministic:
        the submitter pushes the single source to the shared queue.
        On the _Attempt route (here forced by a retry policy) every
        released successor lands on the worker's local queue; on the
        inline route they continue inline, with no further pops."""
        with Executor(num_workers=1, num_gpus=0) as ex:
            ex.run(_diamond(), policy=RetryPolicy(max_attempts=2)).result()
            snap = ex.metrics.snapshot()
        assert snap["executor.tasks_executed"] == [4]
        assert snap["executor.tasks_flushed"] == [0]
        assert snap["executor.shared_pops"] == [1]  # the source
        assert snap["executor.local_pops"] == [3]  # b, c, d
        # the victim-steal loop never runs with one worker
        assert snap["executor.steals_attempted"] == [0]
        assert snap["executor.steals_succeeded"] == [0]
        # a's completion releases b and c back-to-back: depth 2
        assert snap["executor.queue_high_water"] == [2]
        assert snap["executor.shared_queue_high_water"] == 1
        assert snap["executor.notify_count"] >= 1

        with Executor(num_workers=1, num_gpus=0) as ex:
            ex.run(_diamond()).result()
            snap = ex.metrics.snapshot()
        assert snap["executor.tasks_executed"] == [4]
        assert snap["executor.tasks_flushed"] == [0]
        assert snap["executor.shared_pops"] == [1]  # the source chunk
        assert snap["executor.local_pops"] == [0]  # b, c, d ran inline
        assert snap["executor.steals_attempted"] == [0]
        assert snap["executor.steals_succeeded"] == [0]
        assert snap["executor.queue_high_water"] == [0]
        assert snap["executor.shared_queue_high_water"] == 1
        assert snap["executor.notify_count"] >= 1

    def test_pop_conservation_multi_worker(self):
        """Every work item was obtained by exactly one pop path: one
        task per item on the _Attempt route (forced by a retry
        policy), one chunk of up to 32 sources per item inline."""
        hf = Heteroflow("wide")
        for _ in range(50):
            hf.host(lambda: None)
        with Executor(num_workers=3, num_gpus=0) as ex:
            ex.run(hf, policy=RetryPolicy(max_attempts=2)).result()
            ex.wait_for_all()
            snap = ex.metrics.snapshot()
        assert sum(snap["executor.tasks_executed"]) == 50
        for wid in range(3):
            assert (
                snap["executor.tasks_executed"][wid]
                + snap["executor.tasks_flushed"][wid]
                == snap["executor.local_pops"][wid]
                + snap["executor.shared_pops"][wid]
                + snap["executor.steals_succeeded"][wid]
            )

        with Executor(num_workers=3, num_gpus=0) as ex:
            ex.run(hf).result()
            ex.wait_for_all()
            snap = ex.metrics.snapshot()
        assert sum(snap["executor.tasks_executed"]) == 50
        pops = [
            snap["executor.local_pops"][wid]
            + snap["executor.shared_pops"][wid]
            + snap["executor.steals_succeeded"][wid]
            for wid in range(3)
        ]
        assert sum(pops) == 2  # sources 0-31 and 32-49
        for wid in range(3):
            # a worker runs 32 tasks per 32-source chunk it popped,
            # 18 for the short one: never a task without a pop
            assert snap["executor.tasks_executed"][wid] in {
                0: {0}, 1: {18, 32}, 2: {50}
            }[pops[wid]]

    def test_sleep_wakeup_pairing(self):
        with Executor(num_workers=2, num_gpus=0) as ex:
            ex.run(_diamond()).result()
            snap = ex.metrics.snapshot()
        sleeps, wakeups = snap["executor.sleeps"], snap["executor.wakeups"]
        for s, w in zip(sleeps, wakeups):
            # a worker currently asleep has committed one more time
            # than it has returned
            assert w <= s <= w + 1

    def test_gpu_counts_exact_under_concurrency(self):
        """Stream dispatchers count the GPU tasks they continue for a
        worker, and workers the GPU tasks they launch in place, without
        losing an increment: with a 1 us switch interval,
        50 runs of a two-GPU graph on two workers still count every
        task exactly once, and every per-lane identity holds."""
        import numpy as np

        runs, chains, kernels = 50, 4, 3
        arrays = [np.zeros(16) for _ in range(chains)]
        hf = Heteroflow("gpu-lanes")
        for i, a in enumerate(arrays):
            fill = hf.host(lambda a=a, i=i: a.fill(i), name=f"fill{i}")
            pull = hf.pull(a, name=f"pull{i}")
            fill.precede(pull)
            prev = pull
            for j in range(kernels):
                k = hf.kernel(_add_one, pull, name=f"k{i}_{j}")
                prev.precede(k)
                prev = k
            push = hf.push(pull, a, name=f"push{i}")
            prev.precede(push)
        tasks = len(hf.nodes)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Executor(num_workers=2, num_gpus=2) as ex:
                futures = [ex.run(hf) for _ in range(runs)]
                for f in futures:
                    f.result(timeout=120)
                ex.wait_for_all()
                snap = ex.metrics.snapshot()
        finally:
            sys.setswitchinterval(old)
        for i, a in enumerate(arrays):
            assert (a == i + kernels).all()
        executed = snap["executor.tasks_executed"]
        continued = snap["executor.continued_launches"]
        inplace = snap["executor.inplace_launches"]
        assert sum(executed) == tasks * runs
        assert snap["executor.tasks_flushed"] == [0, 0]
        # the GPU chains did continue on the dispatchers: up to the 3
        # kernels and the push of each chain, per run
        assert 0 < sum(continued) <= chains * (kernels + 1) * runs
        # every fill's worker launched its chain's pull in place
        assert sum(inplace) == chains * runs
        for wid in range(2):
            # every task was obtained by one pop, one continued launch
            # or one in-place launch
            assert (
                executed[wid]
                == snap["executor.local_pops"][wid]
                + snap["executor.shared_pops"][wid]
                + snap["executor.steals_succeeded"][wid]
                + continued[wid]
                + inplace[wid]
            )
            assert (
                snap["executor.steals_succeeded"][wid]
                <= snap["executor.steals_attempted"][wid]
            )
            wakeups, sleeps = snap["executor.wakeups"][wid], snap["executor.sleeps"][wid]
            assert wakeups <= sleeps <= wakeups + 1

    def test_gpu_device_stats(self):
        from repro.analysis.corpus import build_saxpy

        hf, x, y, n = build_saxpy()
        with Executor(num_workers=2, num_gpus=1) as ex:
            ex.run(hf).result()
            snap = ex.metrics.snapshot()
        gpu = snap["gpu0"]
        assert gpu["kernel_launches"] == 1
        assert gpu["h2d_bytes"] > 0 and gpu["d2h_bytes"] > 0
        assert gpu["ops_executed"] >= 5  # 2 pulls + 1 kernel + 2 pushes
        assert gpu["busy_seconds"] >= 0.0
        pool = gpu["pool"]
        assert pool["outstanding"] == 0  # buffers released at finalize
        assert pool["allocs"] == pool["frees"] == 2
        assert pool["bytes_in_use"] == 0
        assert pool["peak_bytes"] > 0


# ---------------------------------------------------------------------
# replay.* counters (docs/runtime.md, "Freeze and replay")
# ---------------------------------------------------------------------
class TestReplayCounters:
    def test_fast_path_exact_counts(self):
        """Host-only replays: every counter value is fully determined
        by the submission sequence."""
        frozen = _diamond().freeze()
        with Executor(num_workers=1, num_gpus=0) as ex:
            for _ in range(3):
                ex.run(frozen).result()  # 3 submissions, 1 pass each
            ex.run_n(frozen, 4).result()  # 1 submission, 4 passes
            snap = ex.metrics.snapshot()
        # one cache entry compiled on first submission, reused after
        assert snap["replay.cache_misses"] == 1
        assert snap["replay.cache_hits"] == 3
        # one plan reuse per dispatched pass: 3*1 + 4
        assert snap["replay.plan_reuses"] == 7
        # every submission was fast-path eligible
        assert snap["replay.fast_path"] == 4
        # one latency observation per finished submission
        hist = snap["replay.latency_seconds"]
        assert hist["count"] == 4
        assert hist["min"] > 0.0
        assert hist["sum"] >= 4 * hist["min"]
        # fast-path tasks still feed the per-worker execution lanes
        assert snap["executor.tasks_executed"] == [4 * 7]

    def test_general_path_counts_and_no_fast_increment(self):
        import numpy as np

        data = np.zeros(8)
        hf = Heteroflow("gpu")
        pull = hf.pull(data, name="pull")
        kern = hf.kernel(lambda x: None, pull, name="k").succeed(pull)
        hf.push(pull, data, name="push").succeed(kern)
        frozen = hf.freeze()
        with Executor(num_workers=1, num_gpus=1) as ex:
            for _ in range(2):
                ex.run(frozen).result()
            snap = ex.metrics.snapshot()
        assert snap["replay.cache_misses"] == 1
        assert snap["replay.cache_hits"] == 1
        assert snap["replay.plan_reuses"] == 2
        assert snap["replay.fast_path"] == 0  # GPU graphs are not fast
        assert snap["replay.latency_seconds"]["count"] == 2

    def test_fresh_runs_leave_replay_counters_zero(self):
        with Executor(num_workers=1, num_gpus=0) as ex:
            ex.run(_diamond()).result()
            snap = ex.metrics.snapshot()
        assert snap["replay.cache_hits"] == 0
        assert snap["replay.cache_misses"] == 0
        assert snap["replay.plan_reuses"] == 0
        assert snap["replay.fast_path"] == 0
        assert snap["replay.latency_seconds"]["count"] == 0

    def test_distinct_frozen_graphs_get_distinct_cache_entries(self):
        f1 = _diamond().freeze()
        f2 = _diamond().freeze()
        with Executor(num_workers=1, num_gpus=0) as ex:
            ex.run(f1).result()
            ex.run(f2).result()
            ex.run(f1).result()
            ex.run(f2).result()
            snap = ex.metrics.snapshot()
        assert snap["replay.cache_misses"] == 2  # one compile per fid
        assert snap["replay.cache_hits"] == 2


# ---------------------------------------------------------------------
# buddy-pool counters
# ---------------------------------------------------------------------
class TestBuddyCounters:
    def test_split_and_merge_counts(self):
        b = BuddyAllocator(1024, min_block=256)
        off = b.allocate(256)  # 1024 -> 512+512 -> 256+256
        assert b.num_splits == 2
        assert b.num_allocs == 1
        b.free(off)
        assert b.num_merges == 2
        assert b.num_frees == 1
        assert b.fully_coalesced

    def test_fragmentation_measure(self):
        b = BuddyAllocator(1024, min_block=256)
        assert b.fragmentation() == 0.0  # one whole free block
        a = b.allocate(256)
        b.allocate(256)
        b.free(a)  # free: 256 @ 0 and 512 @ 512 (buddy still live)
        assert b.free_bytes == 768
        assert b.largest_free_block == 512
        assert b.fragmentation() == pytest.approx(1 - 512 / 768)
        stats = b.stats()
        assert stats["splits"] == 2 and stats["merges"] == 0
        assert stats["capacity"] == 1024

    def test_heap_stats_layering(self):
        from repro.gpu.device import Device

        dev = Device(0, memory_bytes=1 << 20)
        try:
            buf = dev.allocate(1000)
            stats = dev.heap.stats()
            assert stats["buffer_allocs"] == 1
            assert stats["outstanding"] == 1
            assert stats["bytes_in_use"] == 1024  # block-rounded
            buf.free()
            assert dev.heap.stats()["outstanding"] == 0
        finally:
            dev.destroy()


class TestStreamBusy:
    def test_busy_seconds_accumulates(self):
        import time as _time

        from repro.gpu.device import GpuRuntime

        with GpuRuntime(1) as rt:
            s = rt.device(0).create_stream()
            s.enqueue(lambda: _time.sleep(0.02))
            s.synchronize()
            assert s.ops_executed >= 1
            assert s.busy_seconds >= 0.01


# ---------------------------------------------------------------------
# chrome-trace edge cases
# ---------------------------------------------------------------------
class TestChromeTrace:
    def test_empty_observer(self):
        assert chrome_trace_events(TraceObserver().records) == []

    def test_host_only_run_uses_worker_lanes(self):
        obs = TraceObserver()
        with Executor(num_workers=1, num_gpus=0, observers=[obs]) as ex:
            ex.run(_diamond()).result()
        events = chrome_trace_events(obs.records)
        assert len(events) == 4
        assert all(e["tid"] == "worker0" for e in events)
        assert all(e["ph"] == "X" for e in events)


# ---------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------
class TestRunReport:
    def test_metrics_run_invariants(self):
        from repro.analysis.corpus import BUILTIN_CORPUS

        hf = BUILTIN_CORPUS["timing"]()
        obs = TraceObserver()
        with Executor(num_workers=2, num_gpus=2, observers=[obs]) as ex:
            fut = ex.run(hf, metrics=True)
            fut.result()
        rep = fut.run_report
        assert rep is not None
        # the acceptance invariant: measured critical path is a lower
        # bound on the run
        assert 0 < rep.critical_path_length <= rep.wall_time
        # every task on the critical path has zero slack
        for entry in rep.critical_path:
            assert rep.slack[entry.nid] == 0.0
        # per-task counts agree with the schedule validator's view of
        # the same run (our own observer saw the identical schedule)
        vreport = validate_schedule(hf, obs.records, num_gpus=2)
        vreport.raise_if_failed()
        assert rep.num_records == vreport.num_records
        assert sum(rep.tasks_by_type.values()) == rep.num_records
        # lanes cover every record
        assert sum(l.tasks for l in rep.lanes) == rep.num_records
        # text rendering mentions the workload and the path
        text = render_report_text(rep)
        assert "critical path" in text and rep.workload in text

    def test_report_attached_on_failure(self):
        hf = Heteroflow("boom")
        ok = hf.host(lambda: None, name="ok")
        bad = hf.host(lambda: 1 / 0, name="bad")
        ok.precede(bad)
        with Executor(num_workers=1, num_gpus=0) as ex:
            fut = ex.run(hf, metrics=True)
            with pytest.raises(ZeroDivisionError):
                fut.result()
        assert fut.run_report is not None
        assert fut.run_report.num_records >= 1  # 'ok' ran

    def test_schema_v1_golden(self):
        """Pins the serialized layout; renames require a schema bump."""
        rep = RunReport(
            workload="w",
            wall_time=2.0,
            num_workers=2,
            num_gpus=1,
            passes=1,
            num_records=2,
            tasks_by_type={"host": 2},
            lanes=[LaneUtilization("worker0", 2, 1.0, 0.5)],
            critical_path_length=1.5,
            critical_path=[CriticalPathEntry("a", 0, "host", 1.5)],
            slack={0: 0.0, 1: 0.5},
            tasks_per_worker=[2, 0],
            steals_attempted=[1, 3],
            steals_succeeded=[0, 1],
            tasks_per_device={0: 1},
            counters={"executor.tasks_executed": [2, 0]},
        )
        assert rep.to_dict() == {
            "schema": "repro.run-report/1",
            "workload": "w",
            "wall_time": 2.0,
            "num_workers": 2,
            "num_gpus": 1,
            "passes": 1,
            "num_records": 2,
            "tasks_by_type": {"host": 2},
            "lanes": [
                {"lane": "worker0", "tasks": 2, "busy": 1.0, "utilization": 0.5}
            ],
            "critical_path": {
                "length": 1.5,
                "tasks": [
                    {"name": "a", "nid": 0, "type": "host", "duration": 1.5}
                ],
            },
            "slack": {"0": 0.0, "1": 0.5},
            "steals": {
                "tasks_per_worker": [2, 0],
                "attempted": [1, 3],
                "succeeded": [0, 1],
            },
            "placement": {"tasks_per_device": {"0": 1}},
            "counters": {"executor.tasks_executed": [2, 0]},
            "events": [],
        }
        assert RUN_REPORT_SCHEMA == "repro.run-report/1"
        assert json.loads(rep.to_json())["schema"] == RUN_REPORT_SCHEMA

    def test_build_report_empty_records(self):
        hf = _diamond()
        rep = build_run_report(
            hf, [], wall_time=0.0, num_workers=1, num_gpus=0
        )
        assert rep.num_records == 0
        assert rep.critical_path_length == 0.0
        assert rep.critical_path == []
        assert rep.lanes == []
        render_report_text(rep)  # must not raise on the degenerate case


# ---------------------------------------------------------------------
# the profile CLI
# ---------------------------------------------------------------------
class TestProfileCli:
    def test_profile_json_schema(self, capsys):
        assert main(["profile", "timing", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == RUN_REPORT_SCHEMA
        assert doc["workload"] == "timing"
        assert doc["critical_path"]["length"] <= doc["wall_time"]
        assert doc["num_records"] > 0
        assert sum(doc["tasks_by_type"].values()) == doc["num_records"]

    def test_profile_text_and_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["profile", "saxpy", "--trace", str(out)]) == 0
        captured = capsys.readouterr()
        assert "RunReport: saxpy" in captured.out
        events = json.loads(out.read_text())
        assert len(events) == 7  # saxpy's seven tasks
        assert {e["tid"] for e in events} >= {"worker0"} | {
            e["tid"] for e in events if e["tid"].startswith("gpu")
        }
