"""Tests for trace analysis and chrome-trace export.

Real and simulated runs leave the same :class:`TaskRecord` list, so
every tool here is fed both.
"""

import json

import pytest

from repro.core import Executor, TraceObserver
from repro.core.observer import TaskRecord
from repro.core.tracing import (
    chrome_trace_events,
    dump_chrome_trace,
    lane_stats,
    write_chrome_trace,
)
from repro.sim import CostModel, MachineSpec, SimExecutor
from repro.sim.trace import (
    busiest_tasks,
    concurrency_profile,
    peak_concurrency,
    render_gantt,
    summarize,
)


def rec(name, type_, worker, device, begin, end):
    return TaskRecord(name, type_, worker, device, begin, end)


SAMPLE = [
    rec("a", "host", 0, None, 0.0, 1.0),
    rec("b", "host", 1, None, 0.0, 2.0),
    rec("k1", "kernel", 0, 0, 1.0, 3.0),
    rec("k2", "kernel", 1, 0, 2.0, 4.0),
    rec("p", "pull", 1, 0, 0.5, 0.75),
]


class TestUtilization:
    def test_busy_accounting(self):
        rows = {lane: busy for lane, _, busy in lane_stats(SAMPLE)}
        assert rows["worker0"] == pytest.approx(1.0)
        assert rows["gpu0"] == pytest.approx(2.0 + 2.0 + 0.25)

    def test_utilization_fraction(self):
        assert "worker1=50%" in summarize(SAMPLE, makespan=4.0)

    def test_empty(self):
        assert lane_stats([]) == []

    def test_lane_order_and_counts(self):
        assert [(lane, n) for lane, n, _ in lane_stats(SAMPLE)] == [
            ("worker0", 1), ("worker1", 1), ("gpu0", 3),
        ]


class TestConcurrency:
    def test_profile_levels(self):
        prof = concurrency_profile(SAMPLE, type_filter="kernel")
        # k1 1->3, k2 2->4: level goes 1 at t=1, 2 at t=2, 1 at t=3, 0 at t=4
        assert prof == [(1.0, 1), (2.0, 2), (3.0, 1), (4.0, 0)]

    def test_peak(self):
        assert peak_concurrency(SAMPLE, "kernel") == 2
        assert peak_concurrency(SAMPLE) == 3  # b, k1|p overlap window
        assert peak_concurrency([], "kernel") == 0

    def test_busiest(self):
        top = busiest_tasks(SAMPLE, 2)
        assert {t.name for t in top} == {"k1", "k2"} or top[0].name == "b"
        assert top[0].duration >= top[1].duration


class TestGantt:
    def test_renders_all_resources(self):
        text = render_gantt(SAMPLE, width=40)
        assert "worker0" in text and "gpu0" in text
        assert "K" in text and "#" in text

    def test_empty(self):
        assert "empty" in render_gantt([])

    def test_summary(self):
        s = summarize(SAMPLE)
        assert "5 tasks" in s
        assert "kernel=2" in s


class TestObserverAdapters:
    @pytest.fixture
    def observer(self, saxpy_graph):
        hf, *_ = saxpy_graph
        obs = TraceObserver()
        with Executor(2, 1, observers=[obs]) as ex:
            ex.run(hf).result(timeout=30)
        return obs

    def test_records_adapt_and_rebase(self, observer):
        """Observer records feed every tool as they are; the chrome
        trace and the Gantt chart rebase them to the earliest record."""
        recs = observer.records
        assert sum(n for _, n, _ in lane_stats(recs)) == 7
        assert min(e["ts"] for e in chrome_trace_events(recs)) == pytest.approx(0.0)
        assert any(lane.startswith("gpu") for lane, _, _ in lane_stats(recs))
        rows = render_gantt(recs).splitlines()[1:-1]
        assert any(row.startswith("gpu") for row in rows)
        assert any(row.split("|")[1][0] != " " for row in rows)
        assert "7 tasks over" in summarize(recs)

    def test_chrome_trace_structure(self, observer):
        events = chrome_trace_events(observer.records)
        assert len(events) == 7
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] > 0
            assert e["cat"] in ("host", "pull", "push", "kernel")

    def test_chrome_trace_roundtrips_json(self, observer):
        parsed = json.loads(dump_chrome_trace(observer.records))
        assert isinstance(parsed, list) and parsed

    def test_write_chrome_trace(self, observer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(observer.records, str(path))
        assert json.loads(path.read_text())

    def test_empty_observer(self):
        assert chrome_trace_events(TraceObserver().records) == []
        assert lane_stats(TraceObserver().records) == []


class TestSimTraceEndToEnd:
    def test_sim_trace_feeds_tools(self):
        from repro.core import Heteroflow

        hf = Heteroflow()
        cm = CostModel()
        prev = None
        for i in range(4):
            t = hf.host(lambda: None, name=f"t{i}")
            cm.annotate_host(t, 1.0)
            if prev:
                prev.precede(t)
            prev = t
        rep = SimExecutor(MachineSpec(2, 0), cm, record_trace=True).run(hf)
        rows = lane_stats(rep.trace)
        assert sum(busy for _, _, busy in rows) == pytest.approx(4.0)
        assert "worker0" in render_gantt(rep.trace)
