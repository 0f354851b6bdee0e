"""Tests for the discrete-event engine, machine model, and simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Heteroflow
from repro.errors import SimulationError
from repro.sim import CostModel, EventQueue, MachineSpec, SimExecutor, TaskCost, paper_testbed


class TestEventQueue:
    def test_runs_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule_at(2.0, lambda: log.append("b"))
        q.schedule_at(1.0, lambda: log.append("a"))
        q.schedule_at(3.0, lambda: log.append("c"))
        assert q.run() == 3.0
        assert log == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        q = EventQueue()
        log = []
        for i in range(5):
            q.schedule_at(1.0, lambda i=i: log.append(i))
        q.run()
        assert log == [0, 1, 2, 3, 4]

    def test_schedule_after_accumulates(self):
        q = EventQueue()
        times = []
        q.schedule_after(1.0, lambda: q.schedule_after(2.0, lambda: times.append(q.now)))
        q.run()
        assert times == [3.0]

    def test_rejects_past_and_negative(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule_at(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            q.schedule_after(-0.5, lambda: None)

    def test_event_budget(self):
        q = EventQueue()

        def loop():
            q.schedule_after(1.0, loop)

        loop()
        with pytest.raises(SimulationError):
            q.run(max_events=100)


class TestMachineSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            MachineSpec(0, 1)
        with pytest.raises(SimulationError):
            MachineSpec(1, -1)
        with pytest.raises(SimulationError):
            MachineSpec(1, 1, kernel_slots=0)

    def test_copy_durations(self):
        m = MachineSpec(1, 1, h2d_bandwidth=1e9, copy_latency=1e-6)
        assert m.h2d_seconds(1e9) == pytest.approx(1.0 + 1e-6)

    def test_with_resources_preserves_rates(self):
        m = paper_testbed()
        m2 = m.with_resources(8, 2)
        assert (m2.num_cores, m2.num_gpus) == (8, 2)
        assert m2.kernel_slots == m.kernel_slots


class TestCostModel:
    def test_annotations_round_trip(self):
        hf = Heteroflow()
        t = hf.host(lambda: None)
        cm = CostModel()
        cm.annotate_host(t, 2.5)
        assert cm.cost_of(t.node).cpu_seconds == 2.5

    def test_defaults_by_type(self):
        hf = Heteroflow()
        h = hf.host(lambda: None)
        p = hf.pull(np.zeros(128))
        k = hf.kernel(lambda: None)
        cm = CostModel(default_host_seconds=9.0)
        assert cm.cost_of(h.node).cpu_seconds == 9.0
        assert cm.cost_of(p.node).copy_bytes == 128 * 8
        assert cm.cost_of(k.node).gpu_seconds == cm.default_kernel_seconds

    def test_unresolvable_span_uses_default_bytes(self):
        hf = Heteroflow()
        p = hf.pull(lambda: not_yet_defined)  # noqa: F821
        cm = CostModel(default_copy_bytes=77.0)
        assert cm.cost_of(p.node).copy_bytes == 77.0

    def test_negative_cost_rejected(self):
        with pytest.raises(SimulationError):
            TaskCost(cpu_seconds=-1)


def chain_graph(k, host_s=1.0):
    hf = Heteroflow()
    cm = CostModel()
    prev = None
    for i in range(k):
        t = hf.host(lambda: None, name=f"t{i}")
        cm.annotate_host(t, host_s)
        if prev is not None:
            prev.precede(t)
        prev = t
    return hf, cm


def fan_graph(k, host_s=1.0):
    hf = Heteroflow()
    cm = CostModel()
    for i in range(k):
        cm.annotate_host(hf.host(lambda: None), host_s)
    return hf, cm


class TestSimulator:
    def test_chain_makespan_is_sum(self):
        hf, cm = chain_graph(5, 2.0)
        rep = SimExecutor(MachineSpec(4, 0), cm).run(hf)
        assert rep.makespan == pytest.approx(10.0)

    def test_fan_makespan_divides_by_cores(self):
        hf, cm = fan_graph(8, 1.0)
        assert SimExecutor(MachineSpec(1, 0), cm).run(hf).makespan == pytest.approx(8.0)
        assert SimExecutor(MachineSpec(4, 0), cm).run(hf).makespan == pytest.approx(2.0)
        assert SimExecutor(MachineSpec(8, 0), cm).run(hf).makespan == pytest.approx(1.0)

    def test_gpu_pipeline_overlaps_cpu(self):
        """CPU work of later items overlaps GPU work of earlier items."""
        hf = Heteroflow()
        cm = CostModel()
        for i in range(4):
            h = hf.host(lambda: None)
            p = hf.pull([0])
            k = hf.kernel(lambda: None, p)
            h.precede(p)
            p.precede(k)
            cm.annotate_host(h, 1.0)
            cm.annotate_copy(p, 0)
            cm.annotate_kernel(k, 1.0)
        m = MachineSpec(1, 1, dispatch_overhead=0.0, copy_latency=0.0, kernel_launch_overhead=0.0)
        rep = SimExecutor(m, cm).run(hf)
        # serial would be 8; the perfect pipeline floor is 5 (4 cpu +
        # 1 gpu tail); realistic event interleaving may add one stage
        assert 5.0 - 1e-9 <= rep.makespan <= 6.0 + 1e-9

    def test_kernel_slots_cap_concurrency(self):
        hf = Heteroflow()
        cm = CostModel()
        for i in range(8):
            p = hf.pull([0])
            k = hf.kernel(lambda: None, p)
            p.precede(k)
            cm.annotate_copy(p, 0)
            cm.annotate_kernel(k, 1.0)
        base = dict(dispatch_overhead=0.0, copy_latency=0.0, kernel_launch_overhead=0.0)
        one = SimExecutor(MachineSpec(8, 1, kernel_slots=1, **base), cm).run(hf)
        four = SimExecutor(MachineSpec(8, 1, kernel_slots=4, **base), cm).run(hf)
        assert one.makespan == pytest.approx(8.0)
        assert four.makespan == pytest.approx(2.0)

    def test_multi_gpu_spreads_groups(self):
        hf = Heteroflow()
        cm = CostModel()
        for i in range(4):
            p = hf.pull([0])
            k = hf.kernel(lambda: None, p)
            p.precede(k)
            cm.annotate_copy(p, 0)
            cm.annotate_kernel(k, 1.0)
        base = dict(dispatch_overhead=0.0, copy_latency=0.0, kernel_launch_overhead=0.0)
        g1 = SimExecutor(MachineSpec(4, 1, kernel_slots=1, **base), cm).run(hf)
        g4 = SimExecutor(MachineSpec(4, 4, kernel_slots=1, **base), cm).run(hf)
        assert g1.makespan == pytest.approx(4.0)
        assert g4.makespan == pytest.approx(1.0)

    def test_copy_time_from_bandwidth(self):
        hf = Heteroflow()
        cm = CostModel()
        p = hf.pull([0])
        cm.annotate_copy(p, 1e9)
        m = MachineSpec(1, 1, h2d_bandwidth=1e9, copy_latency=0.0, dispatch_overhead=0.0)
        rep = SimExecutor(m, cm).run(hf)
        assert rep.makespan == pytest.approx(1.0)

    def test_report_utilization(self):
        hf, cm = fan_graph(4, 1.0)
        rep = SimExecutor(MachineSpec(2, 0), cm).run(hf)
        assert rep.core_utilization == pytest.approx(1.0)
        assert rep.makespan_minutes == pytest.approx(rep.makespan / 60)

    def test_trace_recording(self):
        hf, cm = chain_graph(3)
        rep = SimExecutor(MachineSpec(1, 0), cm, record_trace=True).run(hf)
        hosts = [r for r in rep.trace if r.type == "host"]
        assert len(hosts) == 3
        assert all(r.duration == pytest.approx(1.0) for r in hosts)

    def test_fifo_policy_accepted_lifo_default(self):
        hf, cm = chain_graph(2)
        SimExecutor(MachineSpec(1, 0), cm, ready_policy="fifo").run(hf)
        with pytest.raises(SimulationError):
            SimExecutor(MachineSpec(1, 0), cm, ready_policy="weird")

    def test_dedicated_needs_spare_cores(self):
        with pytest.raises(SimulationError):
            SimExecutor(MachineSpec(2, 2), dedicated_gpu_workers=True)

    def test_dedicated_wastes_reserved_cores(self):
        """With no GPU work, dedicated mode loses the reserved cores."""
        hf, cm = fan_graph(8, 1.0)
        uni = SimExecutor(MachineSpec(4, 2), cm).run(hf)
        ded = SimExecutor(MachineSpec(4, 2), cm, dedicated_gpu_workers=True).run(hf)
        assert uni.makespan == pytest.approx(2.0)
        assert ded.makespan == pytest.approx(4.0)  # only 2 usable cores

    def test_unplaced_graph_with_zero_gpus_raises(self):
        hf = Heteroflow()
        hf.pull([1])
        with pytest.raises(Exception):
            SimExecutor(MachineSpec(1, 0)).run(hf)

    def test_determinism(self):
        from repro.apps.timing import build_timing_flow

        flow = build_timing_flow(num_views=4, num_gates=60, paths_per_view=8)
        a = SimExecutor(paper_testbed(8, 2), flow.cost_model).run(flow.graph)
        b = SimExecutor(paper_testbed(8, 2), flow.cost_model).run(flow.graph)
        assert a.makespan == b.makespan


@settings(max_examples=25, deadline=None)
@given(
    durations=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20),
    cores=st.integers(1, 8),
)
def test_makespan_bounds(durations, cores):
    """Classical bounds: max(total/cores, longest task) <= makespan
    <= total (independent host tasks, greedy scheduling)."""
    hf = Heteroflow()
    cm = CostModel()
    for d in durations:
        cm.annotate_host(hf.host(lambda: None), d)
    rep = SimExecutor(MachineSpec(cores, 0), cm).run(hf)
    total = sum(durations)
    assert rep.makespan >= max(total / cores, max(durations)) - 1e-9
    assert rep.makespan <= total + 1e-9


@settings(max_examples=15, deadline=None)
@given(cores=st.sampled_from([1, 2, 4, 8, 16]), st_seed=st.integers(0, 3))
def test_more_cores_never_hurt_independent_work(cores, st_seed):
    rng = np.random.default_rng(st_seed)
    durations = rng.uniform(0.1, 2.0, size=30)
    hf = Heteroflow()
    cm = CostModel()
    for d in durations:
        cm.annotate_host(hf.host(lambda: None), float(d))
    t1 = SimExecutor(MachineSpec(cores, 0), cm).run(hf).makespan
    t2 = SimExecutor(MachineSpec(cores * 2, 0), cm).run(hf).makespan
    assert t2 <= t1 + 1e-9


class TestSimulatedSchedulesValidate:
    """A simulated run leaves the executor's TaskRecord list, so the
    runtime's schedule validator, chrome-trace export and run report
    read it as they read a real run."""

    @staticmethod
    def _flows():
        from repro.apps.placement import build_placement_flow
        from repro.apps.timing import build_timing_flow

        return {
            "timing": build_timing_flow(num_views=16, num_gates=60, paths_per_view=8),
            "placement": build_placement_flow(
                num_cells=40, iterations=4, num_matchers=32, window_size=1
            ),
        }

    @pytest.mark.parametrize("cores,gpus", [(4, 1), (8, 2), (40, 4)])
    @pytest.mark.parametrize(
        "options",
        [{}, {"ready_policy": "fifo"}, {"dedicated_gpu_workers": True}],
        ids=["lifo", "fifo", "dedicated"],
    )
    def test_figure_graphs_pass_the_validator(self, cores, gpus, options):
        from repro.check import validate_schedule

        for name, flow in self._flows().items():
            sim = SimExecutor(
                paper_testbed(cores, gpus), flow.cost_model, record_trace=True, **options
            )
            rep = sim.run(flow.graph)
            report = validate_schedule(flow.graph, rep.trace, passes=1, num_gpus=gpus)
            assert report.ok, (name, report.violations[:3])
            assert report.num_records == len(flow.graph.nodes)
            assert report.num_edges_checked > 0
            gpu_recs = [r for r in rep.trace if r.device is not None]
            assert gpu_recs and all(r.stream is not None for r in gpu_recs)
            assert all(0 <= r.worker_id < cores for r in rep.trace)
            if options.get("dedicated_gpu_workers"):
                assert all(r.worker_id < gpus for r in gpu_recs)
                assert all(r.worker_id >= gpus for r in rep.trace if r.device is None)

    def test_stream_sequence_counts_each_streams_completions(self):
        flow = self._flows()["placement"]
        rep = SimExecutor(paper_testbed(8, 2), flow.cost_model, record_trace=True).run(
            flow.graph
        )
        streams = {}
        for r in rep.trace:
            if r.stream is not None:
                streams.setdefault(r.stream, []).append(r)
        for recs in streams.values():
            assert [r.stream_seq for r in recs] == list(range(1, len(recs) + 1))
            assert len({r.device for r in recs}) == 1

    def test_simulated_run_exports_and_profiles(self):
        from repro.core.tracing import chrome_trace_events, lane_stats
        from repro.metrics.profiler import build_run_report

        flow = self._flows()["timing"]
        rep = SimExecutor(paper_testbed(8, 2), flow.cost_model, record_trace=True).run(
            flow.graph
        )
        events = chrome_trace_events(rep.trace)
        assert len(events) == len(flow.graph.nodes)
        assert {e["tid"] for e in events} == {lane for lane, _, _ in lane_stats(rep.trace)}
        report = build_run_report(
            flow.graph, rep.trace, wall_time=rep.makespan, num_workers=8, num_gpus=2
        )
        assert report.num_records == len(flow.graph.nodes)
        assert 0 < report.critical_path_length <= rep.makespan
        busy = {l.lane: l.busy for l in report.lanes}
        assert sum(v for k, v in busy.items() if k.startswith("gpu")) == pytest.approx(
            sum(rep.gpu_busy)
        )
        assert sum(v for k, v in busy.items() if k.startswith("worker")) <= sum(rep.core_busy)
