"""Tests for the distributed-scheduler extension (EXT-DIST)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Heteroflow
from repro.core.node import TaskType
from repro.dist import ClusterSpec, DistSimExecutor, partition_graph
from repro.errors import SimulationError
from repro.sim import CostModel, MachineSpec, SimExecutor, paper_testbed


class TestClusterSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            ClusterSpec(0, MachineSpec(1, 0))
        with pytest.raises(SimulationError):
            ClusterSpec(1, MachineSpec(1, 0), net_bandwidth=0)

    def test_transfer_seconds(self):
        cl = ClusterSpec(2, MachineSpec(1, 0), net_bandwidth=1e9, net_latency=1e-3)
        assert cl.transfer_seconds(1e9) == pytest.approx(1.001)

    def test_totals(self):
        cl = ClusterSpec(3, MachineSpec(4, 2))
        assert cl.total_cores == 12
        assert cl.total_gpus == 6


def diamond_with_costs():
    hf = Heteroflow()
    cm = CostModel()
    a = hf.host(lambda: None, name="a")
    bs = [hf.host(lambda: None, name=f"b{i}") for i in range(6)]
    z = hf.host(lambda: None, name="z")
    for b in bs:
        a.precede(b)
        b.precede(z)
        cm.annotate_host(b, 1.0)
    cm.annotate_host(a, 0.1)
    cm.annotate_host(z, 0.1)
    return hf, cm


class TestPartition:
    def test_assigns_every_node(self):
        hf, cm = diamond_with_costs()
        part = partition_graph(hf.nodes, 3, cm)
        assert set(part.assignment) == {n.nid for n in hf.nodes}
        assert all(0 <= v < 3 for v in part.assignment.values())

    def test_single_node_no_cut(self):
        hf, cm = diamond_with_costs()
        part = partition_graph(hf.nodes, 1, cm)
        assert part.cut_edges == 0
        assert part.load_imbalance == 1.0

    def test_balance_on_independent_work(self):
        hf = Heteroflow()
        cm = CostModel()
        for _ in range(12):
            cm.annotate_host(hf.host(lambda: None), 1.0)
        part = partition_graph(hf.nodes, 4, cm)
        assert part.load_imbalance < 1.2

    def test_kernel_atom_never_split(self):
        hf = Heteroflow()
        cm = CostModel()
        for _ in range(6):
            p1 = hf.pull([0])
            p2 = hf.pull([0])
            k = hf.kernel(lambda a, b: None, p1, p2)
            push = hf.push(p1, [0])
            p1.precede(k)
            p2.precede(k)
            k.precede(push)
        part = partition_graph(hf.nodes, 3, cm)
        for n in hf.nodes:
            if n.type is TaskType.KERNEL:
                for p in n.kernel_sources:
                    assert part.assignment[n.nid] == part.assignment[p.nid]
            if n.type is TaskType.PUSH:
                assert part.assignment[n.nid] == part.assignment[n.source.nid]

    def test_locality_preferred_when_balanced(self):
        """A chain should stay on one node (zero cut)."""
        hf = Heteroflow()
        cm = CostModel()
        prev = None
        for i in range(8):
            t = hf.host(lambda: None)
            cm.annotate_host(t, 1.0)
            if prev:
                prev.precede(t)
            prev = t
        part = partition_graph(hf.nodes, 2, cm)
        # a pure chain cannot be parallelized; locality should keep the
        # cut small even though balance suffers
        assert part.cut_edges <= 2

    def test_empty_graph(self):
        part = partition_graph([], 2)
        assert part.assignment == {}

    def test_rejects_zero_nodes(self):
        with pytest.raises(SimulationError):
            partition_graph([], 0)

    @settings(max_examples=20, deadline=None)
    @given(n_tasks=st.integers(1, 30), nn=st.integers(1, 5), seed=st.integers(0, 50))
    def test_property_total_load_conserved(self, n_tasks, nn, seed):
        rng = np.random.default_rng(seed)
        hf = Heteroflow()
        cm = CostModel()
        tasks = []
        for _ in range(n_tasks):
            t = hf.host(lambda: None)
            cm.annotate_host(t, float(rng.uniform(0.1, 2.0)))
            tasks.append(t)
        for i in range(1, n_tasks):
            if rng.uniform() < 0.4:
                tasks[int(rng.integers(0, i))].precede(tasks[i])
        part = partition_graph(hf.nodes, nn, cm)
        total = sum(cm.cost_of(n).cpu_seconds for n in hf.nodes)
        assert sum(part.loads) == pytest.approx(total, rel=1e-6)
        cut = sum(
            1
            for n in hf.nodes
            for s in n.successors
            if part.assignment[n.nid] != part.assignment[s.nid]
        )
        assert cut == part.cut_edges


class TestDistSimulator:
    def test_one_node_matches_local_sim(self):
        """A 1-node cluster runs the very machine model SimExecutor runs,
        so it reproduces the local schedule exactly, busy times included."""
        from repro.apps.timing import build_timing_flow

        flow = build_timing_flow(num_views=16, num_gates=40, paths_per_view=4)
        for gpus in (1, 2):
            local = SimExecutor(paper_testbed(4, gpus), flow.cost_model).run(flow.graph)
            cl = ClusterSpec(1, paper_testbed(4, gpus))
            dist = DistSimExecutor(cl, flow.cost_model).run(flow.graph)
            assert dist.makespan == local.makespan
            assert dist.node_core_busy == [sum(local.core_busy)]
            assert dist.node_gpu_busy == [sum(local.gpu_busy)]
            assert dist.messages == 0

    def test_parallel_workload_scales_with_nodes(self):
        from repro.apps.timing import build_timing_flow

        flow = build_timing_flow(num_views=64, num_gates=40, paths_per_view=4)
        times = {}
        for nn in (1, 2, 4):
            cl = ClusterSpec(nn, paper_testbed(8, 1))
            times[nn] = DistSimExecutor(cl, flow.cost_model).run(flow.graph).makespan
        assert times[1] / times[2] > 1.6
        assert times[2] / times[4] > 1.5

    def test_chain_workload_does_not_scale(self):
        from repro.apps.placement import build_placement_flow

        flow = build_placement_flow(
            num_cells=30, iterations=10, num_matchers=32, window_size=1
        )
        cl1 = ClusterSpec(1, paper_testbed(10, 1))
        cl4 = ClusterSpec(4, paper_testbed(10, 1))
        t1 = DistSimExecutor(cl1, flow.cost_model).run(flow.graph).makespan
        t4 = DistSimExecutor(cl4, flow.cost_model).run(flow.graph).makespan
        assert t1 / t4 < 1.5  # iteration chain gates distribution

    def test_network_charged_per_cut_edge(self):
        hf, cm = diamond_with_costs()
        cl = ClusterSpec(2, MachineSpec(4, 0), net_latency=0.01, net_bandwidth=1e9)
        rep = DistSimExecutor(cl, cm).run(hf)
        assert rep.messages == rep.partition.cut_edges
        assert rep.messages > 0
        assert sum(rep.net_busy) == pytest.approx(
            rep.messages * cl.transfer_seconds(cl.default_message_bytes), rel=1e-6
        )

    def test_slow_network_hurts(self):
        hf, cm = diamond_with_costs()
        fast = ClusterSpec(2, MachineSpec(2, 0), net_latency=1e-6)
        slow = ClusterSpec(2, MachineSpec(2, 0), net_latency=0.5)
        t_fast = DistSimExecutor(fast, cm).run(hf).makespan
        t_slow = DistSimExecutor(slow, cm).run(hf).makespan
        assert t_slow > t_fast + 0.4

    def test_gpu_graph_distributes(self):
        hf = Heteroflow()
        cm = CostModel()
        for i in range(8):
            p = hf.pull([0])
            k = hf.kernel(lambda a: None, p)
            p.precede(k)
            cm.annotate_copy(p, 1e6)
            cm.annotate_kernel(k, 1.0)
        cl = ClusterSpec(4, MachineSpec(2, 1, kernel_slots=1))
        rep = DistSimExecutor(cl, cm).run(hf)
        # 8 serial-kernel seconds over 4 nodes of 1 slot each
        assert rep.makespan == pytest.approx(2.0, rel=0.1)

    def test_gpu_graph_on_gpuless_cluster_fails(self):
        hf = Heteroflow()
        hf.pull([0])
        cl = ClusterSpec(2, MachineSpec(2, 0))
        with pytest.raises(Exception):
            DistSimExecutor(cl).run(hf)
