"""Tests for graph analysis and refinement utilities."""

import random

import numpy as np
import pytest

from repro.core import Executor, Heteroflow
from repro.core.algorithms import (
    average_parallelism,
    critical_path,
    graph_stats,
    linearize,
    merge,
    redundant_edges,
    total_work,
)
from repro.errors import CycleError
from repro.sim import CostModel, MachineSpec, SimExecutor


def chain(k, seconds=1.0):
    hf = Heteroflow()
    cm = CostModel()
    prev = None
    for _ in range(k):
        t = hf.host(lambda: None)
        cm.annotate_host(t, seconds)
        if prev:
            prev.precede(t)
        prev = t
    return hf, cm


def fan(k, seconds=1.0):
    hf = Heteroflow()
    cm = CostModel()
    for _ in range(k):
        cm.annotate_host(hf.host(lambda: None), seconds)
    return hf, cm


class TestCriticalPath:
    def test_chain_span_is_sum(self):
        hf, cm = chain(5, 2.0)
        span, path = critical_path(hf, cm)
        assert span == pytest.approx(10.0)
        assert len(path) == 5

    def test_fan_span_is_single_task(self):
        hf, cm = fan(8, 3.0)
        span, path = critical_path(hf, cm)
        assert span == pytest.approx(3.0)
        assert len(path) == 1

    def test_weighted_branch_selection(self):
        hf = Heteroflow()
        cm = CostModel()
        a = hf.host(lambda: None, name="a")
        heavy = hf.host(lambda: None, name="heavy")
        light = hf.host(lambda: None, name="light")
        z = hf.host(lambda: None, name="z")
        a.precede(heavy, light)
        z.succeed(heavy, light)
        for t, s in ((a, 1.0), (heavy, 5.0), (light, 1.0), (z, 1.0)):
            cm.annotate_host(t, s)
        span, path = critical_path(hf, cm)
        assert span == pytest.approx(7.0)
        assert [n.name for n in path] == ["a", "heavy", "z"]

    def test_span_lower_bounds_simulation(self):
        from repro.apps.timing import build_timing_flow

        flow = build_timing_flow(num_views=16, num_gates=40, paths_per_view=4)
        m = MachineSpec(64, 8)
        span, _ = critical_path(flow.graph, flow.cost_model, m)
        sim = SimExecutor(m, flow.cost_model).run(flow.graph)
        assert sim.makespan >= span - 1e-9

    def test_empty_graph(self):
        span, path = critical_path(Heteroflow())
        assert span == 0.0 and path == []

    def test_gpu_tasks_use_gpu_and_copy_weights(self):
        hf = Heteroflow()
        cm = CostModel()
        p = hf.pull([0])
        k = hf.kernel(lambda a: None, p)
        p.precede(k)
        cm.annotate_copy(p, 12e9)  # exactly 1 second at default rate
        cm.annotate_kernel(k, 2.0)
        span, _ = critical_path(hf, cm)
        assert span == pytest.approx(3.0)


class TestWorkAndParallelism:
    def test_total_work(self):
        hf, cm = fan(4, 2.5)
        assert total_work(hf, cm) == pytest.approx(10.0)

    def test_parallelism_of_fan_and_chain(self):
        fan_hf, fan_cm = fan(8)
        chain_hf, chain_cm = chain(8)
        assert average_parallelism(fan_hf, fan_cm) == pytest.approx(8.0)
        assert average_parallelism(chain_hf, chain_cm) == pytest.approx(1.0)

    def test_apps_have_expected_parallelism_ordering(self):
        from repro.apps.placement import build_placement_flow
        from repro.apps.timing import build_timing_flow

        t = build_timing_flow(num_views=32, num_gates=40, paths_per_view=4)
        p = build_placement_flow(num_cells=30, iterations=10, num_matchers=32, window_size=1)
        # the view-parallel timing workload is far more parallel than
        # the iteration-chained placement workload
        assert average_parallelism(t.graph, t.cost_model) > 4 * average_parallelism(
            p.graph, p.cost_model
        )


class TestStats:
    def test_counts_and_depth(self, saxpy_graph):
        hf, *_ = saxpy_graph
        s = graph_stats(hf)
        assert s.num_tasks == 7
        assert s.num_edges == 6
        assert s.depth == 3  # host -> pull -> kernel -> push
        assert s.counts_by_type == {"host": 2, "pull": 2, "kernel": 1, "push": 2}
        assert s.num_sources == 2
        assert s.num_sinks == 2

    def test_widths(self):
        hf, _ = fan(5)
        s = graph_stats(hf)
        assert s.max_level_width == 5
        assert s.depth == 0


class TestRefinement:
    def test_redundant_edge_detected(self):
        hf = Heteroflow()
        a, b, c = (hf.host(lambda: None) for _ in range(3))
        a.precede(b)
        b.precede(c)
        a.precede(c)  # redundant: implied by a->b->c
        red = redundant_edges(hf)
        assert len(red) == 1
        assert red[0][0].nid == a.node.nid and red[0][1].nid == c.node.nid

    def test_fig3_graph_has_no_redundancy(self):
        """The paper's Fig.-3 graph relies on transitivity instead of
        extra edges; verify it is already reduced."""
        hf = Heteroflow()
        host1 = hf.host(lambda: None)
        host2 = hf.host(lambda: None)
        p1, p2 = hf.pull([0]), hf.pull([1])
        k1 = hf.kernel(lambda a: None, p1)
        k2 = hf.kernel(lambda a, b: None, p1, p2)
        s1 = hf.push(p1, [0])
        s2 = hf.push(p2, [1])
        host1.precede(p1)
        host2.precede(p2)
        p1.precede(k1)
        p2.precede(k2)
        k1.precede(s1, k2)
        k2.precede(s2)
        assert redundant_edges(hf) == []

    def test_cyclic_graph_raises_cycle_error(self):
        """Like critical_path and graph_stats, not a library-specific
        error from whatever computes the closure."""
        hf = Heteroflow()
        a, b, c = (hf.host(lambda: None, name=n) for n in "abc")
        a.precede(b)
        b.precede(c)
        c.precede(a)
        with pytest.raises(CycleError):
            redundant_edges(hf)

    def test_merge_moves_tasks(self):
        g1, g2 = Heteroflow("a"), Heteroflow("b")
        t1 = g1.host(lambda: None)
        t2 = g2.host(lambda: None)
        moved = merge(g1, g2)
        assert g2.empty
        assert g1.num_nodes == 2
        t1.precede(t2)  # cross-graph link now legal
        g1.validate()
        assert moved[0] is t2.node

    def test_merged_graph_executes(self):
        g1, g2 = Heteroflow(), Heteroflow()
        out = []
        a = g1.host(lambda: out.append("a"))
        b = g2.host(lambda: out.append("b"))
        merge(g1, g2)
        a.precede(b)
        with Executor(2, 0) as ex:
            ex.run(g1).result(timeout=10)
        assert out == ["a", "b"]

    def test_linearize_forces_sequential(self):
        hf, _ = fan(6)
        linearize(hf)
        order = hf.topological_order()
        for x, y in zip(order, order[1:]):
            assert y in x.successors
        s = graph_stats(hf)
        assert s.depth == 5

    def test_linearized_graph_runs(self):
        hf = Heteroflow()
        out = []
        for i in range(4):
            hf.host(lambda i=i: out.append(i))
        linearize(hf)
        with Executor(3, 0) as ex:
            ex.run(hf).result(timeout=10)
        assert out == sorted(out)


def random_dag(seed):
    """A seeded random DAG whose node order is not a topological order,
    plus the names of the shapes it contains.

    Every fourth seed adds a diamond (with its redundant shortcut),
    every third repeats some edges, and most graphs keep a few isolated
    nodes; seed 0 is the empty graph.
    """
    rng = random.Random(seed)
    hf = Heteroflow()
    n = 0 if seed == 0 else rng.randint(1, 16)
    tasks = [hf.host(lambda: None) for _ in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)  # edges go from lower to higher rank
    isolated = set(rng.sample(range(n), min(n, rng.randint(0, 3))))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if rank[i] < rank[j]
        and i not in isolated
        and j not in isolated
        and rng.random() < 0.3
    ]
    shapes = {"empty"} if n == 0 else set()
    if isolated:
        shapes.add("isolated")
    if seed % 4 == 1 and n - len(isolated) >= 4:
        a, b, c, d = sorted(set(range(n)) - isolated, key=rank.__getitem__)[:4]
        edges += [(a, b), (a, c), (b, d), (c, d), (a, d)]
        shapes.add("diamond")
    if seed % 3 == 2 and edges:
        edges += rng.choices(edges, k=rng.randint(1, 3))
        shapes.add("duplicate")
    rng.shuffle(edges)
    for i, j in edges:
        tasks[i].precede(tasks[j])
    return hf, shapes


def networkx_redundant_edges(graph):
    """The oracle: the complement of networkx's transitive reduction."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    for n in graph.nodes:
        g.add_node(n.nid)
    for n in graph.nodes:
        for s in n.successors:
            g.add_edge(n.nid, s.nid)
    reduced = nx.transitive_reduction(g)
    return [(u, v) for u, v in g.edges if not reduced.has_edge(u, v)]


class TestRedundantEdgesDifferential:
    def test_matches_networkx_transitive_reduction(self):
        seen = {"redundant": 0}
        for seed in range(240):
            hf, shapes = random_dag(seed)
            got = [(u.nid, v.nid) for u, v in redundant_edges(hf)]
            assert got == networkx_redundant_edges(hf), f"seed={seed}"
            for shape in shapes:
                seen[shape] = seen.get(shape, 0) + 1
            seen["redundant"] += bool(got)
        assert set(seen) == {"empty", "isolated", "diamond", "duplicate", "redundant"}
        assert seen["diamond"] >= 20 and seen["duplicate"] >= 20, seen
