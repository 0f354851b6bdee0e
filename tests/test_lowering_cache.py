"""The fresh-submission lowering cache (docs/runtime.md, "Submission
pipeline").

An unchanged graph submitted fresh reuses its last :class:`Lowering`
and the lowering's Algorithm-1 union-find groups; any graph mutation
moves the structure version and forces a new lowering, and bin packing
still runs on every submission.  Each behaviour test below fails if the
cache ignores the mutation it makes.
"""

import time

import numpy as np
import pytest

from repro import Executor, Heteroflow
from repro.core.node import structure_version
from repro.core.task import HostTask
from repro.errors import GraphError, TaskFailedError

_T = 30


def _counts(ex):
    snap = ex.metrics.snapshot()
    return snap["executor.lowering_builds"], snap["executor.lowering_reuses"]


def _noop(*_):
    pass


class TestReuse:
    def test_unchanged_graph_builds_once(self):
        hf = Heteroflow()
        log = []
        a = hf.host(lambda: log.append("a"))
        b = hf.host(lambda: log.append("b"))
        a.precede(b)
        runs = 6
        with Executor(1) as ex:
            for _ in range(runs):
                ex.run(hf).result(timeout=_T)
            assert _counts(ex) == (1, runs - 1)
        assert log == ["a", "b"] * runs

    def test_gpu_graph_reuses_lowering_and_groups(self):
        hf = Heteroflow()
        data = np.zeros(8)
        p = hf.pull(data)
        k = hf.kernel(lambda v: v.__iadd__(1.0), p)
        q = hf.push(p, data)
        p.precede(k)
        k.precede(q)
        with Executor(1, 2) as ex:
            for _ in range(3):
                ex.run(hf).result(timeout=_T)
            assert _counts(ex) == (1, 2)
        _, lowering = hf._lowered
        assert lowering._groups is not None  # packed from the cache
        np.testing.assert_array_equal(data, np.full(8, 3.0))

    def test_concurrent_submissions_share_one_lowering(self):
        hf = Heteroflow()
        hf.host(_noop)
        with Executor(2) as ex:
            futures = [ex.run(hf) for _ in range(20)]
            for f in futures:
                assert f.result(timeout=_T) == 1
            assert _counts(ex) == (1, 19)

    def test_frozen_submissions_do_not_count(self):
        hf = Heteroflow()
        hf.host(_noop)
        frozen = hf.freeze()
        with Executor(1) as ex:
            ex.run(frozen).result(timeout=_T)
            assert _counts(ex) == (0, 0)


class TestMutationsBumpTheVersion:
    """Every mutator moves the structure version after it ran."""

    def _bumps(self, fn):
        before = structure_version()
        fn()
        return structure_version() > before

    def test_graph_and_task_mutators(self):
        hf = Heteroflow()
        h = hf.host(_noop)
        g = hf.host(_noop)
        p = hf.pull(np.zeros(4))
        q = hf.pull(np.zeros(4))
        k = hf.kernel(_noop, p, q)
        push = hf.push(p, np.zeros(4))
        ph = hf.placeholder(HostTask)
        mutators = [
            lambda: hf.host(_noop),
            lambda: h.precede(g),
            lambda: g.succeed(ph),
            lambda: h.rename("renamed"),
            lambda: h.retry(max_attempts=2),
            lambda: h.timeout(1.0),
            lambda: h.host(lambda: None),
            lambda: ph.host(_noop),
            lambda: p.pull(np.zeros(8)),
            lambda: push.push(q, np.zeros(4)),
            lambda: k.kernel(_noop, p),
            lambda: k.reads(p),
            lambda: k.writes(p),
            lambda: k.host_fallback(),
            lambda: k.grid_x(2),
            lambda: k.block_y(2),
            lambda: k.shm(16),
            lambda: k.grid(2, 2),
            lambda: k.block(4),
            hf.clear,
        ]
        for m in mutators:
            assert self._bumps(m)

    def test_node_precede_bumps(self):
        hf = Heteroflow()
        a, b = hf.host(_noop), hf.host(_noop)
        assert self._bumps(lambda: a.node.precede(b.node))

    def test_failed_mutation_still_bumps(self):
        hf = Heteroflow()
        k = hf.kernel(_noop)
        other = hf.pull([1])
        before = structure_version()
        with pytest.raises(GraphError):
            k.reads(other)  # not among the kernel's arguments
        assert structure_version() > before

    def test_reads_do_not_bump(self):
        hf = Heteroflow()
        h = hf.host(_noop)
        before = structure_version()
        _ = (h.name, h.type, h.num_successors, hf.nodes, hf.num_nodes)
        hf.validate()
        assert structure_version() == before


class TestMutationsReachTheNextRun:
    """After a run, each mutation yields a new lowering the next run
    obeys (one worker and host-only graphs make the order exact)."""

    def test_new_edge(self):
        hf = Heteroflow()
        log = []
        tasks = {n: hf.host(lambda n=n: log.append(n), name=n) for n in "ab"}
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            first, second = log
            tasks[second].precede(tasks[first])
            log.clear()
            ex.run(hf).result(timeout=_T)
            assert log == [second, first]
            assert _counts(ex) == (2, 0)

    def test_new_task(self):
        hf = Heteroflow()
        log = []
        hf.host(lambda: log.append("a"))
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            hf.host(lambda: log.append("b"))
            ex.run(hf).result(timeout=_T)
        assert sorted(log) == ["a", "a", "b"]

    def test_placeholder_bound_to_work(self):
        hf = Heteroflow()
        log = []
        a = hf.host(lambda: log.append("a"))
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            ph = hf.placeholder(HostTask)
            a.precede(ph)
            ph.host(lambda: log.append("late"))
            ex.run(hf).result(timeout=_T)
        assert log == ["a", "a", "late"]

    def test_rebound_host_callable(self):
        hf = Heteroflow()
        log = []
        t = hf.host(lambda: log.append("old"))
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            t.host(lambda: log.append("new"))
            ex.run(hf).result(timeout=_T)
        assert log == ["old", "new"]

    def test_retry_on_a_task(self):
        """A host-only graph runs inline, where a failure is final; the
        retry added after the first run must move it to the retrying
        route."""
        hf = Heteroflow()
        state = {"fail": 0, "calls": 0}

        def flaky():
            state["calls"] += 1
            if state["fail"]:
                state["fail"] -= 1
                raise ValueError("transient")

        t = hf.host(flaky)
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            state["fail"] = 1
            t.retry(max_attempts=2, base_delay=0.0)
            assert ex.run(hf).result(timeout=_T) == 1
        assert state["calls"] == 3

    def test_timeout_on_a_task(self):
        hf = Heteroflow()
        t = hf.host(lambda: time.sleep(0.05))
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            t.timeout(0.001)
            with pytest.raises(TaskFailedError):
                ex.run(hf).result(timeout=_T)

    def test_clear(self):
        hf = Heteroflow()
        log = []
        hf.host(lambda: log.append("old"))
        with Executor(1) as ex:
            ex.run(hf).result(timeout=_T)
            hf.clear()
            assert ex.run(hf).result(timeout=_T) == 0
            hf.host(lambda: log.append("new"))
            ex.run(hf).result(timeout=_T)
        assert log == ["old", "new"]


class TestPackingStaysFresh:
    """The cached groups are packed afresh on every submission."""

    @staticmethod
    def _two_groups():
        hf = Heteroflow()
        sizes = {"a": 4, "b": 64}
        pulls = {}
        for name in "ab":
            p = hf.pull(lambda name=name: np.zeros(sizes[name]), name=f"p{name}")
            k = hf.kernel(_noop, p, name=f"k{name}")
            p.precede(k)
            pulls[name] = p
        return hf, sizes, pulls

    def test_resized_pull_span_moves_placement(self):
        hf, sizes, pulls = self._two_groups()
        with Executor(1, 2) as ex:
            ex.run(hf).result(timeout=_T)
            # heaviest group packs first, onto GPU 0
            assert (pulls["b"].device, pulls["a"].device) == (0, 1)
            sizes["a"] = 1024
            ex.run(hf).result(timeout=_T)
            assert (pulls["a"].device, pulls["b"].device) == (0, 1)
            assert _counts(ex) == (1, 1)

    def test_custom_cost_metric_inputs_move_placement(self):
        hf, _, pulls = self._two_groups()
        weight = {"pa": 1.0, "pb": 2.0}

        def metric(group):
            return sum(weight.get(n.name, 0.0) for n in group)

        with Executor(1, 2, cost_metric=metric) as ex:
            ex.run(hf).result(timeout=_T)
            assert (pulls["b"].device, pulls["a"].device) == (0, 1)
            weight["pa"] = 3.0
            ex.run(hf).result(timeout=_T)
            assert (pulls["a"].device, pulls["b"].device) == (0, 1)
            assert _counts(ex) == (1, 1)

    def test_device_death_between_runs_repacks_onto_survivors(self):
        hf = Heteroflow()
        arrays = [np.zeros(16) for _ in range(4)]
        pulls = []
        for a in arrays:
            p = hf.pull(a)
            k = hf.kernel(lambda v: v.__iadd__(1.0), p)
            q = hf.push(p, a)
            p.precede(k)
            k.precede(q)
            pulls.append(p)
        with Executor(1, 2) as ex:
            ex.run(hf).result(timeout=_T)
            assert {p.device for p in pulls} == {0, 1}
            # the next run discovers the death and recovers
            ex.gpu_runtime.device(1).fail()
            ex.run(hf).result(timeout=_T)
            assert ex.alive_gpus == [0]
            replayed = ex.metrics.snapshot()["resilience.replayed_tasks"]
            # the run after that is packed onto the survivor up front
            ex.run(hf).result(timeout=_T)
            snap = ex.metrics.snapshot()
            assert {p.device for p in pulls} == {0}
            assert snap["resilience.replayed_tasks"] == replayed
            assert snap["resilience.device_failures"] == 1
            assert _counts(ex) == (1, 2)
        for a in arrays:
            np.testing.assert_array_equal(a, np.full(16, 3.0))
