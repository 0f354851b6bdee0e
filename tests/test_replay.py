"""Freeze-and-replay: compiled topologies, the slot fast path, and the
differential harness (docs/runtime.md, "Freeze and replay").

Covers the frozen-graph surface end to end:

- ``Heteroflow.freeze()`` compilation (slot tables, fast-path
  eligibility, idempotence) and the frozen lint cache;
- structured :class:`~repro.errors.FrozenTopologyError` from **every**
  mutation entry point after freeze;
- replay execution equivalence — fast path, general path, bindings,
  multi-pass, ``run_until`` — against fresh-run behavior;
- drain/shutdown stranding guarantees for queued and in-flight replays;
- the fresh-vs-frozen differential property sweep
  (:mod:`repro.check.replay`): >=50 seeded scenarios, oracle-checked
  and validator-checked on both sides.
"""

import gc
import threading
import time
import weakref
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.harness import SUITES, run
from repro.check.validate import validate_schedule
from repro.core import Executor, FrozenTopology, Heteroflow, TraceObserver
from repro.core.placement import apply_assignment, snapshot_assignment
from repro.core.topology import Lowering
from repro.errors import (
    ExecutorError,
    FrozenTopologyError,
    GraphError,
)


def build_diamond(log):
    hf = Heteroflow("diamond")
    a = hf.host(lambda: log.append("a"), name="a")
    b = hf.host(lambda: log.append("b"), name="b")
    c = hf.host(lambda: log.append("c"), name="c")
    d = hf.host(lambda: log.append("d"), name="d")
    a.precede(b, c)
    d.succeed(b, c)
    return hf, (a, b, c, d)


def build_gpu_graph(data):
    hf = Heteroflow("gpu")
    pull = hf.pull(data, name="pull")
    kern = hf.kernel(lambda x: x.__iadd__(1.0), pull, name="kern").succeed(pull)
    push = hf.push(pull, data, name="push").succeed(kern)
    return hf, pull, kern, push


# ---------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------
class TestFreeze:
    def test_freeze_compiles_slot_tables(self):
        log = []
        hf, _ = build_diamond(log)
        frozen = hf.freeze()
        assert isinstance(frozen, FrozenTopology)
        assert len(frozen) == 4
        names = [n.name for n in frozen.nodes]
        assert names[0] == "a" and names[-1] == "d"
        # slot 0 (a) precedes b and c; join counters match dependents
        assert sorted(frozen.succ_slots[0]) == [1, 2]
        assert frozen.join_init == (0, 1, 1, 2)
        assert frozen.source_slots == (0,)
        assert frozen.fast_capable
        assert not frozen.has_gpu

    def test_one_sort_behind_order_validation_and_lowering(self):
        """topological_order(), validate() and the lowering a fresh
        submission or freeze() builds share one Kahn sort: identical
        order, and every validate() check still fires when lowering."""
        hf = Heteroflow("wide-diamond")
        a = hf.host(lambda: None, name="a")
        mids = [hf.host(lambda: None, name=f"m{i}") for i in range(5)]
        z = hf.host(lambda: None, name="z")
        a.precede(*mids)
        z.succeed(*mids)
        lowering = Lowering(hf)
        assert list(lowering.nodes) == hf.topological_order()
        assert hf.freeze().nodes == lowering.nodes
        assert lowering.join_init == (0, 1, 1, 1, 1, 1, 5)
        bad = Heteroflow("bad")
        bad.placeholder(name="p")
        with pytest.raises(GraphError, match="never assigned"):
            Lowering(bad)

    def test_freeze_idempotent_and_flag(self):
        hf, _ = build_diamond([])
        assert not hf.frozen
        frozen = hf.freeze()
        assert hf.freeze() is frozen
        assert hf.frozen

    def test_freeze_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            Heteroflow("e").freeze()

    def test_freeze_validates(self):
        hf = Heteroflow("bad")
        hf.placeholder(name="p")
        with pytest.raises(GraphError, match="never assigned"):
            hf.freeze()

    def test_gpu_graph_not_fast_capable(self):
        hf, *_ = build_gpu_graph(np.zeros(8))
        frozen = hf.freeze()
        assert frozen.has_gpu
        assert not frozen.fast_capable

    def test_per_task_resilience_disables_fast_path(self):
        hf = Heteroflow("r")
        hf.host(lambda: None).retry(max_attempts=2)
        assert not hf.freeze().fast_capable

    def test_footprint_cached(self):
        hf, *_ = build_gpu_graph(np.zeros(64))
        frozen = hf.freeze()
        fp = frozen.predicted_footprint()
        assert fp > 0
        assert frozen.predicted_footprint() == fp

    def test_lint_cached_on_freeze(self):
        log = []
        hf, _ = build_diamond(log)
        frozen = hf.freeze()
        r1 = frozen.lint()
        assert frozen.lint() is r1  # identical object, not a re-run
        assert hf.lint() is r1  # graph-level lint delegates to the cache
        r2 = frozen.lint(gpu_memory_bytes=1 << 20)
        assert r2 is not r1  # distinct keyword set -> distinct analysis
        assert frozen.lint(gpu_memory_bytes=1 << 20) is r2

    def test_executor_lint_uses_frozen_cache(self):
        hf, _ = build_diamond([])
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            assert ex.lint(frozen) is ex.lint(frozen)


# ---------------------------------------------------------------------
# mutation entry points raise FrozenTopologyError
# ---------------------------------------------------------------------
class TestFrozenMutations:
    @pytest.fixture()
    def frozen_gpu(self):
        data = np.zeros(8)
        hf, pull, kern, push = build_gpu_graph(data)
        extra = hf.host(lambda: None, name="h")
        extra.precede(pull)
        hf.freeze()
        return hf, pull, kern, push, extra

    def _raises(self, fn, operation):
        with pytest.raises(FrozenTopologyError) as err:
            fn()
        assert err.value.operation == operation
        assert "frozen" in str(err.value)

    def test_add_task(self, frozen_gpu):
        hf, *_ = frozen_gpu
        for add in (
            lambda: hf.host(lambda: None),
            lambda: hf.pull([1.0]),
            lambda: hf.kernel(lambda x: None),
            lambda: hf.placeholder(),
        ):
            self._raises(add, "add a task")

    def test_clear(self, frozen_gpu):
        hf, *_ = frozen_gpu
        self._raises(hf.clear, "clear")

    def test_dependency_edges(self, frozen_gpu):
        _, pull, kern, push, extra = frozen_gpu
        self._raises(lambda: extra.precede(push), "precede")
        self._raises(lambda: push.succeed(extra), "succeed")

    def test_rename(self, frozen_gpu):
        _, pull, *_ = frozen_gpu
        self._raises(lambda: pull.rename("x"), "rename")

    def test_resilience_config(self, frozen_gpu):
        _, _, kern, _, extra = frozen_gpu
        self._raises(lambda: extra.retry(max_attempts=2), "retry")
        self._raises(lambda: extra.timeout(1.0), "timeout")

    def test_work_rebinding(self, frozen_gpu):
        _, pull, kern, push, extra = frozen_gpu
        self._raises(lambda: extra.host(lambda: None), "host")
        self._raises(lambda: pull.pull([1.0]), "pull")
        self._raises(lambda: push.push(pull, [1.0]), "push")
        self._raises(lambda: kern.kernel(lambda x: None, pull), "kernel")

    def test_kernel_declarations(self, frozen_gpu):
        _, pull, kern, *_ = frozen_gpu
        self._raises(lambda: kern.reads(pull), "reads")
        self._raises(lambda: kern.writes(pull), "writes")
        self._raises(kern.host_fallback, "host_fallback")

    def test_launch_shape(self, frozen_gpu):
        _, _, kern, *_ = frozen_gpu
        self._raises(lambda: kern.grid(2), "grid")
        self._raises(lambda: kern.block(64), "block")
        self._raises(lambda: kern.shm(256), "shm")
        self._raises(lambda: kern.grid_x(2), "update the launch shape of")
        self._raises(lambda: kern.block_y(2), "update the launch shape of")

    def test_error_carries_target(self):
        hf = Heteroflow("named")
        t = hf.host(lambda: None, name="victim")
        hf.freeze()
        with pytest.raises(FrozenTopologyError) as err:
            t.rename("other")
        assert err.value.target == "victim"


# ---------------------------------------------------------------------
# replay execution
# ---------------------------------------------------------------------
class TestReplayExecution:
    def test_fast_path_runs_every_task_in_order(self):
        log = []
        hf, _ = build_diamond(log)
        frozen = hf.freeze()
        obs = TraceObserver()
        with Executor(2, 0, observers=[obs]) as ex:
            for _ in range(3):
                assert ex.run(frozen).result(timeout=30) == 1
        assert sorted(log) == sorted(["a", "b", "c", "d"] * 3)
        report = validate_schedule(hf, obs.records, passes=3, num_gpus=0)
        report.raise_if_failed()

    def test_run_n_and_run_until(self):
        count = []
        hf = Heteroflow("n")
        hf.host(lambda: count.append(1))
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            assert ex.run_n(frozen, 4).result(timeout=30) == 4
            assert (
                ex.run_until(frozen, lambda: len(count) >= 6).result(timeout=30)
                >= 2
            )
        assert len(count) >= 6

    def test_run_n_zero_resolves_immediately(self):
        hf = Heteroflow("z")
        hf.host(lambda: None)
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            assert ex.run_n(frozen, 0).result(timeout=30) == 0

    def test_gpu_replay_matches_fresh_arithmetic(self):
        fresh_data = np.full(16, 2.0)
        frozen_data = np.full(16, 2.0)
        fresh_hf, *_ = build_gpu_graph(fresh_data)
        frozen_hf, *_ = build_gpu_graph(frozen_data)
        frozen = frozen_hf.freeze()
        with Executor(2, 2) as ex:
            ex.run_n(fresh_hf, 3).result(timeout=30)
            for _ in range(3):
                ex.run(frozen).result(timeout=30)
        np.testing.assert_allclose(fresh_data, frozen_data)
        np.testing.assert_allclose(frozen_data, np.full(16, 5.0))

    def test_plan_cache_hit_and_miss_accounting(self):
        hf, *_ = build_gpu_graph(np.zeros(8))
        frozen = hf.freeze()
        with Executor(1, 2) as ex:
            for _ in range(4):
                ex.run(frozen).result(timeout=30)
            snap = ex.metrics.snapshot()
        assert snap["replay.cache_misses"] == 1
        assert snap["replay.cache_hits"] == 3

    def test_a_dropped_frozen_graph_frees_its_arrays(self):
        """The compiled plan lives on the frozen graph, so a graph the
        caller dropped is freed while the executor keeps serving; each
        worker may still hold the last run it executed."""
        ex = Executor(2, 1)
        try:
            arrays = []
            for _ in range(8):
                data = np.zeros(1024)
                arrays.append(weakref.ref(data))
                ex.run(build_gpu_graph(data)[0].freeze()).result(timeout=30)
                del data
            gc.collect()
            assert sum(a() is not None for a in arrays) <= 2
        finally:
            ex.shutdown()
        gc.collect()
        assert all(a() is None for a in arrays)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_no_run_outlives_its_future(self, workers):
        """Once a run's future resolved and the graph is dropped, the
        executor keeps nothing of it: no stream dispatcher holds its
        last op's body (the host array) or callback (the topology).
        Frozen pull -> kernel -> push graphs, then fresh host -> pull ->
        kernels -> push graphs, whose pulls the worker launches in place
        and whose kernels take over their predecessors' in-flight
        counts."""

        def fresh(data):
            hf = Heteroflow("host-gpu")
            fill = hf.host(lambda: data.fill(1.0), name="fill")
            prev = pull = hf.pull(data, name="pull").succeed(fill)
            for i in range(3):
                prev = hf.kernel(lambda x: x.__iadd__(1.0), pull, name=f"k{i}").succeed(prev)
            hf.push(pull, data, name="push").succeed(prev)
            return hf

        ex = Executor(workers, 1)
        try:
            for build in (lambda d: build_gpu_graph(d)[0].freeze(), fresh):
                arrays = []
                for _ in range(10):
                    data = np.zeros(1024)
                    arrays.append(weakref.ref(data))
                    ex.run(build(data)).result(timeout=30)
                    del data
                # the last stream callback resolves the future before it
                # returns: give its dispatcher a moment to move past it
                deadline = time.monotonic() + 2.0
                while True:
                    gc.collect()
                    alive = [a() is not None for a in arrays]
                    if not any(alive) or time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
                assert alive == [False] * 10
            assert sum(ex.metrics.snapshot()["executor.inplace_launches"]) == 10
        finally:
            ex.shutdown()

    def test_fast_path_task_failure_propagates(self):
        hf = Heteroflow("boom")
        a = hf.host(lambda: None, name="ok")
        boom = hf.host(lambda: 1 / 0, name="boom")
        a.precede(boom)
        frozen = hf.freeze()
        with Executor(2, 0) as ex:
            with pytest.raises(ZeroDivisionError):
                ex.run(frozen).result(timeout=30)
            # the frozen graph stays usable after a failed replay
            with pytest.raises(ZeroDivisionError):
                ex.run(frozen).result(timeout=30)

    def test_replay_cancellation(self):
        gate = threading.Event()
        hf = Heteroflow("gated")
        first = hf.host(gate.wait, name="gate")
        hf.host(lambda: None, name="after").succeed(first)
        frozen = hf.freeze()
        with Executor(2, 0) as ex:
            fut = ex.run(frozen)
            assert ex.cancel(fut)
            gate.set()
            with pytest.raises(CancelledError):
                fut.result(timeout=30)
            # cancelled replay leaves the compiled state reusable
            assert ex.run(frozen).result(timeout=30) == 1


class TestBindings:
    def test_bindings_swap_host_callable_per_submission(self):
        log = []
        hf, _ = build_diamond(log)
        frozen = hf.freeze()
        with Executor(2, 0) as ex:
            ex.run(frozen, bindings={"b": lambda: log.append("B!")}).result(
                timeout=30
            )
            ex.run(frozen).result(timeout=30)
        assert log.count("B!") == 1
        assert log.count("b") == 1  # original callable untouched
        assert log.count("a") == 2

    def test_bindings_on_general_path(self):
        # GPU graph -> general (non-fast) frozen path; host override
        # must still apply through the per-submission table
        data = np.zeros(8)
        hf, pull, *_ = build_gpu_graph(data)
        seen = []
        hf.host(lambda: seen.append("orig"), name="h").precede(pull)
        frozen = hf.freeze()
        with Executor(2, 1) as ex:
            ex.run(frozen, bindings={"h": lambda: seen.append("bound")}).result(
                timeout=30
            )
        assert seen == ["bound"]

    def test_bindings_unknown_name_rejected(self):
        hf, _ = build_diamond([])
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            with pytest.raises(GraphError, match="no host task named"):
                ex.run(frozen, bindings={"nope": lambda: None})

    def test_bindings_ambiguous_name_rejected(self):
        hf = Heteroflow("dup")
        hf.host(lambda: None, name="twin")
        hf.host(lambda: None, name="twin")
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            with pytest.raises(GraphError, match="ambiguous"):
                ex.run(frozen, bindings={"twin": lambda: None})

    def test_bindings_require_callable(self):
        hf, _ = build_diamond([])
        frozen = hf.freeze()
        with Executor(1, 0) as ex:
            with pytest.raises(GraphError, match="not callable"):
                ex.run(frozen, bindings={"a": 42})

    def test_bindings_require_frozen_graph(self):
        hf, _ = build_diamond([])
        with Executor(1, 0) as ex:
            with pytest.raises(ExecutorError, match="requires a FrozenTopology"):
                ex.run(hf, bindings={"a": lambda: None})


# ---------------------------------------------------------------------
# drain / shutdown stranding guarantees (regression)
# ---------------------------------------------------------------------
class TestReplayStranding:
    def _gated_frozen(self):
        gate = threading.Event()
        hf = Heteroflow("strand")
        first = hf.host(gate.wait, name="gate")
        for i in range(4):
            hf.host(lambda: None, name=f"t{i}").succeed(first)
        return hf.freeze(), gate

    def test_shutdown_no_wait_resolves_every_replay_future(self):
        frozen, gate = self._gated_frozen()
        ex = Executor(2, 0)
        futures = [ex.run(frozen) for _ in range(5)]
        gate.set()
        ex.shutdown(wait=False)
        for fut in futures:
            assert fut.done()
            # each future either completed a pass or was cancelled at
            # teardown — never stranded unresolved
            try:
                assert fut.result(timeout=0) == 1
            except CancelledError:
                pass

    def test_drain_settles_queued_replays(self):
        frozen, gate = self._gated_frozen()
        ex = Executor(2, 0)
        try:
            futures = [ex.run(frozen) for _ in range(4)]
            gate.set()
            assert ex.drain(timeout=30.0)
            for fut in futures:
                assert fut.done()
                assert fut.result(timeout=0) == 1
            with pytest.raises(ExecutorError, match="draining"):
                ex.run(frozen)
        finally:
            ex.shutdown()

    def test_shutdown_cancels_gate_blocked_replay(self):
        frozen, gate = self._gated_frozen()
        ex = Executor(2, 0)
        futures = [ex.run(frozen) for _ in range(3)]
        # gate never set before shutdown: the started replay is blocked
        # mid-task and the rest are queued; nothing may strand
        t = threading.Timer(0.2, gate.set)
        t.start()
        try:
            ex.shutdown(wait=False)
        finally:
            t.join()
        for fut in futures:
            assert fut.done()


# ---------------------------------------------------------------------
# placement snapshot helpers
# ---------------------------------------------------------------------
class TestPlacementSnapshot:
    def test_snapshot_and_reapply(self):
        data = np.zeros(8)
        hf, pull, kern, push = build_gpu_graph(data)
        frozen = hf.freeze()
        with Executor(1, 2) as ex:
            ex.run(frozen).result(timeout=30)
            pairs = snapshot_assignment(hf.nodes)
            assert {n.type.value for n, _ in pairs} == {"pull", "kernel", "push"}
            assert all(d is not None for _, d in pairs)
            # clobber the assignment, then restore it from the snapshot
            for n, _ in pairs:
                n.device = 99
            apply_assignment(pairs)
            assert [n.device for n, _ in pairs] == [d for _, d in pairs]
            ex.run(frozen).result(timeout=30)


# ---------------------------------------------------------------------
# differential property sweep (>=50 seeded scenarios)
# ---------------------------------------------------------------------
class TestDifferentialSweep:
    def test_fifty_plus_seeded_scenarios_agree(self):
        """Every seeded topology runs fresh and frozen-replayed; both
        trace streams validate, both match the host-replay oracle, and
        the two sides' terminal states are bitwise-compatible —
        including cancellation, deadline firing, and device fault
        injection through the replay path."""
        report = run("replay")
        assert len(report.scenarios) >= 50
        modes = {sc.kind for sc in report.scenarios}
        assert modes == {"normal", "cancel", "deadline", "fault"}
        assert any(sc.detail["fast"] for sc in report.scenarios)  # slot fast path hit
        assert any(sc.detail["gpus"] > 0 for sc in report.scenarios)  # general path hit
        assert report.ok, "\n".join(report.violations)

    def test_report_dict_schema(self, verify_run):
        code, doc = verify_run("replay")
        assert code == 0, doc["violations"]
        for scenario in doc["scenarios"]:
            assert scenario["kind"] == "normal"
            counts = scenario["counts"]
            assert counts["records_fresh"] == counts["records_frozen"] > 0

    def test_configs_cover_fast_and_general_paths(self):
        configs = SUITES["replay"].params["configs"]
        assert (2, 0) in configs
        assert any(g > 0 for _, g in configs)
