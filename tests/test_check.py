"""Tests for the repro.check schedule-validation subsystem itself."""

import numpy as np
import pytest

from repro.check import (
    AllocatorAuditor,
    generate_graph,
    run_determinism_check,
    run_mutant_selftest,
    validate_schedule,
)
from repro.check.mutants import ROUTES
from repro.check.stress import run_scenario
from repro.core import Executor, Heteroflow, TraceObserver
from repro.core.observer import TaskRecord
from repro.errors import ValidationError
from repro.gpu.buddy import BuddyAllocator


class TestGenerator:
    def test_same_seed_same_graph(self):
        a = generate_graph(7, num_gpus=2)
        b = generate_graph(7, num_gpus=2)
        assert [n.name for n in a.graph.nodes] == [n.name for n in b.graph.nodes]
        assert [c.ops for c in a.chains] == [c.ops for c in b.chains]
        assert all(
            np.array_equal(x.init, y.init) for x, y in zip(a.chains, b.chains)
        )

    def test_generated_graphs_are_valid_dags(self):
        for seed in range(10):
            gen = generate_graph(seed, num_gpus=2)
            gen.graph.validate()  # raises on cycles / empty payloads

    def test_mixes_all_task_types(self):
        gen = generate_graph(3, num_gpus=2)
        types = {n.type.value for n in gen.graph.nodes}
        assert {"host", "pull", "push", "kernel"} <= types

    def test_oracle_matches_real_run(self):
        gen = generate_graph(11, num_gpus=2)
        with Executor(2, 2) as ex:
            ex.run_n(gen.graph, 2).result(timeout=60)
        assert gen.verify(passes=2) == []

    def test_oracle_catches_wrong_results(self):
        gen = generate_graph(11, num_gpus=2)
        with Executor(2, 2) as ex:
            ex.run(gen.graph).result(timeout=60)
        gen.chains[0].array[:] += 1.0  # corrupt one chain's result
        problems = gen.verify(passes=1)
        assert any("chain 0" in p for p in problems)

    def _traced_run(self, gen):
        obs = TraceObserver()
        with Executor(2, 2, observers=[obs]) as ex:
            ex.run(gen.graph).result(timeout=60)
        return obs.records

    def test_run_check_flags_a_partial_trace_of_a_completed_run(self):
        gen = generate_graph(11, num_gpus=2)
        records = self._traced_run(gen)
        assert gen.check(records, passes=1, num_gpus=2, completed=True) == ([], len(records))
        partial = records[:-1]
        violations, num_records = gen.check(partial, passes=1, num_gpus=2, completed=True)
        assert num_records == len(partial)
        assert violations and all(v.startswith("[count]") for v in violations)
        assert gen.check(partial, passes=1, num_gpus=2, completed=False) == ([], len(partial))

    def test_run_check_flags_a_wrong_chain_result_of_a_completed_run(self):
        gen = generate_graph(11, num_gpus=2)
        records = self._traced_run(gen)
        gen.chains[0].array[:] += 1.0
        violations, _ = gen.check(records, passes=1, num_gpus=2, completed=True)
        assert [v for v in violations if v.startswith("chain 0")] == violations != []
        # the oracle judges completed runs only
        assert gen.check(records, passes=1, num_gpus=2, completed=False)[0] == []

    def test_reset_lets_the_oracle_judge_the_next_run_alone(self):
        gen = generate_graph(11, num_gpus=2)
        self._traced_run(gen)
        gen.reset()
        records = self._traced_run(gen)
        assert gen.check(records, passes=1, num_gpus=2, completed=True) == ([], len(records))

    def test_host_only_when_no_gpus(self):
        gen = generate_graph(5, num_gpus=0)
        assert all(n.type.value == "host" for n in gen.graph.nodes)


def _rec(name, nid, begin, end, *, type="host", device=None, stream=None,
         stream_seq=None, worker_id=0):
    return TaskRecord(
        name=name, type=type, worker_id=worker_id, device=device,
        begin=begin, end=end, nid=nid, stream=stream, stream_seq=stream_seq,
    )


class TestValidator:
    def _two_node_graph(self):
        hf = Heteroflow()
        a = hf.host(lambda: None, name="a")
        b = hf.host(lambda: None, name="b")
        a.precede(b)
        return hf, a.node, b.node

    def test_clean_trace_passes(self):
        hf, a, b = self._two_node_graph()
        records = [
            _rec("a", a.nid, 0.0, 1.0),
            _rec("b", b.nid, 1.5, 2.0),
        ]
        assert validate_schedule(hf, records, passes=1, num_gpus=0).ok

    def test_happens_before_violation(self):
        hf, a, b = self._two_node_graph()
        records = [
            _rec("a", a.nid, 0.0, 1.0),
            _rec("b", b.nid, 0.5, 2.0),  # began before predecessor ended
        ]
        report = validate_schedule(hf, records, passes=1, num_gpus=0)
        assert any(v.kind == "happens-before" for v in report.violations)
        with pytest.raises(ValidationError):
            report.raise_if_failed()

    def test_duplicate_run_violation(self):
        hf, a, b = self._two_node_graph()
        records = [
            _rec("a", a.nid, 0.0, 1.0),
            _rec("a", a.nid, 1.0, 1.2),  # ran twice in one pass
            _rec("b", b.nid, 2.0, 3.0),
        ]
        report = validate_schedule(hf, records, passes=1, num_gpus=0)
        assert any(v.kind == "count" for v in report.violations)

    def test_missing_run_violation_and_allow_partial(self):
        hf, a, b = self._two_node_graph()
        records = [_rec("a", a.nid, 0.0, 1.0)]
        strict = validate_schedule(hf, records, passes=1, num_gpus=0)
        assert any(v.kind == "count" for v in strict.violations)
        relaxed = validate_schedule(
            hf, records, passes=1, num_gpus=0, allow_partial=True
        )
        assert relaxed.ok

    def test_partial_never_excuses_orphan_successor(self):
        """Under allow_partial a successor record without a predecessor
        record is still a happens-before violation."""
        hf, a, b = self._two_node_graph()
        records = [_rec("b", b.nid, 0.0, 1.0)]  # b ran, a never did
        report = validate_schedule(
            hf, records, passes=1, num_gpus=0, allow_partial=True
        )
        assert any(v.kind == "happens-before" for v in report.violations)

    def test_stream_order_violation(self):
        hf = Heteroflow()
        data = np.zeros(4)
        p = hf.pull(data, name="p")
        q = hf.pull(data, name="q")
        records = [
            _rec("p", p.node.nid, 0.0, 3.0, type="pull", device=0,
                 stream=1, stream_seq=1),
            # seq 2 completed before seq 1: FIFO stream ran out of order
            _rec("q", q.node.nid, 1.0, 2.0, type="pull", device=0,
                 stream=1, stream_seq=2),
        ]
        report = validate_schedule(hf, records, passes=1, num_gpus=1)
        assert any(v.kind == "stream-order" for v in report.violations)

    def test_placement_group_split_violation(self):
        """A kernel on a different device than its source pull breaks
        the Algorithm-1 union-find grouping."""
        hf = Heteroflow()
        data = np.zeros(4)
        p = hf.pull(data, name="p")
        k = hf.kernel(lambda x: None, p, name="k")
        p.precede(k)
        records = [
            _rec("p", p.node.nid, 0.0, 1.0, type="pull", device=0,
                 stream=1, stream_seq=1),
            _rec("k", k.node.nid, 2.0, 3.0, type="kernel", device=1,
                 stream=2, stream_seq=1),
        ]
        report = validate_schedule(hf, records, passes=1, num_gpus=2)
        assert any(v.kind == "placement" for v in report.violations)

    def test_host_task_with_device_violation(self):
        hf = Heteroflow()
        a = hf.host(lambda: None, name="a")
        records = [_rec("a", a.node.nid, 0.0, 1.0, device=0)]
        report = validate_schedule(hf, records, passes=1, num_gpus=1)
        assert any(v.kind == "placement" for v in report.violations)

    def test_unknown_nid_violation(self):
        hf, a, b = self._two_node_graph()
        records = [
            _rec("a", a.nid, 0.0, 1.0),
            _rec("b", b.nid, 1.5, 2.0),
            _rec("ghost", 999_999_999, 0.0, 1.0),
        ]
        report = validate_schedule(hf, records, passes=1, num_gpus=0)
        assert any("unknown node" in v.message for v in report.violations)


class TestAuditor:
    def test_clean_lifecycle(self):
        a = BuddyAllocator(1 << 12, min_block=64)
        auditor = AllocatorAuditor()
        auditor.attach(a, label="pool")
        offs = [a.allocate(100) for _ in range(4)]
        for off in offs:
            a.free(off)
        report = auditor.finish()
        assert report.ok
        assert report.num_allocs == 4 and report.num_frees == 4
        assert report.peak_bytes["pool"] == 4 * 128
        assert a.trace_hook is None  # detached

    def test_leak_detected(self):
        a = BuddyAllocator(1 << 12, min_block=64)
        auditor = AllocatorAuditor()
        auditor.attach(a, label="pool")
        a.allocate(64)  # never freed
        report = auditor.finish()
        assert any("leaked" in v for v in report.violations)
        with pytest.raises(ValidationError):
            report.raise_if_failed()

    def test_overlap_and_alignment_detected_from_event_stream(self):
        """Drive the hook directly with corrupt events: the auditor
        must flag the overlap and the misalignment even though the
        allocator itself never produced them."""
        a = BuddyAllocator(1 << 12, min_block=64)
        auditor = AllocatorAuditor()
        auditor.attach(a, label="pool")
        hook = a.trace_hook
        hook("alloc", 0, 128, 100)
        hook("alloc", 64, 128, 100)  # overlaps [0,128) and misaligned
        hook("free", 0, 128, 128)
        hook("free", 64, 128, 128)
        hook("free", 64, 128, 128)  # double free
        report = auditor.finish()
        msgs = "\n".join(report.violations)
        assert "overlaps" in msgs
        assert "naturally" in msgs  # alignment violation
        assert "already-freed" in msgs

    def test_double_attach_rejected(self):
        a = BuddyAllocator(1 << 12, min_block=64)
        auditor = AllocatorAuditor()
        auditor.attach(a)
        with pytest.raises(ValidationError):
            AllocatorAuditor().attach(a)
        auditor.detach_all()

    def test_audits_real_executor_run(self):
        auditor = AllocatorAuditor()
        gen = generate_graph(4, num_gpus=2)
        with Executor(2, 2, observers=[]) as ex:
            auditor.attach_runtime(ex.gpu_runtime)
            ex.run(gen.graph).result(timeout=60)
        report = auditor.finish()
        assert report.ok
        assert report.num_pools == 2
        assert report.num_allocs == report.num_frees > 0


class TestMutantSelftest:
    def test_validator_catches_seeded_scheduler_bug(self):
        """The checker has teeth: a premature-dependency-release mutant
        is flagged while the reference executor passes — on the inline
        route, the _Attempt route and the token-free GPU route."""
        result = run_mutant_selftest(delay=0.2)
        assert result.caught
        assert set(ROUTES) == {"inline", "attempt", "gpu"}
        for route in ROUTES:
            kinds = {v.kind for v in result.reports[f"mutant/{route}"].violations}
            assert "happens-before" in kinds, route
            assert result.reports[f"reference/{route}"].ok, route
        # the runs really took the route they are named after
        assert result.fast_path == {
            "mutant/inline": 1, "reference/inline": 1,
            "mutant/attempt": 0, "reference/attempt": 0,
            "mutant/gpu": 0, "reference/gpu": 0,
        }
        # on the GPU route, stream callbacks launched the kernels
        assert result.continued["reference/gpu"] > 0
        assert result.continued["mutant/gpu"] > 0
        assert result.continued["reference/attempt"] == 0


class TestStressHarness:
    def test_small_sweep_is_clean(self, verify_run):
        code, doc = verify_run("stress")
        assert code == 0, doc["violations"]
        # one scenario per default config
        assert [s["kind"] for s in doc["scenarios"]] == ["1x1", "2x2", "4x2"]
        assert doc["totals"]["allocs"] == doc["totals"]["frees"] > 0

    def test_fault_injection_paths(self, verify_run):
        _code, doc = verify_run("stress")
        modes = {m for s in doc["scenarios"] for m in s["detail"]["modes"]}
        assert modes == {"normal", "fault", "retry", "cancel"}

    def test_two_workers_one_gpu(self):
        """The 2x1 shape, outside the suite's configs: seeds 0-2, the
        fault/retry/cancel modes on seed 0."""
        for seed in range(3):
            sc = run_scenario(seed, 2, 1, seed)
            assert sc.ok, sc.violations
            assert sc.kind == "2x1"
            assert len(sc.detail["modes"]) == (4 if seed == 0 else 1)

    def test_determinism_single_worker_host_only(self):
        """Same graph + seed on one worker yields the identical
        validated trace twice; see docs/testing.md for why this only
        holds for host-only graphs."""
        identical, order_a, order_b = run_determinism_check(seed=1, passes=2)
        assert identical, f"{order_a} != {order_b}"


class TestCli:
    def test_check_command_runs_selftest(self, capsys):
        from repro.cli import main

        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "caught" in out
        assert "check: OK" in out
