"""Tests for the overload-protection layer (repro.service).

Bounded admission under the three policies, priorities, deadlines,
graceful drain, the shutdown(wait=False) stranding regression, the
cancel/start interleaving race, and a multi-tenant sweep cross-checked
by the schedule validator.
"""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.check.generator import generate_graph
from repro.check.validate import validate_schedule
from repro.core import Executor, Heteroflow, TraceObserver
from repro.core.wsq import PriorityOverflowQueue
from repro.errors import AdmissionRejectedError, ExecutorError
from repro.resilience import RetryPolicy
from repro.service import AdmissionController, predicted_footprint_bytes


def _quick_graph(out=None, token=None):
    hf = Heteroflow()
    if out is None:
        hf.host(lambda: None)
    else:
        hf.host(lambda: out.append(token))
    return hf


def _gated_graph(gate, started=None, wait=30.0):
    """One host task that blocks on *gate* (sets *started* first)."""
    hf = Heteroflow()

    def body():
        if started is not None:
            started.set()
        gate.wait(wait)

    hf.host(body)
    return hf


class TestAdmissionController:
    def test_topology_ledger(self):
        ctrl = AdmissionController(max_topologies=2, policy="reject")
        assert ctrl.try_acquire(0)
        assert ctrl.try_acquire(0)
        assert not ctrl.try_acquire(0)
        assert ctrl.saturated
        assert ctrl.in_use_topologies == 2
        ctrl.release(0)
        assert ctrl.try_acquire(0)

    def test_footprint_ledger(self):
        ctrl = AdmissionController(max_footprint_bytes=1000, policy="reject")
        assert ctrl.try_acquire(600)
        assert not ctrl.try_acquire(600)
        assert ctrl.in_use_bytes == 600
        ctrl.release(600)
        assert ctrl.try_acquire(600)

    def test_would_ever_fit(self):
        ctrl = AdmissionController(max_footprint_bytes=100)
        assert ctrl.would_ever_fit(100)
        assert not ctrl.would_ever_fit(101)
        unbounded = AdmissionController(max_topologies=1)
        assert unbounded.would_ever_fit(1 << 40)

    def test_block_timeout_raises(self):
        ctrl = AdmissionController(
            max_topologies=1, policy="block", block_timeout=0.05
        )
        assert ctrl.try_acquire(0)
        with pytest.raises(AdmissionRejectedError) as ei:
            ctrl.acquire(0)
        assert ei.value.reason == "timeout"

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            AdmissionController(max_topologies=1, policy="nope")

    def test_blocked_waiters_served_by_priority(self):
        ctrl = AdmissionController(max_topologies=1, policy="block")
        assert ctrl.try_acquire(0)
        order = []
        ready = threading.Barrier(3)

        def waiter(pri):
            ready.wait(5)
            ctrl.acquire(0, priority=pri)
            order.append(pri)
            ctrl.release(0)

        low = threading.Thread(target=waiter, args=(1,))
        high = threading.Thread(target=waiter, args=(9,))
        low.start()
        high.start()
        ready.wait(5)
        deadline = time.monotonic() + 5
        while ctrl.waiting < 2 and time.monotonic() < deadline:
            time.sleep(0.002)
        assert ctrl.waiting == 2
        ctrl.release(0)
        low.join(5)
        high.join(5)
        assert order == [9, 1]

    def test_rejection_is_structured(self):
        ctrl = AdmissionController(
            max_topologies=3, max_footprint_bytes=512, policy="reject"
        )
        assert ctrl.try_acquire(100)
        err = ctrl.rejection("capacity", priority=2, footprint_bytes=400)
        assert err.reason == "capacity"
        assert err.policy == "reject"
        assert err.priority == 2
        assert err.footprint_bytes == 400
        assert err.in_use_topologies == 1
        assert err.in_use_bytes == 100
        assert isinstance(err, ExecutorError)


class TestBoundedAdmission:
    def test_reject_policy_at_capacity(self):
        ctrl = AdmissionController(max_topologies=1, policy="reject")
        gate = threading.Event()
        started = threading.Event()
        with Executor(2, 0, admission=ctrl) as ex:
            fut = ex.run(_gated_graph(gate, started))
            assert started.wait(10)
            with pytest.raises(AdmissionRejectedError) as ei:
                ex.run(_quick_graph())
            assert ei.value.reason == "capacity"
            gate.set()
            fut.result(timeout=30)
            # capacity returned: the next submission is admitted
            ex.run(_quick_graph()).result(timeout=10)
            snap = ex.metrics.snapshot()
            assert snap["service.admitted"] == 2
            assert snap["service.rejected"] == 1

    def test_block_policy_waits_for_capacity(self):
        ctrl = AdmissionController(max_topologies=1, policy="block")
        gate = threading.Event()
        started = threading.Event()
        out = []
        with Executor(2, 0, admission=ctrl) as ex:
            ex.run(_gated_graph(gate, started))
            assert started.wait(10)
            futs = []

            def submit():
                futs.append(ex.run(_quick_graph(out, "late")))

            t = threading.Thread(target=submit)
            t.start()
            deadline = time.monotonic() + 10
            while ctrl.waiting < 1 and time.monotonic() < deadline:
                time.sleep(0.002)
            assert ctrl.waiting == 1
            gate.set()
            t.join(10)
            futs[0].result(timeout=30)
            assert out == ["late"]
            snap = ex.metrics.snapshot()
            assert snap["service.admission_blocked"] == 1
            assert snap["service.admission_wait_seconds"]["count"] == 2

    def test_block_timeout_rejects_submission(self):
        ctrl = AdmissionController(
            max_topologies=1, policy="block", block_timeout=0.05
        )
        gate = threading.Event()
        started = threading.Event()
        with Executor(2, 0, admission=ctrl) as ex:
            ex.run(_gated_graph(gate, started))
            assert started.wait(10)
            with pytest.raises(AdmissionRejectedError) as ei:
                ex.run(_quick_graph())
            assert ei.value.reason == "timeout"
            gate.set()
            assert ex.metrics.snapshot()["service.rejected"] == 1

    def test_never_fits_rejected_under_every_policy(self):
        hf = Heteroflow()
        hf.pull(np.zeros(1 << 12))
        assert predicted_footprint_bytes(hf) > 64
        for policy in ("block", "reject", "shed"):
            ctrl = AdmissionController(
                max_footprint_bytes=64, policy=policy
            )
            with Executor(2, 1, admission=ctrl) as ex:
                with pytest.raises(AdmissionRejectedError) as ei:
                    ex.run(hf)
                assert ei.value.reason == "never_fits"
                assert ctrl.in_use_bytes == 0

    def test_footprint_capacity_uses_static_model(self):
        """max_footprint_bytes gates on the hflint HF020 prediction."""
        gate = threading.Event()
        started = threading.Event()
        hf = Heteroflow()
        p = hf.pull(np.zeros(1 << 10))

        def body():
            started.set()
            gate.wait(30)

        hf.host(body).succeed(p)
        fp = predicted_footprint_bytes(hf)
        assert fp >= 1 << 13  # float64 payload, buddy-rounded
        ctrl = AdmissionController(max_footprint_bytes=fp, policy="reject")
        with Executor(2, 1, admission=ctrl) as ex:
            fut = ex.run(hf)
            assert started.wait(10)
            assert ctrl.in_use_bytes == fp
            # an identical graph would double the footprint: rejected,
            # but not "never_fits" -- it fits once the first finishes
            hf2 = Heteroflow()
            hf2.pull(np.zeros(1 << 10))
            with pytest.raises(AdmissionRejectedError) as ei:
                ex.run(hf2)
            assert ei.value.reason == "capacity"
            gate.set()
            fut.result(timeout=30)
            ex.run(hf2).result(timeout=30)
            assert ctrl.in_use_bytes == 0


class TestShedding:
    def test_sheds_lowest_priority_queued_topology(self):
        ctrl = AdmissionController(max_topologies=2, policy="shed")
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        with Executor(2, 0, admission=ctrl) as ex:
            running = ex.run(g)  # starts, holds the gate
            assert started.wait(10)
            victim = ex.run(g, priority=0)  # queued behind it
            evictor = ex.run(g, priority=5)  # at capacity: sheds victim
            with pytest.raises(AdmissionRejectedError) as ei:
                victim.result(timeout=10)
            assert ei.value.reason == "shed"
            gate.set()
            running.result(timeout=30)
            evictor.result(timeout=30)
            snap = ex.metrics.snapshot()
            assert snap["service.shed"] == 1
            assert snap["service.admitted"] == 3

    def test_never_sheds_started_or_higher_priority(self):
        ctrl = AdmissionController(max_topologies=2, policy="shed")
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        with Executor(2, 0, admission=ctrl) as ex:
            running = ex.run(g, priority=0)  # started: untouchable
            assert started.wait(10)
            queued = ex.run(g, priority=5)
            # nothing queued below priority 1 -> shed degrades to reject
            with pytest.raises(AdmissionRejectedError) as ei:
                ex.run(g, priority=1)
            assert ei.value.reason == "capacity"
            gate.set()
            running.result(timeout=30)
            queued.result(timeout=30)
            assert ex.metrics.snapshot()["service.shed"] == 0


class TestDeadlines:
    def test_queued_deadline_cancels_immediately(self):
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        with Executor(2, 0) as ex:
            front = ex.run(g)
            assert started.wait(10)
            late = ex.run(g, deadline=0.05)
            topo = ex._futures[late]
            with pytest.raises(CancelledError):
                late.result(timeout=10)  # fires while still queued
            assert any(
                e["kind"] == "deadline_exceeded" and not e["started"]
                for e in topo.events
            )
            gate.set()
            front.result(timeout=30)
            assert ex.metrics.snapshot()["service.deadline_exceeded"] == 1

    def test_started_deadline_flushes_remaining_tasks(self):
        gate = threading.Event()
        hf = Heteroflow()
        ran = []
        a = hf.host(lambda: gate.wait(30))
        b = hf.host(lambda: ran.append("b"))
        a.precede(b)
        with Executor(2, 0) as ex:
            fut = ex.run(hf, deadline=0.05)
            topo = ex._futures[fut]
            time.sleep(0.2)
            gate.set()
            with pytest.raises(CancelledError):
                fut.result(timeout=30)
            assert ran == []  # successor flushed unrun
            assert any(
                e["kind"] == "deadline_exceeded" and e["started"]
                for e in topo.events
            )

    def test_generous_deadline_is_disarmed(self):
        with Executor(2, 0) as ex:
            ex.run(_quick_graph(), deadline=60.0).result(timeout=10)
            ex.wait_for_all()
            assert ex.metrics.snapshot()["service.deadline_exceeded"] == 0

    def test_invalid_deadline(self):
        with Executor(2, 0) as ex:
            with pytest.raises(ExecutorError):
                ex.run(_quick_graph(), deadline=0.0)
            with pytest.raises(ExecutorError):
                ex.run_n(_quick_graph(), 2, deadline=-1.0)


class TestPriorities:
    def test_priority_queue_orders_cross_graph_dispatch(self):
        q = PriorityOverflowQueue()
        q.push("low", 0)
        q.push("hi-a", 5)
        q.push("mid", 3)
        q.push("hi-b", 5)
        assert len(q) == 4
        # highest first, FIFO within a priority
        assert [q.steal() for _ in range(4)] == ["hi-a", "hi-b", "mid", "low"]
        assert q.empty
        assert q.steal() is None
        assert q.high_water == 4

    def test_graph_fifo_orders_by_priority_behind_front(self):
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        done = []
        with Executor(2, 0) as ex:
            front = ex.run(g)
            assert started.wait(10)
            futs = {}
            for pri in (1, 3, 2):
                futs[pri] = ex.run(g, priority=pri)
                futs[pri].add_done_callback(
                    lambda f, p=pri: done.append(p)
                )
            with ex._graph_lock:
                queue = list(ex._graph_queues[id(g)])
                queued = [t.priority for t in queue[1:]]
            assert queued == [3, 2, 1]
            gate.set()
            front.result(timeout=30)
            for f in futs.values():
                f.result(timeout=30)
            assert done == [3, 2, 1]


class TestDrain:
    def test_clean_drain_then_refuses_submissions(self):
        with Executor(2, 0) as ex:
            futs = [ex.run(_quick_graph()) for _ in range(4)]
            assert ex.drain(timeout=30) is True
            assert ex.draining
            for f in futs:
                f.result(timeout=10)
            with pytest.raises(ExecutorError):
                ex.run(_quick_graph())
            assert ex.metrics.snapshot()["service.drain_cancelled"] == 0

    def test_drain_timeout_cancels_stragglers(self):
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        with Executor(2, 0) as ex:
            running = ex.run(g)
            assert started.wait(10)
            queued = ex.run(g)
            threading.Timer(0.3, gate.set).start()
            assert ex.drain(timeout=0.05, cancel_grace=30) is False
            # the queued sibling never ran; the started one was
            # cancelled and settled once its gated body returned
            with pytest.raises(CancelledError):
                queued.result(timeout=10)
            with pytest.raises(CancelledError):
                running.result(timeout=10)
            assert ex.metrics.snapshot()["service.drain_cancelled"] == 2

    def test_shutdown_drain_timeout(self):
        gate = threading.Event()
        started = threading.Event()
        ex = Executor(2, 0)
        fut = ex.run(_gated_graph(gate, started))
        assert started.wait(10)
        threading.Timer(0.3, gate.set).start()
        ex.shutdown(drain_timeout=0.05)
        with pytest.raises(CancelledError):
            fut.result(timeout=10)
        with pytest.raises(ExecutorError):
            ex.run(_quick_graph())


class TestShutdownStranding:
    def test_unwaited_shutdown_resolves_queued_siblings(self):
        """shutdown(wait=False) must resolve every outstanding future,
        including queued topologies that never started."""
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started, wait=10.0)
        ex = Executor(2, 0)
        running = ex.run(g)
        assert started.wait(10)
        queued = ex.run(g)
        threading.Timer(0.2, gate.set).start()
        ex.shutdown(wait=False)
        # the running one may have finished its pass before teardown;
        # either way both futures must be resolved, not stranded
        for fut in (running, queued):
            assert fut.done()
            try:
                fut.result(timeout=5)
            except CancelledError:
                pass
        assert not ex._futures and not ex._graph_queues

    def test_unwaited_shutdown_resolves_parked_retry(self):
        """Regression: a topology parked on a delayed retry sits on the
        timer wheel, not in any queue; shutdown(wait=False) used to
        strand its future forever."""
        hf = Heteroflow()
        hf.host(lambda: 1 / 0)
        policy = RetryPolicy(max_attempts=3, base_delay=30.0, jitter=0.0)
        ex = Executor(2, 0)
        fut = ex.run(hf, policy=policy)
        deadline = time.monotonic() + 10
        while (
            ex.metrics.snapshot()["resilience.retries"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert ex.metrics.snapshot()["resilience.retries"] >= 1
        ex.shutdown(wait=False)
        with pytest.raises(CancelledError):
            fut.result(timeout=5)  # resolves now, not in 30s


class TestCancelInterleaving:
    def test_cancel_race_leaves_no_stale_queue_entries(self):
        """Hammer cancel against start/finalize: whatever interleaving
        wins, every future resolves and the FIFO map ends empty."""
        with Executor(4, 0) as ex:
            futs = []
            for i in range(60):
                hf = Heteroflow()
                hf.host(lambda: time.sleep(0.0005))
                first = ex.run(hf)
                second = ex.run(hf)  # queued sibling
                futs.extend((first, second))
                # race the cancel against promotion and completion
                target = second if i % 2 == 0 else first
                canceller = threading.Thread(
                    target=ex.cancel, args=(target,)
                )
                canceller.start()
                if i % 3 == 0:
                    ex.cancel(second)
                canceller.join(10)
            for f in futs:
                try:
                    f.result(timeout=30)
                except CancelledError:
                    pass
            ex.wait_for_all()
            with ex._graph_lock:
                assert ex._graph_queues == {}
                assert ex._futures == {}

    def test_cancel_queued_topology_releases_admission(self):
        ctrl = AdmissionController(max_topologies=2, policy="reject")
        gate = threading.Event()
        started = threading.Event()
        g = _gated_graph(gate, started)
        with Executor(2, 0, admission=ctrl) as ex:
            running = ex.run(g)
            assert started.wait(10)
            queued = ex.run(g)
            assert ctrl.in_use_topologies == 2
            assert ex.cancel(queued)
            with pytest.raises(CancelledError):
                queued.result(timeout=10)
            # capacity came back exactly once
            assert ctrl.in_use_topologies == 1
            gate.set()
            running.result(timeout=30)
            assert ctrl.in_use_topologies == 0


class TestMultiTenant:
    def test_eight_tenants_validate_clean(self):
        """8 submitter threads race mixed workloads, cancels, and
        deadlines at one bounded executor; every future settles and
        every graph's trace passes the schedule validator."""
        ctrl = AdmissionController(
            max_topologies=12, policy="block", block_timeout=30.0
        )
        obs = TraceObserver()
        results = []  # (gen, submissions) per thread
        errors = []
        with Executor(4, 2, admission=ctrl) as ex:
            ex.add_observer(obs)

            def tenant(tid):
                try:
                    gen = generate_graph(
                        1000 + tid,
                        num_gpus=2,
                        max_hosts=3,
                        max_chains=2,
                        max_kernels=2,
                        max_len=32,
                    )
                    subs = []
                    for j in range(4):
                        mode = (tid + j) % 3
                        if mode == 0:
                            fut = ex.run(gen.graph, priority=tid % 4)
                        elif mode == 1:
                            fut = ex.run_n(gen.graph, 2)
                        else:
                            hits = []
                            fut = ex.run_until(
                                gen.graph,
                                lambda h=hits: (
                                    h.append(1) or len(h) >= 2
                                ),
                            )
                        passes = 2 if mode else 1
                        if tid % 4 == 0 and j == 3:
                            ex.cancel(fut)
                        subs.append((fut, passes))
                    results.append((gen, subs))
                except Exception as exc:  # pragma: no cover
                    errors.append((tid, exc))

            threads = [
                threading.Thread(target=tenant, args=(tid,))
                for tid in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert errors == []
            outcomes = []
            for gen, subs in results:
                for fut, _ in subs:
                    try:
                        fut.result(timeout=60)
                        outcomes.append("completed")
                    except CancelledError:
                        outcomes.append("cancelled")
            ex.wait_for_all()
        assert len(outcomes) == 32  # nothing stranded
        for gen, subs in results:
            nids = {n.nid for n in gen.graph.nodes}
            records = [r for r in obs.records if r.nid in nids]
            all_done = all(not f.cancelled() for f, _ in subs)
            try:
                all_done = all_done and not any(
                    f.exception() for f, _ in subs
                )
            except CancelledError:
                all_done = False
            expected = sum(p for _, p in subs)
            report = validate_schedule(
                gen.graph,
                records,
                passes=max(expected, 1),
                num_gpus=2,
                allow_partial=not all_done,
            )
            assert report.violations == []


class TestSoakHarness:
    def test_smoke_sweep_reconciles(self, verify_run):
        code, doc = verify_run("soak")
        assert code == 0, doc["violations"]
        assert doc["violations"] == []
        totals = doc["totals"]
        assert totals["submitted"] == totals["rejected"] + totals["admitted"]
        assert totals["admitted"] == (
            totals["completed"]
            + totals["shed"]
            + totals["deadline_exceeded"]
            + totals["cancelled"]
            + totals["failed"]
        )
        # the executor's service.* counters agree with the harness
        assert doc["counters"]["service.admitted"] == totals["admitted"]
        assert doc["counters"]["service.rejected"] == totals["rejected"]
        assert len(doc["scenarios"]) == 3
        assert doc["latency_s"]["p99"] >= doc["latency_s"]["p50"] > 0
        # submit-call percentiles per scenario and over the sweep
        for part in (doc, *doc["scenarios"]):
            submit = part["detail"]["submit_latency_s"]
            assert submit["p99"] >= submit["p50"] > 0


class TestServiceMetrics:
    def test_gauges_track_controller(self):
        ctrl = AdmissionController(max_topologies=2, policy="block")
        gate = threading.Event()
        started = threading.Event()
        with Executor(2, 0, admission=ctrl) as ex:
            snap = ex.metrics.snapshot()
            assert snap["service.overload_state"] == 0
            assert snap["service.topologies_in_use"] == 0
            fut1 = ex.run(_gated_graph(gate, started))
            assert started.wait(10)
            fut2 = ex.run(_gated_graph(gate))
            snap = ex.metrics.snapshot()
            assert snap["service.topologies_in_use"] == 2
            assert snap["service.overload_state"] == 1  # saturated
            gate.set()
            fut1.result(timeout=30)
            fut2.result(timeout=30)
            ex.wait_for_all()
            snap = ex.metrics.snapshot()
            assert snap["service.topologies_in_use"] == 0
            assert snap["service.overload_state"] == 0
            ex.drain(timeout=10)
            assert ex.metrics.snapshot()["service.overload_state"] == 3
