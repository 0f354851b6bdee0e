"""Fault-tolerant execution: retry/timeout policies, device-fault
injection, and graceful GPU-to-host degradation (docs/resilience.md)."""

import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.check import generate_graph, validate_schedule
from repro.core import Executor, Heteroflow, TraceObserver
from repro.errors import (
    DeviceFailedError,
    ExecutorError,
    GraphError,
    KernelError,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.resilience import (
    FaultProfile,
    FaultState,
    ResiliencePolicy,
    RetryPolicy,
    normalize_policy,
)

_T = 60.0  # generous future timeout: a hang is the failure being tested


# ---------------------------------------------------------------------
# policy objects
# ---------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ExecutorError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExecutorError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ExecutorError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ExecutorError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ExecutorError):
            ResiliencePolicy(timeout=0)

    def test_cancellation_never_retryable(self):
        p = RetryPolicy(max_attempts=5)
        assert not p.retryable(CancelledError())
        assert p.retryable(RuntimeError("x"))
        narrow = RetryPolicy(retry_on=(KernelError,))
        assert narrow.retryable(KernelError("k"))
        assert not narrow.retryable(RuntimeError("x"))

    def test_backoff_and_cap(self):
        p = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.3, jitter=0.0)
        assert p.delay_for(1) == pytest.approx(0.1)
        assert p.delay_for(2) == pytest.approx(0.2)
        assert p.delay_for(3) == pytest.approx(0.3)  # capped
        assert p.delay_for(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        p = RetryPolicy(base_delay=0.1, jitter=0.5, seed=42)
        q = RetryPolicy(base_delay=0.1, jitter=0.5, seed=42)
        for attempt in (1, 2, 3):
            d = p.delay_for(attempt, key=7)
            assert d == q.delay_for(attempt, key=7)  # same seed, same delay
            base = min(0.1 * 2.0 ** (attempt - 1), p.max_delay)
            assert base * 0.5 <= d <= base * 1.5
        # different task keys de-synchronize the jitter stream
        assert p.delay_for(1, key=1) != p.delay_for(1, key=2)

    def test_zero_base_delay_short_circuits(self):
        assert RetryPolicy(base_delay=0.0, jitter=0.9).delay_for(5) == 0.0

    def test_delay_info_reports_saturation(self):
        p = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.3, jitter=0.0)
        below = p.delay_info(1)
        assert below.seconds == pytest.approx(0.1)
        assert not below.saturated
        at_cap = p.delay_info(3)  # raw 0.4 > cap 0.3
        assert at_cap.seconds == pytest.approx(0.3)
        assert at_cap.saturated
        assert at_cap.max_delay == pytest.approx(0.3)
        assert at_cap.as_dict() == {
            "retry_delay_s": pytest.approx(0.3),
            "backoff_saturated": True,
            "max_delay_s": pytest.approx(0.3),
        }
        # zero base delay never saturates (no backoff in play)
        assert not RetryPolicy(base_delay=0.0).delay_info(9).saturated

    def test_normalize(self):
        assert normalize_policy(None) == ResiliencePolicy()
        rp = RetryPolicy(max_attempts=2)
        assert normalize_policy(rp) == ResiliencePolicy(retry=rp)
        rs = ResiliencePolicy(retry=rp, timeout=1.0)
        assert normalize_policy(rs) is rs
        with pytest.raises(ExecutorError):
            normalize_policy("nope")


class TestTaskApi:
    def test_retry_accepts_policy_or_kwargs(self):
        hf = Heteroflow()
        t = hf.host(lambda: None)
        t.retry(max_attempts=5, base_delay=0.01)
        assert t.node.retry_policy.max_attempts == 5
        p = RetryPolicy(max_attempts=2)
        t.retry(p)
        assert t.node.retry_policy is p
        with pytest.raises(GraphError):
            t.retry(p, max_attempts=9)
        with pytest.raises(GraphError):
            t.retry("nope")

    def test_timeout_validation(self):
        hf = Heteroflow()
        t = hf.host(lambda: None)
        t.timeout(0.5)
        assert t.node.timeout_s == 0.5
        with pytest.raises(GraphError):
            t.timeout(0)

    def test_host_fallback_requires_bound_kernel(self):
        hf = Heteroflow()
        p = hf.pull(np.zeros(4))
        k = hf.kernel(lambda x: None, p)
        k.host_fallback()
        assert k.node.fallback_fn is k.node.kernel_fn
        with pytest.raises(GraphError):
            k.host_fallback("not callable")


# ---------------------------------------------------------------------
# fault profiles / states
# ---------------------------------------------------------------------
class _FakeDevice:
    ordinal = 0

    def __init__(self):
        self.failed = False

    def fail(self):
        self.failed = True


class TestFaultProfile:
    def test_validation(self):
        with pytest.raises(ExecutorError):
            FaultProfile(alloc_failures=-1)
        with pytest.raises(ExecutorError):
            FaultProfile(kernel_fault_at=0)
        with pytest.raises(ExecutorError):
            FaultProfile(kernel_fault_rate=1.5)
        assert FaultProfile().empty
        assert not FaultProfile(die_at_op=1).empty

    def test_alloc_failures_counted(self):
        st = FaultState(FaultProfile(alloc_failures=2), seed=0)
        dev = _FakeDevice()
        from repro.errors import AllocationError

        for _ in range(2):
            with pytest.raises(AllocationError, match="injected"):
                st.on_alloc(dev)
        st.on_alloc(dev)  # third one succeeds
        assert st.stats()["injected_alloc_faults"] == 2

    def test_kernel_fault_at_fires_once(self):
        st = FaultState(FaultProfile(kernel_fault_at=2), seed=0)
        dev = _FakeDevice()
        st.on_kernel(dev)
        with pytest.raises(KernelError, match="injected"):
            st.on_kernel(dev)
        st.on_kernel(dev)

    def test_die_at_op_kills_device(self):
        st = FaultState(FaultProfile(die_at_op=1), seed=0)
        dev = _FakeDevice()
        with pytest.raises(DeviceFailedError):
            st.on_op(dev)
        assert dev.failed

    def test_device_configure_and_clear(self):
        with Executor(1, 1) as ex:
            dev = ex.gpu_runtime.device(0)
            dev.configure_faults(FaultProfile(kernel_fault_at=1), seed=3)
            assert dev.fault_state is not None
            with pytest.raises(KernelError):
                dev.pre_kernel()
            dev.clear_faults()
            assert dev.fault_state is None
            dev.pre_kernel()  # no-op now

    def test_dead_device_rejects_everything(self):
        with Executor(1, 1) as ex:
            dev = ex.gpu_runtime.device(0)
            dev.fail()
            assert not dev.alive
            for hook in (dev.pre_op, dev.pre_kernel, dev.pre_alloc):
                with pytest.raises(DeviceFailedError):
                    hook()


# ---------------------------------------------------------------------
# retry loop on the real executor
# ---------------------------------------------------------------------
class TestRetries:
    def _flaky(self, failures):
        calls = []

        def fn():
            calls.append(1)
            if len(calls) <= failures:
                raise RuntimeError(f"flake {len(calls)}")

        return fn, calls

    def test_exact_once_after_retries(self):
        """S3: fail N-1 times, succeed on N — exactly one committed
        trace record, validated strictly."""
        hf = Heteroflow("retry")
        fn, calls = self._flaky(2)
        t = hf.host(fn, name="flaky")
        t.retry(max_attempts=3, base_delay=0.0)
        done = hf.host(lambda: None, name="after")
        t.precede(done)
        obs = TraceObserver()
        with Executor(2, 0, observers=[obs]) as ex:
            ex.run(hf).result(timeout=_T)
            snap = ex.metrics.snapshot()
        assert len(calls) == 3
        validate_schedule(hf, obs.records, passes=1, num_gpus=0).raise_if_failed()
        assert sum(1 for r in obs.records if r.nid == t.node.nid) == 1
        assert snap["resilience.retries"] == 2
        assert snap["resilience.exhausted"] == 0

    def test_exhaustion_wraps_with_history(self):
        hf = Heteroflow()
        fn, calls = self._flaky(99)
        hf.host(fn, name="doomed").retry(max_attempts=3, base_delay=0.0)
        with Executor(1, 0) as ex:
            fut = ex.run(hf)
            with pytest.raises(TaskFailedError) as ei:
                fut.result(timeout=_T)
            snap = ex.metrics.snapshot()
        err = ei.value
        assert len(calls) == 3
        assert err.task_name == "doomed"
        assert len(err.attempts) == 3
        assert all(isinstance(a, RuntimeError) for a in err.attempts)
        assert isinstance(err.__cause__, RuntimeError)
        assert snap["resilience.exhausted"] == 1

    def test_attempt_log_records_backoff_saturation(self):
        """The structured attempt history on TaskFailedError shows the
        delay slept per retried attempt and flags the ones where the
        exponential had hit the policy's max_delay cap."""
        hf = Heteroflow()
        fn, _calls = self._flaky(99)
        hf.host(fn, name="capped").retry(
            max_attempts=3, base_delay=0.01, backoff=4.0,
            max_delay=0.02, jitter=0.0,
        )
        with Executor(1, 0) as ex:
            with pytest.raises(TaskFailedError) as ei:
                ex.run(hf).result(timeout=_T)
        err = ei.value
        assert len(err.attempt_log) == 3
        first, second, last = err.attempt_log
        assert first["error"] == "RuntimeError"
        assert first["retry_delay_s"] == pytest.approx(0.01)
        assert not first["backoff_saturated"]
        # attempt 2's raw backoff (0.04) exceeded the 0.02 cap
        assert second["retry_delay_s"] == pytest.approx(0.02)
        assert second["backoff_saturated"]
        assert second["max_delay_s"] == pytest.approx(0.02)
        # the terminal attempt was not retried: no delay fields
        assert "retry_delay_s" not in last
        assert "backoff saturated on 1 attempt(s)" in str(err)

    def test_no_policy_keeps_raw_exception(self):
        """Backward compat: without a policy the original error type
        reaches the future unwrapped."""
        hf = Heteroflow()
        hf.host(self._flaky(99)[0])
        with Executor(1, 0) as ex:
            with pytest.raises(RuntimeError, match="flake"):
                ex.run(hf).result(timeout=_T)

    def test_run_level_policy_and_delayed_retry(self):
        hf = Heteroflow()
        fn, calls = self._flaky(1)
        hf.host(fn)
        with Executor(1, 0) as ex:
            ex.run(
                hf, policy=RetryPolicy(max_attempts=2, base_delay=0.02)
            ).result(timeout=_T)
        assert len(calls) == 2

    def test_per_task_policy_overrides_run_level(self):
        hf = Heteroflow()
        fn, calls = self._flaky(99)
        hf.host(fn).retry(max_attempts=1)  # task says: never retry
        with Executor(1, 0) as ex:
            with pytest.raises(TaskFailedError):
                ex.run(
                    hf, policy=RetryPolicy(max_attempts=10, base_delay=0.0)
                ).result(timeout=_T)
        assert len(calls) == 1

    def test_retry_observer_hook(self):
        seen = []

        class Obs(TraceObserver):
            def on_task_retry(self, worker_id, node, attempt, error):
                seen.append((node.name, attempt, type(error).__name__))

        hf = Heteroflow()
        fn, _ = self._flaky(1)
        hf.host(fn, name="f").retry(max_attempts=2, base_delay=0.0)
        with Executor(1, 0, observers=[Obs()]) as ex:
            ex.run(hf).result(timeout=_T)
        assert seen == [("f", 1, "RuntimeError")]


class TestTimeouts:
    def test_host_task_timeout(self):
        hf = Heteroflow()
        hf.host(lambda: time.sleep(0.3), name="slow").timeout(0.05)
        with Executor(1, 0) as ex:
            fut = ex.run(hf)
            with pytest.raises(TaskFailedError) as ei:
                fut.result(timeout=_T)
            snap = ex.metrics.snapshot()
        assert isinstance(ei.value.__cause__, TaskTimeoutError)
        assert snap["resilience.timeouts"] >= 1

    def test_stalled_stream_times_out_and_recovers(self):
        """An injected stream stall trips the deadline; the stream is
        quarantined and the retried task completes on a fresh one."""
        gen = generate_graph(2, num_gpus=1)
        obs = TraceObserver()
        ex = Executor(2, 1, observers=[obs])
        try:
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(stall_at_op=1), seed=0
            )
            policy = ResiliencePolicy(
                retry=RetryPolicy(max_attempts=4, base_delay=0.0),
                timeout=0.3,
            )
            ex.run(gen.graph, policy=policy).result(timeout=_T)
            snap = ex.metrics.snapshot()
            validate_schedule(
                gen.graph, obs.records, passes=1, num_gpus=1
            ).raise_if_failed()
            assert gen.verify(passes=1) == []
        finally:
            ex.shutdown()
        assert snap["resilience.timeouts"] >= 1
        assert snap["resilience.streams_quarantined"] >= 1


# ---------------------------------------------------------------------
# device death: migration and degradation
# ---------------------------------------------------------------------
def _two_chain_graph():
    """Two independent pull->kernel->push chains (two placement groups,
    so two GPUs each get one)."""
    hf = Heteroflow("chains")
    arrays = []
    for i in range(2):
        a = np.arange(32, dtype=np.float64) + i

        def kern(x):
            x *= 2.0
            x += 1.0

        p = hf.pull(a, name=f"p{i}")
        k = hf.kernel(kern, p, name=f"k{i}")
        k.host_fallback()
        s = hf.push(p, a, name=f"s{i}")
        p.precede(k)
        k.precede(s)
        arrays.append(a)
    return hf, arrays


class TestDeviceDeath:
    @pytest.mark.parametrize(
        "gpus,policy,ordinal",
        [
            (0, None, 0),
            (0, RetryPolicy(max_attempts=2, base_delay=0.0), 0),
            (2, None, 0),
            (2, RetryPolicy(max_attempts=2, base_delay=0.0), 0),
            (2, None, 7),
        ],
        ids=["host", "host-retry", "gpu", "gpu-retry", "gpu-bad-ordinal"],
    )
    def test_host_device_failed_error_is_a_task_error(self, gpus, policy, ordinal):
        """Only a GPU slot's launch or stream callback starts device
        recovery: a host callable raising DeviceFailedError fails (or
        is retried) like any task error, quarantines nothing and is
        never re-run by a recovery pass."""
        calls = []

        def host():
            calls.append(1)
            # bounded, so an executor that re-runs it forever still
            # ends (and then fails the count below) instead of hanging
            if len(calls) <= 50:
                raise DeviceFailedError(ordinal)

        hf = Heteroflow("host-device-error")
        h = hf.host(host, name="host")
        if gpus:
            data = np.zeros(8)
            pull = hf.pull(data, name="pull")
            k = hf.kernel(lambda v: None, pull, name="k")
            h.precede(pull)
            pull.precede(k)
        ex = Executor(2, gpus)
        try:
            fut = ex.run(hf, policy=policy)
            with pytest.raises((DeviceFailedError, TaskFailedError)):
                fut.result(timeout=_T)
            alive = ex.alive_gpus
            device_failures = ex.metrics.snapshot()["resilience.device_failures"]
        finally:
            ex.shutdown(wait=False)
        assert len(calls) <= (1 if policy is None else policy.max_attempts)
        assert alive == list(range(gpus))
        assert device_failures == 0

    @pytest.mark.parametrize(
        "policy",
        [None, RetryPolicy(max_attempts=2, base_delay=0.0)],
        ids=["plain", "retry"],
    )
    @pytest.mark.parametrize("named", ["bad-ordinal", "other-gpu"])
    def test_kernel_device_failed_error_for_another_device_is_a_task_error(
        self, named, policy
    ):
        """A kernel body raising DeviceFailedError starts recovery only
        when it names the device the kernel ran on: naming a
        nonexistent ordinal or the other GPU, it fails (or is retried)
        like any task error, quarantines nothing and is not re-run by a
        recovery pass."""
        calls = []

        def body(ctx, v):
            calls.append(ctx.device_ordinal)
            # bounded, so an executor that re-runs it forever still
            # ends (and then fails the count below) instead of hanging
            if len(calls) <= 50:
                raise DeviceFailedError(7 if named == "bad-ordinal" else 1 - ctx.device_ordinal)

        data = np.zeros(8)
        hf = Heteroflow("kernel-device-error")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(body, pull, name="k")
        pull.precede(k)
        ex = Executor(2, 2)
        try:
            fut = ex.run(hf, policy=policy)
            with pytest.raises((DeviceFailedError, TaskFailedError)):
                fut.result(timeout=_T)
            alive = ex.alive_gpus
            device_failures = ex.metrics.snapshot()["resilience.device_failures"]
        finally:
            ex.shutdown(wait=False)
        assert len(calls) == (1 if policy is None else policy.max_attempts)
        assert alive == [0, 1]
        assert device_failures == 0

    def test_migrates_to_surviving_gpu(self):
        hf, arrays = _two_chain_graph()
        expected = [np.arange(32, dtype=np.float64) * 2.0 + 1.0,
                    (np.arange(32, dtype=np.float64) + 1) * 2.0 + 1.0]
        obs = TraceObserver()
        ex = Executor(2, 2, observers=[obs])
        try:
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(die_at_op=1), seed=0
            )
            ex.run(hf).result(timeout=_T)
            snap = ex.metrics.snapshot()
            assert ex.alive_gpus == [1]
        finally:
            ex.shutdown()
        for got, want in zip(arrays, expected):
            np.testing.assert_array_equal(got, want)
        validate_schedule(hf, obs.records, passes=1, num_gpus=2).raise_if_failed()
        assert snap["resilience.device_failures"] == 1
        # every GPU record left on the trace ran on the survivor
        assert {r.device for r in obs.records if r.device is not None} == {1}

    def test_degrades_to_host_fallback(self):
        hf, arrays = _two_chain_graph()
        expected = [np.arange(32, dtype=np.float64) * 2.0 + 1.0,
                    (np.arange(32, dtype=np.float64) + 1) * 2.0 + 1.0]
        obs = TraceObserver()
        ex = Executor(2, 1, observers=[obs])
        try:
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(die_at_op=1), seed=0
            )
            fut = ex.run(hf, metrics=True)
            fut.result(timeout=_T)
            snap = ex.metrics.snapshot()
        finally:
            ex.shutdown()
        for got, want in zip(arrays, expected):
            np.testing.assert_array_equal(got, want)
        validate_schedule(hf, obs.records, passes=1, num_gpus=1).raise_if_failed()
        assert snap["resilience.degraded_topologies"] == 1
        assert snap["resilience.fallback_tasks"] >= 1
        kinds = {e["kind"] for e in fut.run_report.events}
        assert "device_failed" in kinds
        assert "degraded" in kinds
        # fallback kernels never double-run alongside a GPU attempt
        for i in range(2):
            recs = [r for r in obs.records if r.name == f"k{i}"]
            assert len(recs) == 1

    def test_finished_push_survives_later_device_death(self):
        """A pull->kernel->push chain finishes, then a later op kills
        the device: recovery re-runs the retracted pull and kernel, but
        the finished push keeps its effect and runs once."""
        def kern(x):
            x *= 2.0
            x += 1.0

        hf = Heteroflow("chain-then-die")
        a = np.arange(16, dtype=np.float64)
        b = np.arange(16, dtype=np.float64) + 100
        pa = hf.pull(a, name="pa")
        ka = hf.kernel(kern, pa, name="ka").host_fallback()
        sa = hf.push(pa, a, name="sa")
        pb = hf.pull(b, name="pb")
        kb = hf.kernel(kern, pb, name="kb").host_fallback()
        sb = hf.push(pb, b, name="sb")
        pa.precede(ka)
        ka.precede(sa)
        sa.precede(pb)  # chain b starts only after chain a finished
        pb.precede(kb)
        kb.precede(sb)
        for die_at_op in (4, 5, 6):  # pb's, kb's and sb's op
            a[:] = np.arange(16)
            b[:] = np.arange(16) + 100
            obs = TraceObserver()
            ex = Executor(1, 1, observers=[obs])
            try:
                ex.gpu_runtime.device(0).configure_faults(
                    FaultProfile(die_at_op=die_at_op), seed=0
                )
                ex.run(hf).result(timeout=_T)
                snap = ex.metrics.snapshot()
            finally:
                ex.shutdown()
            assert snap["resilience.device_failures"] == 1
            assert snap["resilience.replayed_tasks"] >= 2  # pa, ka
            names = [r.name for r in obs.records]
            assert sorted(names) == ["ka", "kb", "pa", "pb", "sa", "sb"]
            np.testing.assert_array_equal(a, np.arange(16) * 2.0 + 1.0)
            np.testing.assert_array_equal(
                b, (np.arange(16) + 100) * 2.0 + 1.0
            )
            validate_schedule(
                hf, obs.records, passes=1, num_gpus=1
            ).raise_if_failed()

    def test_no_fallback_means_structured_failure(self):
        hf = Heteroflow()
        a = np.zeros(8)
        p = hf.pull(a, name="p")
        k = hf.kernel(lambda x: None, p, name="k")  # no host_fallback
        p.precede(k)
        ex = Executor(1, 1)
        try:
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(die_at_op=1), seed=0
            )
            with pytest.raises(TaskFailedError) as ei:
                ex.run(hf).result(timeout=_T)
        finally:
            ex.shutdown()
        assert any(isinstance(a, DeviceFailedError) for a in ei.value.attempts)

    def test_degraded_from_start(self):
        """A graph submitted after every GPU already died runs entirely
        host-side via the degraded path."""
        hf, arrays = _two_chain_graph()
        ex = Executor(1, 1)
        try:
            # the device dies behind the executor's back; the first GPU
            # op discovers it and recovery degrades the topology
            ex.gpu_runtime.device(0).fail()
            ex.run(hf).result(timeout=_T)
            snap = ex.metrics.snapshot()
            assert ex.alive_gpus == []
            assert snap["resilience.degraded_topologies"] >= 1
        finally:
            ex.shutdown()

    def test_alloc_faults_in_buddy_pool(self):
        gen = generate_graph(4, num_gpus=1)
        obs = TraceObserver()
        ex = Executor(2, 1, observers=[obs])
        try:
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(alloc_failures=1), seed=0
            )
            ex.run(
                gen.graph, policy=RetryPolicy(max_attempts=3, base_delay=0.0)
            ).result(timeout=_T)
            stats = ex.gpu_runtime.device(0).fault_state.stats()
        finally:
            ex.shutdown()
        assert stats["injected_alloc_faults"] == 1
        validate_schedule(
            gen.graph, obs.records, passes=1, num_gpus=1
        ).raise_if_failed()
        assert gen.verify(passes=1) == []


# ---------------------------------------------------------------------
# cancellation (S1/S2)
# ---------------------------------------------------------------------
class TestCancellation:
    def test_queued_topology_cancels_immediately(self):
        """S2: a submission still waiting in its graph FIFO resolves
        with CancelledError without running anything."""
        gate = threading.Event()
        hf = Heteroflow()
        hf.host(gate.wait, name="gate")
        with Executor(2, 0) as ex:
            f1 = ex.run(hf)
            f2 = ex.run(hf)  # queued behind f1 on the same graph
            t0 = time.perf_counter()
            assert ex.cancel(f2)
            with pytest.raises(CancelledError):
                f2.result(timeout=5)
            assert time.perf_counter() - t0 < 1.0  # did not wait for f1
            gate.set()
            assert f1.result(timeout=_T) == 1

    def test_inflight_cancel_stops_retry_loop(self):
        """S2: cancelling mid-retries wins over further attempts."""
        started = threading.Event()
        calls = []

        def flaky():
            calls.append(1)
            started.set()
            raise RuntimeError("flake")

        hf = Heteroflow()
        hf.host(flaky).retry(max_attempts=10_000, base_delay=0.05)
        with Executor(1, 0) as ex:
            fut = ex.run(hf)
            assert started.wait(timeout=_T)
            ex.cancel(fut)
            with pytest.raises(CancelledError):
                fut.result(timeout=_T)
        assert len(calls) < 10_000

    def test_profiled_future_cleanup_idempotent(self):
        """S1: cancelling a queued *profiled* submission exercises the
        double-cleanup path (cancel pops the futures, then the done
        callback runs) without errors or leaks."""
        gate = threading.Event()
        hf = Heteroflow()
        hf.host(gate.wait, name="gate")
        with Executor(2, 0) as ex:
            f1 = ex.run(hf, metrics=True)
            f2 = ex.run(hf, metrics=True)
            assert ex.cancel(f2)
            with pytest.raises(CancelledError):
                f2.result(timeout=5)
            gate.set()
            f1.result(timeout=_T)
            assert f1.run_report is not None
            with ex._graph_lock:
                assert not ex._futures  # no leaked future bookkeeping

    def test_cancel_unknown_future_returns_false(self):
        from concurrent.futures import Future

        with Executor(1, 0) as ex:
            assert not ex.cancel(Future())
