"""The token-free healthy GPU route and per-lowering kernel launches.

An unpolicied GPU slot (no retry policy on the node or the run, no
timeout, no sanitizer, not degraded) is enqueued without an
``_Attempt``; its stream callback completes it, and only a failure
builds the token.  Each kernel slot's launch is compiled once per
lowering (:class:`repro.gpu.kernel.KernelLaunch`); pull buffers, device
checks and :class:`~repro.utils.span.Late` arguments are still read on
every launch.
"""

import numpy as np
import pytest

import repro.core.executor as executor_mod
import repro.core.topology as topology_mod
from repro.check.validate import validate_schedule
from repro.core import Executor, Heteroflow
from repro.core.observer import TraceObserver
from repro.errors import DeviceError, KernelError
from repro.gpu.device import GpuRuntime, current_device
from repro.gpu.kernel import KernelLaunch
from repro.resilience import FaultProfile, ResiliencePolicy, RetryPolicy
from repro.utils.span import Late

_T = 30


def _scale(m, v):
    v *= m


def _add(c, v):
    v += c


def _chain(n=16, kernels=3, name="chain"):
    """host fill -> pull -> *kernels* x ``v *= 2`` -> push -> host."""
    data = np.zeros(n)
    hf = Heteroflow(name)
    fill = hf.host(lambda: data.__setitem__(slice(None), np.arange(n)), name="fill")
    pull = hf.pull(data, name="pull")
    fill.precede(pull)
    prev = pull
    ks = []
    for i in range(kernels):
        k = hf.kernel(_scale, 2.0, pull, name=f"k{i}")
        prev.precede(k)
        prev = k
        ks.append(k)
    push = hf.push(pull, data, name="push")
    prev.precede(push)
    done = hf.host(lambda: None, name="done")
    push.precede(done)
    return hf, data, pull, ks


@pytest.fixture
def attempts(monkeypatch):
    """Count the attempt tokens the executor builds."""
    built = []

    class Counting(executor_mod._Attempt):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.slot)

    monkeypatch.setattr(executor_mod, "_Attempt", Counting)
    return built


@pytest.fixture
def launches(monkeypatch):
    """Count the kernel launches compiled for executor runs."""
    built = []

    class Counting(KernelLaunch):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.name)

    monkeypatch.setattr(topology_mod, "KernelLaunch", Counting)
    return built


class TestTokenFree:
    def test_healthy_unpolicied_run_builds_no_attempt(self, attempts):
        hf, data, _, _ = _chain()
        with Executor(2, 2) as ex:
            for _ in range(3):
                ex.run(hf).result(timeout=_T)
                np.testing.assert_array_equal(data, np.arange(16) * 8.0)
            snap = ex.metrics.snapshot()
        assert attempts == []
        # the stream callbacks continued the GPU chain themselves
        assert sum(snap["executor.continued_launches"]) > 0

    @pytest.mark.parametrize(
        "policy",
        [RetryPolicy(max_attempts=2), ResiliencePolicy(timeout=_T)],
        ids=["retry", "timeout"],
    )
    def test_run_policy_builds_attempts(self, attempts, policy):
        hf, data, _, _ = _chain()
        with Executor(2, 2) as ex:
            ex.run(hf, policy=policy).result(timeout=_T)
        np.testing.assert_array_equal(data, np.arange(16) * 8.0)
        # one token per slot: every slot of the run is policied
        assert len(attempts) == len(hf.nodes)

    @pytest.mark.parametrize("configure", ["retry", "timeout"])
    def test_task_policy_builds_attempts_for_that_task(self, attempts, configure):
        hf, data, _, ks = _chain()
        if configure == "retry":
            ks[1].retry(max_attempts=2)
        else:
            ks[1].timeout(_T)
        with Executor(2, 2) as ex:
            ex.run(hf).result(timeout=_T)
        np.testing.assert_array_equal(data, np.arange(16) * 8.0)
        assert len(attempts) == 1

    def test_sanitized_run_builds_attempts(self, attempts):
        hf, _, _, _ = _chain()
        with Executor(2, 2) as ex:
            ex.run(hf, sanitize=True).result(timeout=_T)
        assert len(attempts) == len(hf.nodes)

    def test_raising_kernel_fails_the_run_as_before(self, attempts):
        """A kernel that raises on the token-free route fails the run
        with its own error (no policy: not wrapped), through the usual
        failure route: the token is built for the failure only."""

        def boom(v):
            raise ValueError("kernel fault")

        data = np.zeros(8)
        hf = Heteroflow("boom")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(boom, pull, name="boom")
        after = hf.kernel(_scale, 2.0, pull, name="after")
        push = hf.push(pull, data, name="push")
        pull.precede(k)
        k.precede(after)
        after.precede(push)
        obs = TraceObserver()
        with Executor(2, 1, observers=[obs]) as ex:
            fut = ex.run(hf, metrics=True)
            with pytest.raises(ValueError, match="kernel fault"):
                fut.result(timeout=_T)
        assert len(attempts) == 1
        events = [e for e in fut.run_report.events if e["kind"] == "task_failed"]
        assert [(e["task"], e["error"], e["attempts"]) for e in events] == [
            ("boom", "ValueError", 1)
        ]
        # the kernel after the failed one was flushed, never launched
        assert "after" not in {r.name for r in obs.records}
        validate_schedule(
            hf, obs.records, passes=1, num_gpus=1, allow_partial=True
        ).raise_if_failed()

    def test_device_death_mid_run_recovers(self):
        hf = Heteroflow("two")
        datas = []
        for i in range(2):
            data = np.arange(32, dtype=np.float64) + i
            pull = hf.pull(data, name=f"p{i}")
            k = hf.kernel(_scale, 2.0, pull, name=f"k{i}")
            k2 = hf.kernel(_add, 1.0, pull, name=f"j{i}")
            push = hf.push(pull, data, name=f"s{i}")
            pull.precede(k)
            k.precede(k2)
            k2.precede(push)
            datas.append(data)
        obs = TraceObserver()
        with Executor(2, 2, observers=[obs]) as ex:
            ex.gpu_runtime.device(0).configure_faults(FaultProfile(die_at_op=2), seed=0)
            ex.run(hf).result(timeout=_T)
            snap = ex.metrics.snapshot()
            assert ex.alive_gpus == [1]
        for i, data in enumerate(datas):
            np.testing.assert_array_equal(data, (np.arange(32) + i) * 2.0 + 1.0)
        assert snap["resilience.device_failures"] == 1
        validate_schedule(hf, obs.records, passes=1, num_gpus=2).raise_if_failed()


class TestKernelLaunches:
    def test_unchanged_graph_compiles_each_kernel_once(self, launches):
        hf, data, _, ks = _chain(kernels=4)
        with Executor(2, 2) as ex:
            for _ in range(5):
                ex.run(hf).result(timeout=_T)
            assert sorted(launches) == ["k0", "k1", "k2", "k3"]
            # a mutation means a new lowering, compiled once again
            ks[0].rename("k0b")
            for _ in range(3):
                ex.run(hf).result(timeout=_T)
        assert sorted(launches) == ["k0", "k0b", "k1", "k1", "k2", "k2", "k3", "k3"]
        np.testing.assert_array_equal(data, np.arange(16) * 16.0)

    def test_frozen_graph_compiles_each_kernel_once(self, launches):
        hf, _, _, _ = _chain(kernels=2)
        frozen = hf.freeze()
        with Executor(2, 2) as ex:
            for _ in range(4):
                ex.run(frozen).result(timeout=_T)
        assert sorted(launches) == ["k0", "k1"]

    def test_rebound_argument_reaches_next_launch(self):
        data = np.zeros(4)
        hf = Heteroflow("rebind")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(_add, 1.0, pull, name="k")
        push = hf.push(pull, data, name="push")
        pull.precede(k)
        k.precede(push)
        with Executor(1, 1) as ex:
            ex.run(hf).result(timeout=_T)
            np.testing.assert_array_equal(data, np.ones(4))
            k.kernel(_add, 5.0, pull)
            ex.run(hf).result(timeout=_T)
            np.testing.assert_array_equal(data, np.full(4, 6.0))
            k.kernel(_scale, 3.0, pull)
            ex.run(hf).result(timeout=_T)
        np.testing.assert_array_equal(data, np.full(4, 18.0))

    def test_late_argument_resolves_on_every_launch(self, launches):
        state = {"c": 1.0}
        data = np.zeros(4)
        hf = Heteroflow("late")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(_add, Late(lambda: state["c"]), pull, name="k")
        push = hf.push(pull, data, name="push")
        pull.precede(k)
        k.precede(push)
        got = []
        with Executor(1, 1) as ex:
            for c in (1.0, 10.0, 100.0):
                state["c"] = c
                ex.run(hf).result(timeout=_T)
                got.append(float(data[0]))
        assert got == [1.0, 11.0, 111.0]
        assert launches == ["k"]  # one compile, three resolutions

    def test_cross_device_argument_raises_before_enqueue(self):
        with Executor(1, 2) as ex:
            foreign = ex.gpu_runtime.device(1).allocate(64, dtype=np.float64)
            data = np.zeros(8)
            hf = Heteroflow("cross")
            pull = hf.pull(data, name="pull")
            k = hf.kernel(lambda v, w: None, pull, foreign, name="k")
            pull.precede(k)
            with pytest.raises(KernelError, match="lives on GPU 1"):
                ex.run(hf).result(timeout=_T)
            # the lone placement group packs onto GPU 0
            assert k.device == 0
            assert ex.gpu_runtime.device(0).stats()["kernel_launches"] == 0
            assert ex.gpu_runtime.device(1).stats()["kernel_launches"] == 0
            foreign.free()


class TestBufferView:
    def test_default_view_is_cached_until_dtype_changes(self):
        rt = GpuRuntime(1, memory_bytes=1 << 20)
        try:
            buf = rt.device(0).allocate(64, dtype=np.float64)
            v = buf.view()
            assert buf.view() is v and v.dtype == np.float64 and v.size == 8
            buf.dtype = np.dtype(np.float64)  # the same dtype keeps it
            assert buf.view() is v
            buf.dtype = np.dtype(np.int32)
            w = buf.view()
            assert w is not v and w.dtype == np.int32 and w.size == 16
            # an explicit dtype is a fresh view over the same bytes
            assert buf.view(np.uint8).size == 64
            w[0] = 7
            assert buf.view()[0] == 7
            buf.free()
        finally:
            rt.destroy()

    def test_freed_buffer_view_raises(self):
        rt = GpuRuntime(1, memory_bytes=1 << 20)
        try:
            buf = rt.device(0).allocate(64, dtype=np.float64)
            buf.view()  # cache the default view first
            buf.free()
            with pytest.raises(DeviceError, match="freed"):
                buf.view()
            with pytest.raises(DeviceError, match="freed"):
                buf.view(np.uint8)
        finally:
            rt.destroy()


class TestDeviceContext:
    """A stream's dispatcher has its device current for its whole
    life, so a kernel body sees its own device; a worker is scoped to
    a device only for the length of a launch."""

    def test_kernel_body_sees_its_own_device(self):
        seen = []

        def body(ctx, v):
            dev = current_device()
            seen.append((ctx.device_ordinal, None if dev is None else dev.ordinal))

        hf = Heteroflow("two-devices")
        arrays = [np.zeros(8) for _ in range(4)]
        for i, a in enumerate(arrays):
            pull = hf.pull(a, name=f"pull{i}")
            k = hf.kernel(body, pull, name=f"k{i}")
            pull.precede(k)
        with Executor(2, 2) as ex:
            ex.run(hf).result(timeout=_T)
        assert len(seen) == 4
        assert {own for own, _ in seen} == {0, 1}
        assert all(own == current for own, current in seen)
        # the submitting thread never had a device
        assert current_device() is None

    def test_worker_launch_scope_is_restored(self):
        """With one worker, the worker that launches the pull in place
        after ``src`` also runs ``side`` and ``tail``: neither sees the
        device it launched onto."""
        seen = {}
        data = np.zeros(8)
        hf = Heteroflow("scoped-launch")
        src = hf.host(lambda: seen.update(src=current_device()), name="src")
        side = hf.host(lambda: seen.update(side=current_device()), name="side")
        tail = hf.host(lambda: seen.update(tail=current_device()), name="tail")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(lambda v: None, pull, name="k")
        push = hf.push(pull, data, name="push")
        src.precede(pull, side)
        pull.precede(k)
        k.precede(push)
        push.precede(tail)
        with Executor(1, 1) as ex:
            ex.run(hf).result(timeout=_T)
            inplace = ex.metrics.snapshot()["executor.inplace_launches"]
        assert inplace == [1]
        assert seen == {"src": None, "side": None, "tail": None}
