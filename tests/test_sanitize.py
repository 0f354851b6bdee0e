"""hfsan runtime sanitizer tests (repro.analysis.sanitize).

The sanitizer swaps recording proxies into task callables, runs the
graph normally, and cross-checks every observed access against the
static effect inference.  These tests cover: clean runs stay clean and
numerically intact, a deliberately-wrong declaration diverges, proxies
uninstall after the run, the frozen path works, a sanitized and
profiled submission fills both reports on every resolving path and
leaves nothing registered, the check sweep is sound, and the footprint
predictor stays a single shared definition.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.analysis.sanitize import SCHEMA, SanitizerSession
from repro.core import Executor, Heteroflow


def build_saxpy(n=64):
    hf = Heteroflow("saxpy")
    x = np.full(n, 1.0, dtype=np.float32)
    y = np.full(n, 2.0, dtype=np.float32)
    px = hf.pull(x, name="px")
    py = hf.pull(y, name="py")

    def saxpy(ctx, xs, ys):
        ys[:] = 2.0 * xs + ys

    k = (
        hf.kernel(saxpy, px, py, name="k")
        .reads(px)
        .writes(py)
        .grid(1)
        .block(n)
    )
    qy = hf.push(py, y, name="qy")
    k.succeed(px, py)
    k.precede(qy)
    return hf, x, y


@pytest.fixture
def ex():
    with Executor(num_workers=2, num_gpus=1) as e:
        yield e


class TestCleanRun:
    def test_saxpy_sanitized_clean_and_correct(self, ex):
        hf, x, y = build_saxpy()
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        rep = fut.sanitize_report
        assert rep is not None and rep.ok
        assert rep.divergences == []
        assert rep.checked_tasks == 1  # pull/push are structural
        np.testing.assert_allclose(y, np.full(64, 4.0, dtype=np.float32))

    def test_report_schema_and_json(self, ex):
        hf, _, _ = build_saxpy()
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        doc = fut.sanitize_report.as_dict()
        assert doc["schema"] == SCHEMA
        assert doc["ok"] is True
        fut.sanitize_report.to_json()  # must serialize

    def test_unsanitized_run_has_no_report(self, ex):
        hf, _, _ = build_saxpy()
        fut = ex.run(hf)
        fut.result(timeout=60)
        assert not hasattr(fut, "sanitize_report")

    def test_host_captured_objects_proxied_and_observed(self, ex):
        hf = Heteroflow("hosts")
        log = []
        a = hf.host(lambda: log.append("a"), name="a")
        b = hf.host(lambda: log.append("b"), name="b")
        a.precede(b)
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        rep = fut.sanitize_report
        assert rep.ok and rep.proxied_objects == 1
        assert log == ["a", "b"]  # same object, order preserved

    def test_composes_with_metrics(self, ex):
        hf, _, _ = build_saxpy()
        fut = ex.run(hf, sanitize=True, metrics=True)
        fut.result(timeout=60)
        assert fut.sanitize_report.ok
        assert fut.run_report is not None


class TestDivergence:
    def test_mutant_deleted_writes_diverges(self, ex):
        # runtime analogue of the HF014 mutant: strip the writes()
        # declaration so inference predicts read-only, then observe
        # the kernel writing anyway
        hf, _, _ = build_saxpy()
        node = next(n for n in hf.nodes if n.name == "k")
        node.kernel_reads = frozenset(node.kernel_reads | node.kernel_writes)
        node.kernel_writes = frozenset()
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        rep = fut.sanitize_report
        assert not rep.ok
        kinds = {d.kind for d in rep.divergences}
        assert "undeclared-span-write" in kinds


class TestProxyLifecycle:
    def test_captured_objects_restored_after_run(self, ex):
        state = {"hits": 0}

        def bump():
            state["hits"] = state["hits"] + 1

        hf = Heteroflow("restore")
        hf.host(bump, name="h")
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        # the closure cell must hold the original dict again
        (cell,) = bump.__closure__
        assert cell.cell_contents is state
        assert state == {"hits": 1}

    def test_uninstall_is_idempotent(self):
        state = []

        def touch():
            state.append(1)

        hf = Heteroflow("once")
        hf.host(touch, name="h")
        session = SanitizerSession(hf)
        session.uninstall()
        session.uninstall()
        (cell,) = touch.__closure__
        assert cell.cell_contents is state


class TestFrozenPath:
    def test_frozen_graph_sanitizes(self, ex):
        hf, _, y = build_saxpy()
        hf.freeze()
        fut = ex.run(hf, sanitize=True)
        fut.result(timeout=60)
        assert fut.sanitize_report.ok
        np.testing.assert_allclose(y, np.full(64, 4.0, dtype=np.float32))


def _lifecycle_graph(gate, started=None):
    """One host task that captures a proxyable dict and blocks on
    *gate*; returns the graph, the task body and its closure contents
    (to check the sanitizer put every captured object back)."""
    state = {"hits": 0}

    def body():
        if started is not None:
            started.set()
        gate.wait(30)
        state["hits"] += 1

    hf = Heteroflow("lifecycle")
    hf.host(body, name="h")
    return hf, body, [c.cell_contents for c in body.__closure__]


def _retry_parked_graph():
    """One host task that always fails: under a long-backoff retry
    policy its first submission parks on the timer wheel while later
    submissions of the graph stay queued."""
    state = {"hits": 0}

    def body():
        state["hits"] += 1
        raise ZeroDivisionError("parked")

    hf = Heteroflow("parked")
    hf.host(body, name="h")
    return hf, body, [c.cell_contents for c in body.__closure__]


def _assert_settled_clean(ex, body, originals):
    ex.wait_for_all()
    assert ex._observers == []
    assert ex._futures == {}
    assert all(
        c.cell_contents is o for c, o in zip(body.__closure__, originals)
    )


def _assert_reports(fut):
    """Both reports are filled by the time the future resolves."""
    assert fut.done()
    assert fut.run_report is not None
    assert fut.sanitize_report is not None


class TestSubmissionLifecycle:
    """A ``sanitize=True, metrics=True`` submission on every resolving
    path: its future settles with the path's outcome, both reports are
    set before it resolves (or the submission is refused and nothing
    leaks), and afterwards the executor holds no observer and no
    future, and the host closures hold their original objects."""

    def test_cancelled_while_queued(self):
        from concurrent.futures import CancelledError

        gate, started = threading.Event(), threading.Event()
        hf, body, originals = _lifecycle_graph(gate, started)
        with Executor(2, 0) as ex:
            front = ex.run(hf)
            assert started.wait(10)
            fut = ex.run(hf, sanitize=True, metrics=True)
            assert ex.cancel(fut)
            with pytest.raises(CancelledError):
                fut.result(timeout=10)
            _assert_reports(fut)
            gate.set()
            front.result(timeout=30)
            _assert_settled_clean(ex, body, originals)

    def test_deadline_fires_while_queued(self):
        from concurrent.futures import CancelledError

        gate, started = threading.Event(), threading.Event()
        hf, body, originals = _lifecycle_graph(gate, started)
        with Executor(2, 0) as ex:
            front = ex.run(hf)
            assert started.wait(10)
            fut = ex.run(hf, sanitize=True, metrics=True, deadline=0.05)
            with pytest.raises(CancelledError):
                fut.result(timeout=10)
            _assert_reports(fut)
            kinds = [e["kind"] for e in fut.run_report.events]
            assert "deadline_exceeded" in kinds
            gate.set()
            front.result(timeout=30)
            _assert_settled_clean(ex, body, originals)

    def test_refused_by_admission(self):
        from repro.errors import AdmissionRejectedError
        from repro.service import AdmissionController

        gate, started = threading.Event(), threading.Event()
        hf, body, originals = _lifecycle_graph(gate, started)
        ctrl = AdmissionController(max_topologies=1, policy="reject")
        with Executor(2, 0, admission=ctrl) as ex:
            front = ex.run(hf)
            assert started.wait(10)
            with pytest.raises(AdmissionRejectedError):
                ex.run(hf, sanitize=True, metrics=True)
            # refused before anything ran: the trace observer and the
            # sanitizer's proxies are gone already
            assert ex._observers == []
            assert all(
                c.cell_contents is o
                for c, o in zip(body.__closure__, originals)
            )
            assert ex.metrics.snapshot()["sanitize.runs"] == 0
            gate.set()
            front.result(timeout=30)
            _assert_settled_clean(ex, body, originals)

    def test_unwaited_shutdown_while_queued(self):
        from concurrent.futures import CancelledError

        from repro.resilience import RetryPolicy

        hf, body, originals = _retry_parked_graph()
        policy = RetryPolicy(max_attempts=3, base_delay=30.0, jitter=0.0)
        ex = Executor(2, 0)
        parked = ex.run(hf, policy=policy)
        deadline = time.monotonic() + 10
        while (
            ex.metrics.snapshot()["resilience.retries"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        fut = ex.run(hf, sanitize=True, metrics=True)
        ex.shutdown(wait=False)
        for f in (parked, fut):
            with pytest.raises(CancelledError):
                f.result(timeout=5)
        _assert_reports(fut)
        _assert_settled_clean(ex, body, originals)

    def test_drain_force_resolves_a_wedged_run(self):
        from repro.errors import ExecutorError

        gate, started = threading.Event(), threading.Event()
        hf, body, originals = _lifecycle_graph(gate, started)
        with Executor(2, 0) as ex:
            fut = ex.run(hf, sanitize=True, metrics=True)
            assert started.wait(10)
            assert ex.drain(timeout=0.2, cancel_grace=0.2) is False
            # the task is still wedged, yet the future has settled with
            # both reports filled
            assert not gate.is_set()
            with pytest.raises(ExecutorError):
                fut.result(timeout=0)
            _assert_reports(fut)
            gate.set()
            _assert_settled_clean(ex, body, originals)

    def test_zero_passes_resolves_at_submission(self):
        hf, body, originals = _lifecycle_graph(threading.Event())
        with Executor(2, 0) as ex:
            fut = ex.run_n(hf, 0, sanitize=True, metrics=True)
            assert fut.result(timeout=0) == 0
            _assert_reports(fut)
            _assert_settled_clean(ex, body, originals)

    def test_one_future_entry_per_outstanding_submission(self):
        gate, started = threading.Event(), threading.Event()
        hf, body, originals = _lifecycle_graph(gate, started)
        with Executor(2, 0) as ex:
            front = ex.run(hf)
            try:
                assert started.wait(10)
                queued = [
                    ex.run(hf, sanitize=True, metrics=True),
                    ex.run(hf, sanitize=True, metrics=True),
                    ex.run(hf, metrics=True),
                    ex.run(hf, sanitize=True),
                ]
                with ex._graph_lock:
                    entries = dict(ex._futures)
                assert set(entries) == {front, *queued}
                assert len(set(map(id, entries.values()))) == len(entries)
                # each report attribute is None from submission on,
                # exactly when it was requested
                for f in queued[:3]:
                    assert f.run_report is None
                for f in (queued[0], queued[1], queued[3]):
                    assert f.sanitize_report is None
                assert not hasattr(queued[2], "sanitize_report")
                assert not hasattr(queued[3], "run_report")
            finally:
                gate.set()
            for f in (front, *queued):
                f.result(timeout=30)
            for f in queued[:3]:
                assert f.run_report is not None
            for f in (queued[0], queued[1], queued[3]):
                assert f.sanitize_report is not None
            _assert_settled_clean(ex, body, originals)


    def test_finishers_run_once_under_withdraw_races(self):
        """Cancels and deadlines race promotion and finalization of
        profiled, sanitized siblings on more workers than cores, with a
        1 us switch interval: every future resolves with both reports
        set, each sanitize finisher ticks ``sanitize.runs`` exactly
        once, and nothing is left registered."""
        from concurrent.futures import CancelledError

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Executor(4, 0) as ex:
                futs = []
                for i in range(60):
                    hf = Heteroflow(f"race{i}")
                    log = []
                    hf.host(lambda: log.append(time.sleep(0.0005)), name="h")
                    first = ex.run(hf, sanitize=True, metrics=True)
                    second = ex.run(
                        hf, sanitize=True, metrics=True,
                        deadline=0.001 if i % 3 == 0 else None,
                    )
                    futs += [first, second]
                    target = second if i % 2 == 0 else first
                    canceller = threading.Thread(target=ex.cancel, args=(target,))
                    canceller.start()
                    canceller.join(10)
                    assert not canceller.is_alive()
                for f in futs:
                    try:
                        f.result(timeout=30)
                    except CancelledError:
                        pass
                    _assert_reports(f)
                ex.wait_for_all()
                assert ex.metrics.snapshot()["sanitize.runs"] == len(futs)
                assert ex._observers == []
                with ex._graph_lock:
                    assert ex._futures == {} and ex._graph_queues == {}
        finally:
            sys.setswitchinterval(old)


class TestSweep:
    def test_sweep_smoke_is_clean(self, verify_run):
        code, doc = verify_run("sanitize")
        assert code == 0, doc["violations"][:5]
        assert doc["num_scenarios"] == 3
        assert doc["totals"]["divergences"] == 0
        assert doc["totals"]["checked_tasks"] > 0


class TestFootprintSingleDefinition:
    def test_admission_reuses_the_analyzer_predictor(self):
        from repro.analysis.model import predicted_footprint_bytes as a
        from repro.service.admission import predicted_footprint_bytes as b

        assert a is b

    def test_footprint_matches_on_a_graph(self):
        from repro.analysis.model import predicted_footprint_bytes

        hf, _, _ = build_saxpy()
        assert predicted_footprint_bytes(hf) > 0


# ---------------------------------------------------------------------
# kernel ctx arity: one rule for every callable shape and every path
# ---------------------------------------------------------------------
def _check_ctx(ctx):
    from repro.gpu.kernel import KernelContext

    assert isinstance(ctx, KernelContext)


def _inc(v):
    v += 1.0


def _inc_ctx(ctx, v):
    _check_ctx(ctx)
    v += 1.0


def _inc_by(v, by):
    v += by


def _inc_by_ctx(ctx, v, by):
    _check_ctx(ctx)
    v += by


class _Kernels:
    def inc(self, v):
        v += 1.0

    def inc_ctx(self, ctx, v):
        _check_ctx(ctx)
        v += 1.0


class _IncCallable:
    def __call__(self, v):
        v += 1.0


class _IncCtxCallable:
    def __call__(self, ctx, v):
        _check_ctx(ctx)
        v += 1.0


def _kernel_shapes():
    import functools

    return {
        "function": _inc,
        "function-ctx": _inc_ctx,
        "bound-method": _Kernels().inc,
        "bound-method-ctx": _Kernels().inc_ctx,
        "partial": functools.partial(_inc_by, by=1.0),
        "partial-ctx": functools.partial(_inc_by_ctx, by=1.0),
        "callable": _IncCallable(),
        "callable-ctx": _IncCtxCallable(),
    }


class TestKernelContextArity:
    """Whether a kernel receives a KernelContext depends only on its
    first parameter being named ``ctx``: the same answer for plain,
    sanitized and degraded (host-fallback) runs."""

    @pytest.mark.parametrize("mode", ["plain", "sanitized", "degraded"])
    @pytest.mark.parametrize("shape", sorted(_kernel_shapes()))
    def test_kernel_shapes(self, shape, mode):
        data = np.zeros(8)
        hf = Heteroflow("arity")
        pull = hf.pull(data, name="pull")
        k = hf.kernel(_kernel_shapes()[shape], pull, name="k").host_fallback()
        push = hf.push(pull, data, name="push")
        pull.precede(k)
        k.precede(push)
        with Executor(num_workers=1, num_gpus=1) as e:
            if mode == "degraded":
                e.gpu_runtime.device(0).fail()
            e.run(hf, sanitize=mode == "sanitized").result(timeout=30)
            if mode == "degraded":
                assert e.metrics.snapshot()["resilience.fallback_tasks"] == 1
        np.testing.assert_array_equal(data, np.ones(8))

    def test_unhashable_callable_still_resolved(self):
        from repro.gpu.kernel import wants_context

        class Unhashable(_IncCtxCallable):
            __hash__ = None

        assert wants_context(Unhashable())
        assert not wants_context(np.add)  # not weakly referenceable
