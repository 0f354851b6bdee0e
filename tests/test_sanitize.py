"""hfsan runtime sanitizer tests (repro.analysis.sanitize).

The sanitizer swaps recording proxies into task callables, runs the
graph normally, and cross-checks every observed access against the
static effect inference.  These tests cover: clean runs stay clean and
numerically intact, a deliberately-wrong declaration diverges, proxies
uninstall after the run, the frozen path works, the check sweep is
sound, and the footprint predictor stays a single shared definition.
"""

import numpy as np
import pytest

from repro.analysis.sanitize import SCHEMA, SanitizerSession
from repro.check import run_sanitize_sweep
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


class TestSweep:
    def test_sweep_smoke_is_clean(self):
        report = run_sanitize_sweep(3, num_workers=2, num_gpus=1)
        assert report.ok, report.violations[:5]
        assert report.num_runs == 3
        assert report.num_divergences == 0
        doc = report.as_dict()
        assert doc["schema"] == "repro.sanitize-sweep/1"


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
