"""Tests for the work-stealing CPU-GPU executor."""

import threading
import time

import numpy as np
import pytest

from repro.core import Executor, Heteroflow, TraceObserver
from repro.errors import ExecutorError, GraphError, KernelError
from tests.conftest import saxpy_kernel


class TestBasicExecution:
    def test_saxpy_listing1(self, executor, saxpy_graph):
        hf, x, y, n = saxpy_graph
        executor.run(hf).result(timeout=30)
        assert y == [4] * n
        assert x == [1] * n

    def test_host_only_graph_no_gpus(self, cpu_executor):
        hf = Heteroflow()
        seen = []
        a = hf.host(lambda: seen.append("a"))
        b = hf.host(lambda: seen.append("b"))
        a.precede(b)
        cpu_executor.run(hf).result(timeout=10)
        assert seen == ["a", "b"]

    def test_gpu_graph_on_cpu_executor_fails(self, cpu_executor):
        hf = Heteroflow()
        hf.pull([1, 2])
        with pytest.raises(ExecutorError):
            cpu_executor.run(hf).result(timeout=10)

    def test_empty_graph_completes_immediately(self, executor):
        assert executor.run(Heteroflow()).result(timeout=5) == 0

    def test_diamond_ordering(self, executor):
        hf = Heteroflow()
        log = []
        lock = threading.Lock()

        def mark(tag):
            def f():
                with lock:
                    log.append(tag)

            return f

        a = hf.host(mark("a"))
        b = hf.host(mark("b"))
        c = hf.host(mark("c"))
        d = hf.host(mark("d"))
        a.precede(b, c)
        d.succeed(b, c)
        executor.run(hf).result(timeout=10)
        assert log[0] == "a" and log[-1] == "d"
        assert set(log[1:3]) == {"b", "c"}

    def test_wide_fanout(self, executor):
        hf = Heteroflow()
        counter = [0]
        lock = threading.Lock()

        def inc():
            with lock:
                counter[0] += 1

        root = hf.host(lambda: None)
        for _ in range(64):
            root.precede(hf.host(inc))
        executor.run(hf).result(timeout=30)
        assert counter[0] == 64

    def test_fig3_data_reuse_via_transitive_dependency(self, executor):
        """Listing 10 / Fig. 3: kernel2 reads pull1's device data with
        only a transitive dependency through kernel1."""
        vec1: list = []
        vec2: list = []
        hf = Heteroflow()
        host1 = hf.host(lambda: vec1.extend([0] * 64))
        host2 = hf.host(lambda: vec2.extend([1] * 64))
        pull1 = hf.pull(vec1)
        pull2 = hf.pull(vec2)

        def k1(v1):
            v1 += 5  # whole-array kernel

        def k2(v1, v2):
            v2 += v1  # reads pull1's data updated by k1

        kernel1 = hf.kernel(k1, pull1)
        kernel2 = hf.kernel(k2, pull1, pull2)
        push1 = hf.push(pull1, vec1)
        push2 = hf.push(pull2, vec2)
        host1.precede(pull1)
        host2.precede(pull2)
        pull1.precede(kernel1)
        pull2.precede(kernel2)
        kernel1.precede(push1, kernel2)
        kernel2.precede(push2)
        executor.run(hf).result(timeout=30)
        assert vec1 == [5] * 64
        assert vec2 == [6] * 64


class TestRepeatedExecution:
    def test_run_n_stateful_accumulation(self, executor):
        """Each pass sees the previous pass's mutations (the stateful
        transition the paper's Listing 4 discussion requires)."""
        hf = Heteroflow()
        data = np.zeros(16, dtype=np.float64)
        pull = hf.pull(data)

        def inc(arr):
            arr += 1

        k = hf.kernel(inc, pull)
        push = hf.push(pull, data)
        pull.precede(k)
        k.precede(push)
        assert executor.run_n(hf, 5).result(timeout=30) == 5
        assert set(data) == {5.0}

    def test_run_n_zero(self, executor, saxpy_graph):
        hf, x, y, n = saxpy_graph
        assert executor.run_n(hf, 0).result(timeout=5) == 0
        assert x == []  # nothing ran

    def test_run_until_predicate(self, executor):
        hf = Heteroflow()
        counter = [0]
        hf.host(lambda: counter.__setitem__(0, counter[0] + 1))
        passes = executor.run_until(hf, lambda: counter[0] >= 7).result(timeout=30)
        assert counter[0] == 7
        assert passes == 7

    def test_run_until_requires_callable(self, executor):
        with pytest.raises(ExecutorError):
            executor.run_until(Heteroflow(), "not callable")

    def test_negative_run_n_rejected(self, executor):
        with pytest.raises(ExecutorError):
            executor.run_n(Heteroflow(), -1)

    def test_same_graph_serialized_submissions(self, executor):
        """Submitting one graph twice queues the topologies; both
        complete and effects accumulate in order."""
        hf = Heteroflow()
        log = []
        lock = threading.Lock()
        hf.host(lambda: (lock.acquire(), log.append(len(log)), lock.release()))
        f1 = executor.run_n(hf, 3)
        f2 = executor.run_n(hf, 2)
        assert f1.result(timeout=30) == 3
        assert f2.result(timeout=30) == 2
        assert log == [0, 1, 2, 3, 4]

    def test_pull_regrows_buffer_between_passes(self, executor):
        """A host task grows the container every pass; the pull buffer
        must be reallocated to fit."""
        hf = Heteroflow()
        data: list = [1]
        grow = hf.host(lambda: data.extend([1] * len(data)))
        pull = hf.pull(data)
        push = hf.push(pull, data)
        grow.precede(pull)
        pull.precede(push)
        executor.run_n(hf, 4).result(timeout=30)
        assert len(data) == 16

    def test_fresh_graph_lowered_again_every_submission(self):
        """A fresh submission runs the graph as it was at submission
        time: an edge added and a callable rebound between two runs
        both reach the second run."""
        log = []
        hf = Heteroflow()
        tasks = {
            name: hf.host(lambda name=name: log.append(name), name=name)
            for name in ("a", "b")
        }
        with Executor(1, 0) as ex:  # one worker: a deterministic order
            ex.run(hf).result(timeout=30)
            first, second = log
            log.clear()
            # reverse the order the first run happened to use, and
            # rebind the task that now has to wait
            tasks[second].precede(tasks[first])
            tasks[first].host(lambda: log.append("rebound"))
            ex.run(hf).result(timeout=30)
        assert log == [second, "rebound"]


class TestErrors:
    def test_host_exception_reaches_future(self, executor):
        hf = Heteroflow()
        hf.host(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            executor.run(hf).result(timeout=10)

    def test_kernel_exception_reaches_future(self, executor):
        hf = Heteroflow()
        p = hf.pull([1, 2])

        def bad(arr):
            raise ValueError("kernel bug")

        k = hf.kernel(bad, p)
        p.precede(k)
        with pytest.raises(ValueError):
            executor.run(hf).result(timeout=10)

    def test_downstream_tasks_cancelled_after_failure(self, executor):
        hf = Heteroflow()
        ran = []
        a = hf.host(lambda: 1 / 0)
        b = hf.host(lambda: ran.append(1))
        a.precede(b)
        with pytest.raises(ZeroDivisionError):
            executor.run(hf).result(timeout=10)
        assert ran == []

    def test_missing_pull_dependency_detected(self, executor):
        """A kernel scheduled in parallel with its pull (user forgot
        the edge) either works or raises KernelError — never hangs or
        corrupts.  With no edge at all and independent sources the
        kernel can run first, which must raise."""
        hf = Heteroflow()
        blocker = hf.host(lambda: time.sleep(0.2))
        p = hf.pull([1, 2, 3])
        blocker.precede(p)  # delay the pull
        k = hf.kernel(lambda arr: None, p)  # no pull -> kernel edge!
        with pytest.raises(KernelError):
            executor.run(hf).result(timeout=10)

    def test_executor_rejects_bad_counts(self):
        with pytest.raises(ExecutorError):
            Executor(0, 0)
        with pytest.raises(ExecutorError):
            Executor(1, -1)

    def test_run_after_shutdown_rejected(self):
        ex = Executor(1, 0)
        ex.shutdown()
        with pytest.raises(ExecutorError):
            ex.run(Heteroflow())

    def test_validation_error_propagates_at_submit(self, executor):
        hf = Heteroflow()
        a = hf.host(lambda: None)
        b = hf.host(lambda: None)
        a.precede(b)
        b.precede(a)
        with pytest.raises(GraphError):
            executor.run(hf)


class TestConcurrency:
    def test_nonblocking_run(self, executor):
        hf = Heteroflow()
        gate = threading.Event()
        hf.host(gate.wait)
        fut = executor.run(hf)
        assert not fut.done()  # returned before the task finished
        gate.set()
        fut.result(timeout=10)

    def test_wait_for_all(self, executor):
        graphs = []
        counters = []
        for _ in range(4):
            hf = Heteroflow()
            c = [0]
            hf.host(lambda c=c: c.__setitem__(0, c[0] + 1))
            graphs.append(hf)
            counters.append(c)
            executor.run_n(hf, 3)
        executor.wait_for_all()
        assert [c[0] for c in counters] == [3, 3, 3, 3]

    def test_submission_from_many_threads(self, executor):
        """The executor interface is thread-safe (paper §III-B)."""
        results = []
        lock = threading.Lock()

        def submit(i):
            hf = Heteroflow()
            out = []
            hf.host(lambda: out.append(i))
            executor.run(hf).result(timeout=30)
            with lock:
                results.extend(out)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(results) == list(range(8))

    def test_many_independent_graphs_in_flight(self, executor):
        futs = []
        outs = []
        for i in range(10):
            hf = Heteroflow()
            out = []
            outs.append(out)
            a = hf.host(lambda out=out, i=i: out.append(i))
            b = hf.host(lambda out=out: out.append("end"))
            a.precede(b)
            futs.append(executor.run(hf))
        for f in futs:
            f.result(timeout=30)
        assert all(len(o) == 2 for o in outs)


class TestResources:
    def test_buffers_released_after_topology(self, executor, saxpy_graph):
        hf, x, y, n = saxpy_graph
        executor.run(hf).result(timeout=30)
        for dev in executor.gpu_runtime.devices:
            assert dev.heap.bytes_in_use == 0

    def test_multi_gpu_distribution(self, executor):
        """Independent groups land on both GPUs of the fixture."""
        hf = Heteroflow()
        for i in range(6):
            p = hf.pull(np.full(256, float(i)))
            k = hf.kernel(lambda a: None, p)
            p.precede(k)
        obs = TraceObserver()
        executor.add_observer(obs)
        executor.run(hf).result(timeout=30)
        assert set(obs.tasks_per_device()) == {0, 1}

    def test_observer_records_every_task(self, executor, saxpy_graph):
        hf, *_ = saxpy_graph
        obs = TraceObserver()
        executor.add_observer(obs)
        executor.run(hf).result(timeout=30)
        counts = obs.count_by_type()
        assert counts == {"host": 2, "pull": 2, "kernel": 1, "push": 2}
        assert obs.topologies_started == 1
        assert obs.topologies_finished == 1

    def test_placeholder_filled_before_run(self, executor):
        from repro.core.task import HostTask

        hf = Heteroflow()
        ph = hf.placeholder(HostTask)
        out = []
        tail = hf.host(lambda: out.append("tail"))
        ph.precede(tail)
        ph.host(lambda: out.append("head"))  # decided late
        executor.run(hf).result(timeout=10)
        assert out == ["head", "tail"]

    def test_context_manager_shutdown(self):
        with Executor(1, 1) as ex:
            hf = Heteroflow()
            hf.host(lambda: None)
            ex.run(hf)
        # exiting waits and shuts down without error


def _add_one(v):
    v += 1.0


def _gpu_chain(kernels=8):
    """pull -> *kernels* kernels -> push over one array; every kernel
    has a host fallback, so the chain also runs degraded."""
    data = np.arange(64, dtype=np.float64)
    hf = Heteroflow("gpu-chain")
    pull = hf.pull(data, name="pull")
    prev = pull
    for i in range(kernels):
        k = hf.kernel(_add_one, pull, name=f"k{i}").host_fallback()
        prev.precede(k)
        prev = k
    push = hf.push(pull, data, name="push")
    prev.precede(push)
    return hf, data


class TestGpuContinuation:
    """Stream-ordered continuation: on the healthy route a finished GPU
    task launches its ready GPU successors from its stream dispatcher,
    so they never pass through a queue — and only there (recovery,
    host fallbacks and sanitized runs keep the queue path).  With one
    worker every pop is deterministic: the submitter pushes the source
    pull to the shared queue and, on the queue path, each stream
    callback pushes the next GPU task there too.  Together with
    ``test_metrics.py``'s exact-count tests for dispatcher-side lane
    increments under a 1 us switch interval, this class is the route
    gate for continuation; it runs in the tier-1 suite."""

    CHAIN = 10  # pull + 8 kernels + push

    def _counts(self, ex, hf, **run_kw):
        before = ex.metrics.snapshot()
        ex.run(hf, **run_kw).result(timeout=30)
        ex.wait_for_all()
        after = ex.metrics.snapshot()
        return {
            k: [a - b for a, b in zip(after[k], before[k])]
            for k in (
                "executor.tasks_executed",
                "executor.shared_pops",
                "executor.local_pops",
                "executor.continued_launches",
                "executor.inplace_launches",
            )
        }

    def test_gpu_successors_skip_the_queues(self):
        hf, data = _gpu_chain()
        with Executor(1, 1) as ex:
            c = self._counts(ex, hf)
        np.testing.assert_array_equal(data, np.arange(64) + 8.0)
        assert c["executor.tasks_executed"] == [self.CHAIN]
        assert c["executor.shared_pops"] == [1]  # the source pull only
        assert c["executor.local_pops"] == [0]
        assert c["executor.continued_launches"] == [self.CHAIN - 1]

    def test_host_predecessor_launches_its_gpu_successor_in_place(self):
        """A worker that finishes a host task launches the ready GPU
        successor itself (an in-place launch), which takes over the host
        slot's in-flight count: after the host source no item passes
        through a queue, and the chain continues on the dispatcher."""
        data = np.arange(64, dtype=np.float64)
        hf = Heteroflow("host-gpu-chain")
        src = hf.host(lambda: None, name="src")
        prev = pull = hf.pull(data, name="pull")
        src.precede(pull)
        for i in range(self.CHAIN - 2):
            k = hf.kernel(_add_one, pull, name=f"k{i}")
            prev.precede(k)
            prev = k
        prev.precede(hf.push(pull, data, name="push"))
        with Executor(1, 1) as ex:
            c = self._counts(ex, hf)
        np.testing.assert_array_equal(data, np.arange(64) + 8.0)
        assert c["executor.tasks_executed"] == [self.CHAIN + 1]
        assert c["executor.shared_pops"] == [1]  # the host source only
        assert c["executor.local_pops"] == [0]
        assert c["executor.inplace_launches"] == [1]  # the pull
        assert c["executor.continued_launches"] == [self.CHAIN - 1]

    def test_armed_fault_profile_takes_the_queue_path(self):
        from repro.resilience import FaultProfile

        hf, data = _gpu_chain()
        with Executor(1, 1) as ex:
            # armed, but never reached: the run itself is fault-free
            ex.gpu_runtime.device(0).configure_faults(
                FaultProfile(die_at_op=10**6), seed=0
            )
            c = self._counts(ex, hf)
        np.testing.assert_array_equal(data, np.arange(64) + 8.0)
        assert c["executor.tasks_executed"] == [self.CHAIN]
        assert c["executor.shared_pops"] == [self.CHAIN]
        assert c["executor.continued_launches"] == [0]

    def test_sanitized_run_takes_the_queue_path(self):
        hf, data = _gpu_chain()
        with Executor(1, 1) as ex:
            c = self._counts(ex, hf, sanitize=True)
        np.testing.assert_array_equal(data, np.arange(64) + 8.0)
        assert c["executor.tasks_executed"] == [self.CHAIN]
        assert c["executor.shared_pops"] == [self.CHAIN]
        assert c["executor.continued_launches"] == [0]

    def test_degraded_topology_takes_the_queue_path(self):
        hf, data = _gpu_chain()
        with Executor(1, 1) as ex:
            # the first run discovers the dead device and degrades
            ex.gpu_runtime.device(0).fail()
            ex.run(hf).result(timeout=30)
            assert ex.alive_gpus == []
            c = self._counts(ex, hf)
        np.testing.assert_array_equal(data, np.arange(64) + 16.0)
        # degraded from the start: every GPU task runs on the worker and
        # releases its successor into the worker's own queue
        assert c["executor.tasks_executed"] == [self.CHAIN]
        assert c["executor.shared_pops"] == [1]
        assert c["executor.local_pops"] == [self.CHAIN - 1]
        assert c["executor.continued_launches"] == [0]

    def test_continued_traces_validate(self):
        """A worker's streams take launches from the worker and from the
        dispatchers continuing its lane; with a 1 us switch interval the
        traces still pass every validator check, stream order included
        (each stream's dispatch stamps follow its FIFO order)."""
        import sys

        from repro.check import generate_graph
        from repro.check.validate import validate_schedule

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            continued = 0
            for workers, gpus in ((1, 1), (2, 2)):
                for seed in range(20):
                    gen = generate_graph(seed, num_gpus=gpus)
                    obs = TraceObserver()
                    with Executor(workers, gpus, observers=[obs]) as ex:
                        ex.run_n(gen.graph, 3).result(timeout=60)
                        snap = ex.metrics.snapshot()
                    continued += sum(snap["executor.continued_launches"])
                    validate_schedule(
                        gen.graph, obs.records, passes=3, num_gpus=gpus
                    ).raise_if_failed()
        finally:
            sys.setswitchinterval(old)
        assert continued > 0
