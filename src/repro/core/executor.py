"""The Heteroflow executor: CPU workers + GPU co-scheduling.

Reproduces the runtime of paper §III-B/C:

- ``Executor(num_workers, num_gpus)`` spawns *uniform* CPU worker
  threads — no worker is dedicated to a GPU ("we do not dedicate a
  worker to manage a target GPU"); GPU work is dispatched by whichever
  worker picks up the task;
- every submission is **lowered** to slots (a fresh graph when it
  changed since its last submission — an unchanged one reuses that
  lowering and its placement groups — a frozen graph once at
  ``freeze()``), goes through **device placement** (Algorithm 1: the
  groups are packed afresh every fresh submission; the whole plan is
  cached for frozen graphs), then enters one **work-stealing** loop
  over chunks of ready slots: each worker drains its local queue and
  turns thief when empty, stealing from a random victim.  Every slot
  of every submission runs through one slot loop (``_invoke``) with
  one completion step and one failure step; the submission's
  configuration decides only what wraps a slot's call — the in-flight
  set for a topology with GPU slots (recovery needs quiescence), and
  an ``_Attempt`` token only for a retry policy, timeout, sanitizer or
  degraded device (retries, watchdogs, host fallbacks), or after a
  failure.  Readiness lives on the topology, whose one slot-join step
  (:meth:`Topology.join`) releases successors;
- GPU tasks are launched with their device current on the launching
  thread (the RAII scope of Listing 13), on a **per-(worker, device)
  stream**, and complete asynchronously — the dispatching worker moves
  on immediately, and the stream callback releases successors (the
  event-synchronized pattern of Listing 13).  On the healthy path the
  loop that completed a slot — a worker's or a stream callback's —
  launches the ready GPU successors itself, onto the same worker's
  streams (in-place launch, stream-ordered continuation), handing the
  first one its in-flight count; only the other successors go back to
  the queues.  Each kernel's launch is compiled once per lowering
  (:attr:`Lowering.kernel_launches`);
- per-device **buddy-allocator memory pools** back all pull buffers;
- ``run`` / ``run_n`` / ``run_until`` are non-blocking; each builds one
  topology and returns its one future; ``wait_for_all`` blocks until
  every submitted graph is done; the whole interface is thread-safe.

Every executor also owns a :class:`~repro.metrics.MetricsRegistry`
(``executor.metrics``) fed by the worker loops — tasks executed, steal
attempts/successes, sleep/wake transitions, queue high-water marks —
plus pull-style snapshots of the GPU layer and the buddy pools; and
``run(..., metrics=True)`` profiles a single submission into a
:class:`~repro.metrics.RunReport`.  The full metric catalog is in
``docs/observability.md``.  Profiling and ``sanitize=True`` do not wrap
the future: they attach *finishers* to the topology, which runs them
exactly once just before its future resolves — on finalization, a
withdrawn queued submission, drain's force-resolve and a stranded
shutdown alike — so ``run_report`` / ``sanitize_report`` are filled
whenever the future is.

**Fault tolerance** (docs/resilience.md).  Submissions accept a
:class:`~repro.resilience.RetryPolicy`/`ResiliencePolicy` via
``run(..., policy=...)``; tasks override with ``task.retry(...)`` and
``task.timeout(...)``.  A failed attempt never commits a trace record —
the retry loop re-schedules the node, so exact-once validation holds
across retries.  A :class:`~repro.errors.DeviceFailedError` from a GPU
slot's launch or stream callback quarantines the device and triggers
*quiescence-based recovery* (raised by a host callable, it is an
ordinary task error): queued work of the topology is invalidated (a
generation counter), the last in-flight task to drain runs the
recovery pass, which retracts committed executions whose data lived on
the dead device, re-packs their placement groups onto surviving GPUs
(or degrades every GPU task to its registered ``.host_fallback`` when
none survive), rebuilds the slot joins over the remaining slots, and
re-dispatches.

**Overload protection** (docs/runtime.md, "Submission lifecycle").
An :class:`~repro.service.AdmissionController` attached at
construction (``Executor(admission=...)``) bounds outstanding
submissions by topology count and predicted device-memory footprint
(the hflint HF020 static model), with ``block``/``reject``/``shed``
backpressure.  ``run(..., deadline=, priority=)`` arms a per-submission
deadline on the shared timer wheel (firing records a structured
``deadline_exceeded`` event) and orders both the graph FIFO and the
cross-graph overflow queue by priority.  ``cancel``, a firing deadline,
drain's stragglers and a shed victim share one withdraw rule: a
submission still queued is unlinked and resolved at once; a started one
is cancelled cooperatively (its remaining tasks flush unrun).
``drain(timeout=)`` stops admission and settles every outstanding
future; ``shutdown(wait=False)`` never strands a future — anything
still unresolved after teardown resolves with ``CancelledError``.
Progress is observable through the ``service.*`` metrics
(docs/observability.md).
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro._lazy import np
from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.core.notifier import Notifier
from repro.core.observer import ExecutorObserver
from repro.core.placement import (
    CostMetric,
    DevicePlacement,
    apply_assignment,
    snapshot_assignment,
)
from repro.core.topology import (
    PASS_DONE,
    SLOT_STREAM,
    FrozenTopology,
    Lowering,
    Topology,
)
from repro.core.wsq import PriorityOverflowQueue, WorkStealingQueue
from repro.errors import (
    AdmissionRejectedError,
    DeviceFailedError,
    ExecutorError,
    KernelError,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.gpu.device import DEFAULT_MEMORY_BYTES, GpuRuntime, thread_device
from repro.gpu.stream import Stream
from repro.metrics.registry import MetricsRegistry
from repro.resilience.degrade import (
    kernels_without_fallback,
    replan,
    run_degraded_kernel,
    run_degraded_pull,
    run_degraded_push,
)
from repro.service.admission import (
    AdmissionController,
    predicted_footprint_bytes,
)

#: queue items are (topology, slot chunk, generation) triples; stale
#: generations are dropped by workers after a recovery pass
WorkItem = Tuple[Topology, Tuple[int, ...], int]

#: how long a committed sleeper waits before re-polling the queues;
#: bounds the cost of any lost-wakeup bug without busy spinning
_SLEEP_TIMEOUT = 0.02

# the launch visitor's kinds as module globals: an enum attribute
# lookup per launch costs more than the rest of the test
_PULL, _KERNEL = TaskType.PULL, TaskType.KERNEL


def _push_source(node: Node):
    """Push *node*'s source buffer: its pull's, which must have run."""
    src = node.source.buffer
    if src is None:
        raise KernelError(
            f"push task {node.name!r} ran before its pull task "
            f"{node.source.name!r}; add the missing dependency"
        )
    return src


class _LaneCells(threading.local):
    """The cells one thread counts the executor's lane counters into
    (``cells[wid] += n``), looked up once per thread instead of once
    per slot loop: on a worker, the lanes' own cells
    (:meth:`LaneCounter.cells` with ``owner=True``), written only by
    that worker; on any other thread (a stream dispatcher continuing a
    worker's lane, a timer), a private shard of each counter.
    *launched* counts a GPU successor launched by the loop that
    completed its predecessor: ``executor.inplace_launches`` on a
    worker, ``executor.continued_launches`` elsewhere."""

    def __init__(self, tls, tasks, flushed, inplace, continued) -> None:
        # *tls* holds a worker's id from the start of its loop
        owner = getattr(tls, "wid", None) is not None
        self.tasks = tasks.cells(owner)
        self.flushed = flushed.cells(owner)
        self.launched = (inplace if owner else continued).cells(owner)


class _CompiledPlan:
    """One executor's compiled plan of a :class:`FrozenTopology`, kept
    in ``frozen.plans[executor]``.

    The placement grouping and device assignment depend on the
    executor's GPU count and which devices are still alive.  ``alive``
    snapshots the live-device set the plan was compiled against — any
    difference (a device died, or the stale plan was replanned in place
    during recovery) invalidates the entry and the next submission
    recompiles.
    """

    __slots__ = ("placement", "pairs", "alive")

    def __init__(self, placement, pairs, alive) -> None:
        self.placement = placement
        #: (node, ordinal) assignment snapshot, re-applied at each
        #: replay start (recovery of a sibling run may have moved nodes)
        self.pairs = pairs
        self.alive = alive


class _TimerThread:
    """Lazy shared timer for task deadlines and delayed retries.

    One daemon thread serves a heap of ``(when, seq, entry)`` items;
    an entry is a one-element list holding the callback, and cancelling
    simply nulls it out (the fire becomes a no-op).  Callbacks run on
    the timer thread and must be quick or re-dispatch to the executor.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._cv = threading.Condition()
        self._seq = itertools.count()
        self._stopped = False
        self._thread: Optional[threading.Thread] = None

    def schedule(self, delay: float, fn: Callable[[], None]) -> list:
        entry = [fn]
        when = time.monotonic() + max(delay, 0.0)
        with self._cv:
            if self._stopped:
                return entry
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="hf-timer", daemon=True
                )
                self._thread.start()
            heapq.heappush(self._heap, (when, next(self._seq), entry))
            self._cv.notify()
        return entry

    @staticmethod
    def cancel(entry: list) -> None:
        entry[0] = None

    def _loop(self) -> None:
        while True:
            with self._cv:
                while True:
                    if self._stopped:
                        return
                    if not self._heap:
                        self._cv.wait()
                        continue
                    when, _, entry = self._heap[0]
                    now = time.monotonic()
                    if when <= now:
                        heapq.heappop(self._heap)
                        break
                    self._cv.wait(when - now)
                fn = entry[0]
            if fn is not None:
                try:
                    fn()
                except BaseException:  # pragma: no cover - callback bug
                    pass

    def stop(self) -> None:
        with self._cv:
            self._stopped = True
            self._cv.notify()
            thread = self._thread
        if thread is not None:
            thread.join()


class _Attempt:
    """One execution attempt of one task: first-resolver-wins token.

    A GPU attempt can finish three ways — stream callback, deadline
    timer, or a synchronous raise before enqueue.  Whichever path calls
    :meth:`resolve` first owns the outcome; the others become no-ops,
    so a timed-out op that later drains cannot double-complete the
    task.  Only a deadline's watchdog races another resolver, so the
    lock exists only when the attempt has a deadline: without one, the
    stream callback and a raise before enqueue exclude each other.

    Only policied and degraded slots get one up front; an unpolicied
    slot gets one when it fails, to take the failure step.
    """

    __slots__ = (
        "topology",
        "slot",
        "wid",
        "gen",
        "timeout_s",
        "t0",
        "stream",
        "timer_entry",
        "fallback",
        "_resolved",
        "_lock",
    )

    def __init__(
        self,
        topology: Topology,
        slot: int,
        wid: int,
        gen: int,
        timeout_s: Optional[float],
    ) -> None:
        self.topology = topology
        self.slot = slot
        self.wid = wid
        self.gen = gen
        self.timeout_s = timeout_s
        self.t0 = time.perf_counter()
        self.stream: Optional[Stream] = None
        self.timer_entry: Optional[list] = None
        self.fallback = False
        self._resolved = False
        self._lock = None if timeout_s is None else threading.Lock()

    @property
    def node(self):
        return self.topology.lowering.nodes[self.slot]

    def resolve(self) -> bool:
        lock = self._lock
        if lock is None:
            if self._resolved:
                return False
            self._resolved = True
            return True
        with lock:
            if self._resolved:
                return False
            self._resolved = True
            return True


class Executor:
    """Runs Heteroflow graphs over N CPU workers and M simulated GPUs."""

    def __init__(
        self,
        num_workers: Optional[int] = None,
        num_gpus: int = 0,
        *,
        gpu_memory_bytes: int = DEFAULT_MEMORY_BYTES,
        observers: Sequence[ExecutorObserver] = (),
        cost_metric: Optional[CostMetric] = None,
        seed: int = 0,
        admission: Optional[AdmissionController] = None,
    ) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ExecutorError("executor needs at least one worker")
        if num_gpus < 0:
            raise ExecutorError("GPU count must be non-negative")
        self._num_workers = num_workers
        self._gpu_memory_bytes = gpu_memory_bytes
        self._gpu = GpuRuntime(num_gpus, gpu_memory_bytes)
        self._devices = self._gpu.devices
        self._placement = DevicePlacement(cost_metric)
        self._observers: List[ExecutorObserver] = list(observers)

        self._queues: List[WorkStealingQueue[WorkItem]] = [
            WorkStealingQueue() for _ in range(num_workers)
        ]
        # the shared overflow queue orders cross-graph dispatch by
        # submission priority (docs/runtime.md, submission lifecycle)
        self._shared: PriorityOverflowQueue[WorkItem] = PriorityOverflowQueue()
        self._notifier = Notifier()
        self._done = False
        self._draining = False
        self._admission = admission
        self._submit_seq = itertools.count()

        # metric instruments (docs/observability.md): lane counters are
        # indexed by worker id and written by that worker's thread, so
        # the hot-path cost is one list store — no locks; a dispatcher
        # counting a continued launch for a worker writes its own shard
        # (LaneCounter.cells, looked up once per thread by _LaneCells)
        self.metrics = MetricsRegistry()
        self._m_tasks = self.metrics.lane_counter(
            "executor.tasks_executed", num_workers
        )
        self._m_flushed = self.metrics.lane_counter(
            "executor.tasks_flushed", num_workers
        )
        self._m_local = self.metrics.lane_counter("executor.local_pops", num_workers)
        self._m_shared_pops = self.metrics.lane_counter(
            "executor.shared_pops", num_workers
        )
        self._m_steal_try = self.metrics.lane_counter(
            "executor.steals_attempted", num_workers
        )
        self._m_steal_ok = self.metrics.lane_counter(
            "executor.steals_succeeded", num_workers
        )
        self._m_sleeps = self.metrics.lane_counter("executor.sleeps", num_workers)
        self._m_wakeups = self.metrics.lane_counter("executor.wakeups", num_workers)
        self._m_continued = self.metrics.lane_counter(
            "executor.continued_launches", num_workers
        )
        self._m_inplace = self.metrics.lane_counter(
            "executor.inplace_launches", num_workers
        )
        self.metrics.register_callback(
            "executor.queue_high_water",
            lambda: [q.high_water for q in self._queues],
        )
        self.metrics.register_callback(
            "executor.shared_queue_high_water", lambda: self._shared.high_water
        )
        self.metrics.register_callback(
            "executor.notify_count", lambda: self._notifier.notify_count
        )
        for dev in self._gpu.devices:
            self.metrics.register_callback(f"gpu{dev.ordinal}", dev.stats)

        # resilience counters (docs/resilience.md, docs/observability.md);
        # sharded Counters — safe from worker, dispatcher, timer threads
        self._m_retries = self.metrics.counter("resilience.retries")
        self._m_timeouts = self.metrics.counter("resilience.timeouts")
        self._m_exhausted = self.metrics.counter("resilience.exhausted")
        self._m_device_failures = self.metrics.counter(
            "resilience.device_failures"
        )
        self._m_quarantined = self.metrics.counter(
            "resilience.streams_quarantined"
        )
        self._m_replayed = self.metrics.counter("resilience.replayed_tasks")
        self._m_fallbacks = self.metrics.counter("resilience.fallback_tasks")
        self._m_degraded = self.metrics.counter(
            "resilience.degraded_topologies"
        )

        # service counters + overload gauge (docs/runtime.md submission
        # lifecycle, docs/observability.md); sharded Counters — safe
        # from submitter, worker, and timer threads
        self._m_admitted = self.metrics.counter("service.admitted")
        self._m_rejected = self.metrics.counter("service.rejected")
        self._m_shed = self.metrics.counter("service.shed")
        self._m_deadline = self.metrics.counter("service.deadline_exceeded")
        self._m_adm_blocked = self.metrics.counter("service.admission_blocked")
        self._m_drain_cancelled = self.metrics.counter(
            "service.drain_cancelled"
        )
        self._m_adm_wait = self.metrics.histogram(
            "service.admission_wait_seconds"
        )

        # freeze-and-replay counters (docs/runtime.md "Freeze and
        # replay", docs/observability.md); sharded Counters — submitter
        # and worker threads both start topologies
        self._m_replay_hits = self.metrics.counter("replay.cache_hits")
        self._m_replay_misses = self.metrics.counter("replay.cache_misses")
        self._m_plan_reuses = self.metrics.counter("replay.plan_reuses")
        self._m_fast_path = self.metrics.counter("replay.fast_path")
        self._m_replay_latency = self.metrics.histogram(
            "replay.latency_seconds"
        )
        # fresh-lowering cache (docs/runtime.md "Submission pipeline");
        # sharded Counters — any thread may submit
        self._m_lowering_builds = self.metrics.counter(
            "executor.lowering_builds"
        )
        self._m_lowering_reuses = self.metrics.counter(
            "executor.lowering_reuses"
        )
        # hfsan counters (docs/analysis.md, "Sanitizer"); sharded
        # Counters — the finish cross-check may run on any thread
        self._m_sanitized = self.metrics.counter("sanitize.runs")
        self._m_divergences = self.metrics.counter("sanitize.divergences")

        self.metrics.register_callback(
            "service.overload_state", self._overload_state
        )
        if admission is not None:
            self.metrics.register_callback(
                "service.topologies_in_use",
                lambda: admission.in_use_topologies,
            )
            self.metrics.register_callback(
                "service.footprint_in_use_bytes",
                lambda: admission.in_use_bytes,
            )
            self.metrics.register_callback(
                "service.admission_waiting", lambda: admission.waiting
            )

        # per-graph topology FIFO: serializes repeated submissions of
        # the same graph (device buffers and placement live on the
        # shared nodes)
        self._graph_queues: Dict[int, deque] = {}
        self._graph_lock = threading.Lock()
        # outstanding submission: its future -> its topology, one entry
        # per topology (cancel, drain stragglers, stranding)
        self._futures: Dict[Future, Topology] = {}

        # outstanding-topology accounting for wait_for_all
        self._num_topologies = 0
        self._topology_cv = threading.Condition()

        # lazily created per-(worker, device) streams
        self._streams: List[Dict[int, Stream]] = [{} for _ in range(num_workers)]
        self._stream_lock = threading.Lock()
        # per-worker launch locks: serialize the launches onto worker
        # i's streams made by worker i and by dispatchers continuing
        # its lane (_invoke)
        self._lane_locks = [threading.Lock() for _ in range(num_workers)]

        # device liveness (docs/resilience.md): ordinals not yet failed
        self._alive_gpus: Set[int] = set(range(num_gpus))
        self._quarantine_lock = threading.Lock()
        self._timer = _TimerThread()

        self._tls = threading.local()
        self._lanes = _LaneCells(
            self._tls, self._m_tasks, self._m_flushed, self._m_inplace, self._m_continued
        )
        # ordinals of dead or fault-armed devices (GpuRuntime.guarded):
        # while it is empty no device died and none has a fault profile
        # armed, so GPU successors launch in place and pulls capture no
        # replay snapshot
        self._guarded = self._gpu.guarded
        self._seed = seed
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,), name=f"hf-worker{i}", daemon=True
            )
            for i in range(num_workers)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self._num_workers

    @property
    def num_gpus(self) -> int:
        return self._gpu.device_count

    @property
    def gpu_runtime(self) -> GpuRuntime:
        """The executor-owned simulated GPU runtime (inspection)."""
        return self._gpu

    @property
    def alive_gpus(self) -> List[int]:
        """Ordinals of devices not yet failed/quarantined (sorted)."""
        with self._quarantine_lock:
            return sorted(self._alive_gpus)

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The attached admission controller, if any (inspection)."""
        return self._admission

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` (or shutdown) stopped admission."""
        return self._draining

    def _overload_state(self) -> int:
        """``service.overload_state`` gauge: 0 = admitting freely,
        1 = at capacity (admissions queue or fail per policy),
        2 = at capacity with submitters blocked waiting,
        3 = draining/shut down (no admission at all)."""
        if self._draining or self._done:
            return 3
        ctrl = self._admission
        if ctrl is None or not ctrl.saturated:
            return 0
        return 2 if ctrl.waiting else 1

    def add_observer(self, observer: ExecutorObserver) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: ExecutorObserver) -> None:
        self._observers.remove(observer)

    def profile(self, graph: Heteroflow):
        """Run *graph* once under a fresh trace observer (blocking).

        Returns the :class:`~repro.core.observer.TraceObserver` with the
        run's task records — a one-liner for quick performance looks.
        """
        from repro.core.observer import TraceObserver

        obs = TraceObserver()
        self.add_observer(obs)
        try:
            self.run(graph).result()
        finally:
            self.remove_observer(obs)
        return obs

    def lint(self, graph: Union[Heteroflow, FrozenTopology]):
        """Run hflint over *graph* against this executor's pool size.

        Returns the :class:`repro.analysis.LintReport`; the HF020
        capacity prediction uses the per-device pool capacity this
        executor actually allocates (buddy-rounded), so a graph that
        lints clean here will not statically exhaust these pools.
        For a :class:`~repro.core.topology.FrozenTopology` the report
        comes from the frozen lint cache (one analysis per pool size).
        """
        from repro.analysis.linter import lint as _lint

        if self.num_gpus > 0:
            pool = self._gpu.device(0).heap.capacity
        else:
            pool = self._gpu_memory_bytes
        if isinstance(graph, FrozenTopology):
            return graph.lint(gpu_memory_bytes=pool)
        return _lint(graph, gpu_memory_bytes=pool)

    def run(
        self,
        graph: Union[Heteroflow, FrozenTopology],
        *,
        lint: bool = False,
        metrics: bool = False,
        sanitize: bool = False,
        policy: Optional[object] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        bindings: Optional[Dict[str, Callable]] = None,
    ) -> Future:
        """Run *graph* once; non-blocking, returns a future.

        A fresh graph is validated and lowered to slots at submission
        (an unchanged graph reuses its last lowering): the run sees the
        graph as it was then.  *graph* may instead be
        a :class:`~repro.core.topology.FrozenTopology` (from
        ``Heteroflow.freeze()``): the submission then replays the
        stored lowering and the cached plan — no validation, no
        placement pass, admission footprint from the frozen cache.
        *bindings* (frozen submissions only) maps host-task names to
        replacement callables for this submission; the graph itself
        stays immutable (docs/runtime.md, "Freeze and replay").
        Deadlines, priorities, admission, retries, and cancellation
        behave exactly as for a fresh graph.

        With ``lint=True`` the graph first passes through the hflint
        static analyzer (:mod:`repro.analysis`) and submission raises
        :class:`~repro.errors.LintError` on any error-severity finding
        — catching dataflow races, use-before-transfer hazards, and
        predicted pool exhaustion before any task executes.

        With ``metrics=True`` the submission is traced and profiled:
        the returned future's ``run_report`` attribute is None at
        submission and holds a :class:`~repro.metrics.RunReport` by the
        time the future resolves, however it resolves (per-lane
        utilization, critical path with slack, steal/placement
        summaries — see docs/observability.md).  The report covers only
        this graph's tasks, but the steal/counter snapshot it embeds is
        executor-wide.

        *policy* attaches a run-level
        :class:`~repro.resilience.RetryPolicy` or
        :class:`~repro.resilience.ResiliencePolicy` to every task of
        the submission; per-task ``task.retry``/``task.timeout``
        settings take precedence (docs/resilience.md).

        *deadline* (seconds from submission) bounds the whole
        submission: when it fires, the run is cancelled cooperatively —
        queued, it resolves with ``CancelledError`` immediately;
        started, the remaining tasks flush unrun — and a structured
        ``deadline_exceeded`` event is recorded.  *priority* (higher
        runs first, default 0) orders the graph's submission FIFO and
        cross-graph dispatch, drives the admission controller's waiter
        order, and decides shed victims (docs/runtime.md, "Submission
        lifecycle").
        With ``sanitize=True`` the submission runs under the hfsan
        runtime sanitizer (docs/analysis.md, "Sanitizer"): kernel span
        arguments and host-captured mutable objects are wrapped in
        recording proxies, and the returned future's
        ``sanitize_report`` attribute (None at submission) holds a
        :class:`~repro.analysis.sanitize.SanitizeReport` cross-checking
        every observed access against the static effect inference by
        the time the future resolves.  Either way the returned future
        is the submission's own: ``cancel`` and every other path act on
        it directly.
        """
        return self._run(
            graph, 1, None, lint, metrics, sanitize, policy, deadline,
            priority, bindings,
        )

    def _make_topology(
        self, graph: Union[Heteroflow, FrozenTopology], **kwargs: Any
    ) -> Topology:
        """Build the per-submission :class:`Topology`."""
        return Topology(graph, **kwargs)

    def run_n(
        self,
        graph: Union[Heteroflow, FrozenTopology],
        n: int,
        *,
        lint: bool = False,
        metrics: bool = False,
        sanitize: bool = False,
        policy: Optional[object] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        bindings: Optional[Dict[str, Callable]] = None,
    ) -> Future:
        """Run *graph* *n* times back to back; non-blocking."""
        if n < 0:
            raise ExecutorError("repeat count must be non-negative")
        return self._run(
            graph, n, None, lint, metrics, sanitize, policy, deadline,
            priority, bindings,
        )

    def run_until(
        self,
        graph: Union[Heteroflow, FrozenTopology],
        predicate: Callable[[], bool],
        *,
        lint: bool = False,
        metrics: bool = False,
        sanitize: bool = False,
        policy: Optional[object] = None,
        deadline: Optional[float] = None,
        priority: int = 0,
        bindings: Optional[Dict[str, Callable]] = None,
    ) -> Future:
        """Run *graph* repeatedly until *predicate()* is True.

        The predicate is evaluated after each pass (do/while), on a
        worker thread; it must be thread-safe.
        """
        if not callable(predicate):
            raise ExecutorError("run_until requires a callable predicate")
        return self._run(
            graph, None, predicate, lint, metrics, sanitize, policy,
            deadline, priority, bindings,
        )

    def _run(
        self,
        graph: Union[Heteroflow, FrozenTopology],
        repeats: Optional[int],
        predicate: Optional[Callable[[], bool]],
        lint: bool,
        metrics: bool,
        sanitize: bool,
        policy: Optional[object],
        deadline: Optional[float],
        priority: int,
        bindings: Optional[Dict[str, Callable]],
    ) -> Future:
        """The one submission entry behind ``run``/``run_n``/
        ``run_until``: deadline check, lint gate, topology, submit.

        ``metrics``/``sanitize`` attach finishers to the topology
        instead of wrapping its future: the topology runs them once,
        just before its own future resolves, on every resolving path
        (docs/runtime.md, "Submission lifecycle").  A refused
        submission detaches what they would have detached."""
        if deadline is not None and deadline <= 0:
            raise ExecutorError("deadline must be positive (seconds)")
        if lint:
            self.lint(graph).raise_if_errors()
        topology = self._make_topology(
            graph,
            repeats=repeats,
            predicate=predicate,
            policy=policy,
            priority=priority,
            deadline_s=deadline,
            bindings=bindings,
        )
        if not (metrics or sanitize):
            return self._submit(topology)
        finishers = []
        if sanitize:
            # built before submission: effect inference must see the
            # original captured objects, and the recording proxies must
            # sit in the host closures before the first pass dispatches
            from repro.analysis.sanitize import SanitizerSession

            topology.sanitizer = SanitizerSession(topology.graph)
            topology.future.sanitize_report = None  # type: ignore[attr-defined]
        if metrics:
            from repro.core.observer import TraceObserver

            obs = TraceObserver()
            topology.future.run_report = None  # type: ignore[attr-defined]
            self.add_observer(obs)
            t0 = time.perf_counter()
            finishers.append(
                lambda topo: self._finish_profile(topo, obs, t0)
            )
        if sanitize:
            finishers.append(self._finish_sanitize)
        topology.finishers = finishers
        try:
            return self._submit(topology)
        except BaseException:
            # refused (admission, drain, validation): nothing ran, so
            # there is no report to build
            if metrics:
                self.remove_observer(obs)
            if sanitize:
                topology.sanitizer.uninstall()
            raise

    def _finish_profile(self, topology: Topology, obs, t0: float) -> None:
        """Profile finisher: detach the submission's trace observer and
        attach its :class:`~repro.metrics.RunReport` to the future.

        The observer is executor-wide for the run's duration, but the
        report filters records down to this graph's node ids, so
        concurrent submissions of *other* graphs don't pollute it.
        (Back-to-back submissions of the *same* graph share nodes and
        would; profile those one at a time.)"""
        from repro.metrics.profiler import build_run_report

        wall = time.perf_counter() - t0
        self.remove_observer(obs)
        try:
            report = build_run_report(
                topology.graph,
                obs.records,
                wall_time=wall,
                num_workers=self._num_workers,
                num_gpus=self.num_gpus,
                passes=max(topology.passes_done, 1),
                counters=self.metrics.snapshot(),
                events=list(topology.events),
            )
        except Exception:  # pragma: no cover - profiler bug
            report = None
        topology.future.run_report = report  # type: ignore[attr-defined]

    def _finish_sanitize(self, topology: Topology) -> None:
        """Sanitize finisher: uninstall the proxies, cross-check the
        observed accesses and attach the
        :class:`~repro.analysis.sanitize.SanitizeReport` to the future
        (docs/analysis.md, "Sanitizer")."""
        session = topology.sanitizer
        report = None
        try:
            report = session.finish()
        except Exception:  # pragma: no cover - sanitizer bug
            session.uninstall()
        self._m_sanitized.inc()
        if report is not None and report.divergences:
            self._m_divergences.inc(len(report.divergences))
        topology.future.sanitize_report = report  # type: ignore[attr-defined]

    def cancel(self, future: Future) -> bool:
        """Request cancellation of a submission by its future.

        A topology still waiting in its graph's FIFO (not yet started)
        is removed and its future resolves with ``CancelledError``
        immediately.  For a started topology, tasks already executing
        finish; every not-yet-run task is flushed without running and
        the future resolves with ``CancelledError``.  Returns False
        when the future is not an outstanding submission of this
        executor (e.g. already done).
        """
        with self._graph_lock:
            topology = self._futures.get(future)
        if topology is None or future.done():
            return False
        self._withdraw(topology)
        return True

    def wait_for_all(self) -> None:
        """Block until every topology submitted so far has finished."""
        self._wait_idle(None)

    def _wait_idle(self, timeout: Optional[float]) -> bool:
        """Wait until no topology is outstanding, at most *timeout*
        seconds (None = forever); True when none is."""
        with self._topology_cv:
            return self._topology_cv.wait_for(
                lambda: self._num_topologies == 0, timeout
            )

    def drain(self, timeout: Optional[float] = None, *, cancel_grace: float = 10.0) -> bool:
        """Stop admitting new work and settle every outstanding
        submission (docs/runtime.md, "Submission lifecycle").

        From the first call on, ``run``/``run_n``/``run_until`` raise
        :class:`~repro.errors.ExecutorError`; submitters blocked inside
        the admission controller are turned away the moment capacity
        frees for them (their capacity is handed straight back).
        In-flight and queued submissions run to completion.  Returns
        True when everything finished within *timeout* seconds
        (``None`` = wait forever).

        On timeout every straggler is cancelled — queued topologies
        resolve with ``CancelledError`` immediately; started ones take
        the cooperative flush path — and each records a structured
        ``drain_cancelled`` event.  After *cancel_grace* more seconds
        any future still unresolved (a wedged host task the runtime
        cannot interrupt) is force-resolved with ``ExecutorError``, so
        no caller blocks forever; the internal accounting settles when
        the wedged task eventually returns.  Returns False.
        """
        self._draining = True
        if self._wait_idle(timeout):
            return True
        with self._graph_lock:
            stragglers = list(self._futures.values())
        for topo in stragglers:

            def note() -> None:
                self._m_drain_cancelled.inc()
                topo.event("drain_cancelled", started=topo.started)

            self._withdraw(topo, note)
        self._wait_idle(cancel_grace)
        # anything still unresolved is wedged: settle the futures (the
        # run itself finalizes whenever the stuck task returns)
        for topo in stragglers:
            topo.complete(
                ExecutorError(
                    "drain timed out and the submission did not "
                    "settle within the cancel grace period"
                )
            )
        return False

    def shutdown(
        self, wait: bool = True, drain_timeout: Optional[float] = None
    ) -> None:
        """Stop workers and tear down the GPU runtime (idempotent).

        With *drain_timeout* set, a graceful :meth:`drain` bounded by
        that many seconds runs first (``wait`` is then ignored).  With
        ``wait=False`` outstanding submissions are abandoned — but
        never stranded: after teardown, every future still unresolved
        (including topologies parked on delayed retries) resolves with
        ``CancelledError``.
        """
        self._draining = True
        if not self._done:
            if drain_timeout is not None:
                self.drain(drain_timeout)
            elif wait:
                self.wait_for_all()
        self._done = True
        self._notifier.notify_all()
        for t in self._threads:
            t.join()
        self._timer.stop()
        # destroy (not synchronize) drains each stream via its shutdown
        # sentinel; synchronizing would re-raise sticky errors and hang
        # on quarantined streams
        self._gpu.destroy()
        self._resolve_stranded()

    def _resolve_stranded(self) -> None:
        """Resolve every future left outstanding after teardown.

        Runs with all workers joined, the timer stopped, and the GPU
        dispatchers destroyed — nothing can race us, and nothing will
        ever drive these topologies again (``wait=False`` shutdowns
        abandon running passes and delayed retries mid-flight).  Every
        such future resolves with ``CancelledError`` so no caller
        blocks forever."""
        with self._graph_lock:
            stranded = list(self._futures.values())
            self._futures.clear()
            self._graph_queues.clear()
        for topo in stranded:
            self._cancel_topology_deadline(topo)
            topo.cancel()
            topo.complete()
            self._release_admission(topo)
        with self._topology_cv:
            if self._num_topologies:
                self._num_topologies = 0
                self._topology_cv.notify_all()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(wait=exc[0] is None)

    # ------------------------------------------------------------------
    # submission / topology lifecycle
    # ------------------------------------------------------------------
    def _submit(self, topology: Topology) -> Future:
        if self._done:
            raise ExecutorError("executor is shut down")
        if self._draining:
            raise ExecutorError("executor is draining; submission refused")
        graph = topology.graph
        if topology.repeats == 0 or graph.empty:
            # nothing to execute: resolve immediately with zero passes
            topology.complete()
            return topology.future
        if topology.frozen is None:
            # frozen graphs were lowered at freeze() and cannot have
            # changed since; a fresh graph is validated and lowered
            # again only when some graph changed since its last
            # lowering (the structure version moved)
            if topology.lower():
                self._m_lowering_builds.inc()
            else:
                self._m_lowering_reuses.inc()
        else:
            topology.t_submit = time.perf_counter()
        self._admit(topology)
        if self._draining or self._done:
            # drain began while we blocked for admission: hand the
            # capacity straight back and refuse
            self._release_admission(topology)
            raise ExecutorError("executor is draining; submission refused")
        self._m_admitted.inc()
        with self._topology_cv:
            self._num_topologies += 1
        topology.submit_seq = next(self._submit_seq)
        start_now = False
        with self._graph_lock:
            q = self._graph_queues.setdefault(id(graph), deque())
            # priority insertion: before the first *queued* sibling of
            # strictly lower priority (never before the started front),
            # FIFO within a priority
            idx = len(q)
            for i in range(1 if q and q[0].started else 0, len(q)):
                if q[i].priority < topology.priority:
                    idx = i
                    break
            q.insert(idx, topology)
            self._futures[topology.future] = topology
            start_now = len(q) == 1
            if start_now:
                topology.started = True
        self._arm_topology_deadline(topology)
        if start_now:
            self._start_topology(topology)
        return topology.future

    # ------------------------------------------------------------------
    # overload protection (docs/runtime.md, "Submission lifecycle")
    # ------------------------------------------------------------------
    def _admit(self, topology: Topology) -> None:
        """Charge the submission to the admission ledger (no-op without
        a controller); raises
        :class:`~repro.errors.AdmissionRejectedError` per the policy."""
        ctrl = self._admission
        if ctrl is None:
            return
        fp = 0
        if ctrl.max_footprint_bytes is not None:
            # frozen submissions read the footprint from the one-time
            # freeze cache instead of re-deriving the capacity model
            if topology.frozen is not None:
                fp = topology.frozen.predicted_footprint()
            else:
                fp = predicted_footprint_bytes(topology.graph)
        topology.footprint_bytes = fp
        pri = topology.priority
        if not ctrl.would_ever_fit(fp):
            self._m_rejected.inc()
            raise ctrl.rejection("never_fits", priority=pri, footprint_bytes=fp)
        if ctrl.try_acquire(fp):
            topology.admitted = True
            self._m_adm_wait.observe(0.0)
            return
        if ctrl.policy == "reject":
            self._m_rejected.inc()
            raise ctrl.rejection("capacity", priority=pri, footprint_bytes=fp)
        if ctrl.policy == "shed":
            while not ctrl.try_acquire(fp):
                if not self._shed_lowest(pri):
                    self._m_rejected.inc()
                    raise ctrl.rejection(
                        "capacity", priority=pri, footprint_bytes=fp
                    )
            topology.admitted = True
            self._m_adm_wait.observe(0.0)
            return
        # block: wait for capacity; highest-priority waiter is admitted
        # first (the controller orders its waiter set)
        self._m_adm_blocked.inc()
        try:
            waited = ctrl.acquire(fp, priority=pri)
        except AdmissionRejectedError:
            self._m_rejected.inc()
            raise
        topology.admitted = True
        self._m_adm_wait.observe(waited)

    def _shed_lowest(self, priority: int) -> bool:
        """Evict the lowest-priority *queued* (never started) topology
        whose priority is strictly below *priority*; False when no such
        victim exists.  Youngest-first within a priority, so the oldest
        accepted work survives longest.  The victim's future resolves
        with a structured ``AdmissionRejectedError("shed")`` and its
        capacity returns to the ledger."""
        assert self._admission is not None
        while True:
            with self._graph_lock:
                queued = [
                    t
                    for q in self._graph_queues.values()
                    for t in q
                    if not t.started and t.priority < priority
                ]
            if not queued:
                return False
            victim = min(queued, key=lambda t: (t.priority, -t.submit_seq))

            def note() -> None:
                self._m_shed.inc()
                victim.event(
                    "admission_shed",
                    priority=victim.priority,
                    by_priority=priority,
                )

            exc = self._admission.rejection(
                "shed",
                priority=victim.priority,
                footprint_bytes=victim.footprint_bytes,
            )
            # a victim promoted since the scan is started: never shed it
            if self._withdraw(victim, note, exc, queued_only=True):
                return True

    def _withdraw(
        self,
        topology: Topology,
        note: Optional[Callable[[], None]] = None,
        error: Optional[BaseException] = None,
        queued_only: bool = False,
    ) -> bool:
        """Take an outstanding submission back — the one path for
        ``cancel``, drain's stragglers, a firing deadline and a shed
        victim.

        Still queued (never started): unlink it from its graph FIFO and
        the futures map, and resolve it here with *error*
        (``CancelledError`` when None), returning its admission
        capacity.  Started: fail it cooperatively — tasks already
        running finish, the rest flush unrun and finalization resolves
        it.  *note* (the caller's event and counter) runs in between,
        so the finishers' reports include it.  With *queued_only* a
        started topology is left alone and False returned.  Never
        called under ``_graph_lock`` (finishers and future callbacks
        run inline and may take it)."""
        with self._graph_lock:
            q = self._graph_queues.get(id(topology.graph))
            queued = not topology.started and q is not None and topology in q
            if queued:
                q.remove(topology)
                if not q:
                    del self._graph_queues[id(topology.graph)]
                self._futures.pop(topology.future, None)
            elif queued_only:
                return False
        if note is not None:
            note()
        topology.fail(CancelledError() if error is None else error)
        if not queued:
            self._notifier.notify_all()
            return True
        self._cancel_topology_deadline(topology)
        topology.complete()
        self._release_admission(topology)
        with self._topology_cv:
            self._num_topologies -= 1
            self._topology_cv.notify_all()
        return True

    def _release_admission(self, topology: Topology) -> None:
        """Return the topology's admission capacity, exactly once."""
        if self._admission is not None and topology.take_admission_release():
            self._admission.release(topology.footprint_bytes)

    def _arm_topology_deadline(self, topology: Topology) -> None:
        if topology.deadline_s is None:
            return
        topology.deadline_entry = self._timer.schedule(
            topology.deadline_s, lambda: self._deadline_fire(topology)
        )

    def _cancel_topology_deadline(self, topology: Topology) -> None:
        entry = topology.deadline_entry
        if entry is not None:
            _TimerThread.cancel(entry)
            topology.deadline_entry = None

    def _deadline_fire(self, topology: Topology) -> None:
        """Timer target for a submission deadline (timer thread).

        Still queued: the topology unlinks and resolves with
        ``CancelledError`` right here.  Started: the cooperative-cancel
        path flushes the remaining tasks and the normal finalization
        resolves the future.  Either way a structured
        ``deadline_exceeded`` event is recorded."""
        if topology.future.done() or topology.failed:
            return

        def note() -> None:
            self._m_deadline.inc()
            topology.event(
                "deadline_exceeded",
                deadline_s=topology.deadline_s,
                started=topology.started,
                passes_done=topology.passes_done,
            )

        self._withdraw(topology, note)

    def _start_topology(self, topology: Topology) -> None:
        """Place the submission and seed its first pass.  A frozen
        submission reuses (or compiles) its cached plan instead of
        re-running Algorithm-1 placement."""
        lowering = topology.lowering
        assert lowering is not None
        frozen = topology.frozen
        nodes = lowering.nodes
        for obs in self._observers:
            obs.on_topology_begin(topology.graph.name, len(nodes))
        topology.configure()
        if lowering.has_gpu:
            topology.launches = lowering.kernel_launches
        if frozen is not None and topology.keep:
            self._m_fast_path.inc()
        try:
            alive = frozenset(self._alive_gpus)
            if lowering.has_gpu and self.num_gpus > 0 and not alive:
                # every configured device already failed: degrade from
                # the start if every kernel can run on the host
                missing = kernels_without_fallback(nodes)
                if missing:
                    raise ExecutorError(
                        f"no GPUs survive and kernel task "
                        f"{missing[0].name!r} has no host fallback"
                    )
                topology.degrade()
                self._m_degraded.inc()
                topology.event("degraded", at="start", alive=[])
            elif frozen is not None:
                # frozen.plans is guarded by the graph FIFO (one started
                # topology per graph), so no extra lock is needed
                plan = frozen.plans.get(self)
                if plan is not None and plan.alive == alive:
                    self._m_replay_hits.inc()
                else:
                    # first submission, or the live-device set changed
                    # (which also invalidates a plan whose placement
                    # was replanned in place during recovery)
                    self._m_replay_misses.inc()
                    plan = _CompiledPlan(
                        self._place(lowering, alive),
                        snapshot_assignment(nodes),
                        alive,
                    )
                    frozen.plans[self] = plan
                # re-apply the assignment: device ordinals live on the
                # shared nodes, and a fresh run or a sibling's recovery
                # pass may have moved them since the plan was compiled
                apply_assignment(plan.pairs)
                topology.placement = plan.placement
            elif lowering.has_gpu:
                topology.placement = self._place(lowering, alive)
        except Exception as exc:  # placement failure fails the run
            topology.fail(exc)
            self._finalize_topology(topology)
            return
        self._dispatch_pass(topology)

    def _place(self, lowering: Lowering, alive: frozenset):
        """Algorithm-1 placement: the lowering's union-find groups are
        packed afresh (cost metric, span sizes); groups of devices that
        died before this submission are re-packed onto the survivors."""
        placement = self._placement.pack(lowering.placement_groups, self.num_gpus)
        if lowering.has_gpu and len(alive) < self.num_gpus:
            replan(
                lowering.nodes,
                placement,
                sorted(alive),
                self._placement.cost_metric,
            )
        return placement

    def _dispatch_pass(self, topology: Topology) -> None:
        """Seed one pass: reset the slot joins and enqueue the source
        slots in chunks."""
        if topology.frozen is not None:
            self._m_plan_reuses.inc()
        topology.begin_pass()
        self._schedule(topology, topology.lowering.source_slots, topology.gen)

    def _finalize_topology(self, topology: Topology) -> None:
        graph = topology.graph
        if topology.lowering.has_gpu:
            # release pooled pull buffers and degraded-mode shadows
            for node in topology.lowering.pulls:
                if node.buffer is not None:
                    node.buffer.free()
                    node.buffer = None
                node.pull_snapshot = None
                node.host_shadow = None
        for obs in self._observers:
            obs.on_topology_end(graph.name, len(topology.lowering.nodes))
        if topology.frozen is not None:
            self._m_replay_latency.observe(
                time.perf_counter() - topology.t_submit
            )
        self._cancel_topology_deadline(topology)
        topology.complete()
        self._release_admission(topology)
        # start the next queued topology of this graph, if any
        next_topology: Optional[Topology] = None
        with self._graph_lock:
            self._futures.pop(topology.future, None)
            q = self._graph_queues.get(id(graph))
            if q is not None:
                # identity-checked removal: a concurrent shed/cancel/
                # deadline may have reshaped the queue, so never pop a
                # sibling blindly
                if q and q[0] is topology:
                    q.popleft()
                elif topology in q:  # pragma: no cover - hardening
                    q.remove(topology)
                if q and not q[0].started:
                    next_topology = q[0]
                    next_topology.started = True
                elif not q:
                    del self._graph_queues[id(graph)]
        with self._topology_cv:
            self._num_topologies -= 1
            self._topology_cv.notify_all()
        if next_topology is not None:
            self._start_topology(next_topology)

    # ------------------------------------------------------------------
    # scheduling plumbing
    # ------------------------------------------------------------------
    def _schedule(
        self, topology: Topology, slots: Sequence[int], gen: Optional[int] = None
    ) -> None:
        """Enqueue ready slots: local queue when on a worker thread
        (cache-friendly LIFO), shared queue otherwise (submitter or
        stream-callback threads).  A topology that keeps ready slots
        (:attr:`Topology.keep`) enqueues them in chunks of that size;
        any other one slot per item, so thieves can spread them over
        the workers.  Items carry *gen* — the
        generation the scheduling decision was made under (current when
        omitted); recovery bumps the topology generation so stale items
        are dropped.  Callers reacting to a task that ran under an
        older generation MUST pass that generation: stamping the
        current one would let the item survive a concurrent
        ``request_recovery`` bump while the recovery pass independently
        reschedules the same slot — a double execution."""
        if gen is None:
            gen = topology.gen
        keep = topology.keep
        if keep:
            chunks = [tuple(slots[i : i + keep]) for i in range(0, len(slots), keep)]
        else:
            chunks = [(s,) for s in slots]
        notify = self._notifier.notify_one
        wid = getattr(self._tls, "wid", None)
        if wid is not None:
            push = self._queues[wid].push
            for chunk in chunks:
                push((topology, chunk, gen))
                notify()
        else:
            shared, priority = self._shared, topology.priority
            for chunk in chunks:
                shared.push((topology, chunk, gen), priority)
                notify()

    def _next_item(self, wid: int, rng: random.Random) -> Optional[WorkItem]:
        item = self._queues[wid].pop()
        if item is not None:
            self._m_local.inc(wid)
            return item
        item = self._shared.steal()
        if item is not None:
            self._m_shared_pops.inc(wid)
            return item
        # steal from random victims; bounded rounds keep the thief
        # responsive to the sleep protocol
        n = self._num_workers
        if n > 1:
            random = rng.random
            for _ in range(2 * n):
                # uniform over the workers, without randrange's Python
                # frames: an idle worker's loop runs this while others
                # hold the interpreter
                victim = int(random() * n)
                if victim == wid:
                    continue
                self._m_steal_try.inc(wid)
                item = self._queues[victim].steal()
                if item is not None:
                    self._m_steal_ok.inc(wid)
                    return item
        return None

    def _worker_loop(self, wid: int) -> None:
        self._tls.wid = wid
        rng = random.Random((self._seed << 16) ^ wid)
        while True:
            item = self._next_item(wid, rng)
            if item is not None:
                self._invoke(wid, *item)
                continue
            if self._done:
                return
            # two-phase commit sleep: announce, re-check, commit
            epoch = self._notifier.prepare_wait()
            item = self._next_item(wid, rng)
            if item is not None:
                self._notifier.cancel_wait()
                self._invoke(wid, *item)
                continue
            if self._done:
                self._notifier.cancel_wait()
                return
            self._m_sleeps.inc(wid)
            self._notifier.commit_wait(epoch, timeout=_SLEEP_TIMEOUT)
            self._m_wakeups.inc(wid)

    # ------------------------------------------------------------------
    # the slot loop (visitor pattern over task types)
    # ------------------------------------------------------------------
    def _invoke(
        self,
        wid: int,
        topology: Topology,
        slots: Sequence[int],
        gen: int,
        done: int = -1,
        stream: Optional[Stream] = None,
        err: Optional[BaseException] = None,
        fallback: bool = False,
    ) -> None:
        """The one slot loop: run a work item, a chunk of ready slots.

        Every slot takes the same steps; the topology's configuration
        decides only what wraps the call (:attr:`Topology.wraps`, set
        once at start).  A GPU topology's slots enter and leave the
        in-flight set (recovery waits for quiescence).  A plain host
        slot is called directly, a plain GPU slot is enqueued with this
        loop as its stream callback, and a policied, sanitized or
        degraded slot runs under an :class:`_Attempt`.  A slot that
        completes here, and a slot that completed elsewhere (*done*,
        with the *stream* and *fallback* of its completion, which
        enters straight at the completion step), go through one
        completion step: ``on_task_end``, :meth:`Topology.join`, the
        ready successors, and leaving the in-flight set.  Ready
        successors continue in this loop up to :attr:`Topology.keep`
        (the excess spills as stealable chunk items).  In a GPU
        topology, while no device is guarded (dead or fault-armed), the
        ready token-free GPU successors launch right here, in the loop
        that completed their predecessor — on a worker (an in-place
        launch) or on a stream dispatcher (stream-ordered
        continuation), onto the streams of worker *wid* — and the first
        of them takes over the finished slot's place in the in-flight
        set; the other successors are scheduled.  Any failure (*err*: the stream callback's) takes
        one failure step, :meth:`_handle_failure`; a failed or
        cancelled topology flushes its remaining slots unrun.
        """
        if err is not None:
            # a token-free GPU slot's op failed: its token is built now
            attempt = _Attempt(topology, done, wid, gen, None)
            attempt.stream = stream
            self._handle_failure(attempt, err)
            return
        tracked = topology.lowering.has_gpu
        observers = self._observers
        if done >= 0:
            # join first: the locals a run needs are set up only when
            # a successor is launched here.  A topology that keeps
            # ready slots completes one elsewhere only after a failure:
            # its ready successors take the queues, where they flush
            if observers:
                self._task_end(wid, topology, done, stream, fallback)
            keep = 0
            s = done
            todo: List[int] = []
        elif gen != topology.gen:
            # recovery invalidated this item and rescheduled its slots
            return
        else:
            keep = topology.keep
            s = None
            todo = list(slots)
            nodes = topology.lowering.nodes
            wraps = topology.wraps
            callables = topology.callables
            tasks = self._lanes.tasks
        # True while the last completed slot's in-flight count waits
        # for the continued successor popped next
        held = False
        while True:
            if s is not None:
                # the completion step of slot s
                ready = topology.join(s)
                if ready is None:
                    pass
                elif ready is PASS_DONE:
                    self._pass_done(topology)
                elif keep:
                    todo.extend(ready)
                    extra = len(todo) - keep
                    if extra > 0:
                        # keep one chunk here; spill the rest so idle
                        # workers can steal the fan-out
                        self._schedule(topology, todo[:extra], gen)
                        del todo[:extra]
                elif (
                    tracked
                    and gen == topology.gen
                    and topology.error is None
                    and not self._guarded
                ):
                    # launch the ready token-free GPU successors in
                    # place (a launch only enqueues, so no payload runs
                    # here); policied, sanitized and degraded ones take
                    # the queue
                    wraps = topology.wraps
                    other = None
                    for t in ready:
                        if wraps[t] == SLOT_STREAM:
                            todo.append(t)
                        elif other is None:
                            other = [t]
                        else:
                            other.append(t)
                    # (a topology that keeps no ready slots runs one
                    # slot per item, so todo holds only these)
                    if todo:
                        held = True
                        lanes = self._lanes
                        lanes.launched[wid] += len(todo)
                        # only GPU slots run from here: no callables
                        nodes = topology.lowering.nodes
                        tasks = lanes.tasks
                    if other is not None:
                        self._schedule(topology, other, gen)
                else:
                    self._schedule(topology, ready, gen)
                if tracked and not held and topology.leave():
                    self._recover(topology)
            if not todo:
                return
            s = todo.pop()
            if tracked:
                if held:
                    # the count of the slot completed last passes here
                    held = False
                elif not topology.enter():
                    # a device failure awaits quiescence; recovery
                    # reschedules
                    s = None
                    continue
                if gen != topology.gen:
                    # recovery slipped in between the gen check and
                    # the count
                    if topology.leave():
                        self._recover(topology)
                    s = None
                    continue
            if topology.error is not None:
                # fast-cancel: count the slot without running it
                self._lanes.flushed[wid] += 1
                continue
            tasks[wid] += 1
            if wraps[s]:
                if wraps[s] != SLOT_STREAM:
                    self._run_attempt(wid, topology, s, gen)
                # the stream callback completes the slot; with observers
                # the lane lock as in _run_attempt
                elif observers:
                    try:
                        with self._lane_locks[wid]:
                            for obs in observers:
                                obs.on_task_begin(wid, nodes[s])
                            self._launch_gpu(wid, topology, nodes[s], s, gen)
                    except BaseException as exc:  # noqa: BLE001 - routed to policy
                        self._handle_failure(_Attempt(topology, s, wid, gen, None), exc)
                else:
                    try:
                        self._launch_gpu(wid, topology, nodes[s], s, gen)
                    except BaseException as exc:  # noqa: BLE001 - routed to policy
                        self._handle_failure(_Attempt(topology, s, wid, gen, None), exc)
                s = None
                continue
            if observers:
                for obs in observers:
                    obs.on_task_begin(wid, nodes[s])
            try:
                callables[s]()
            except BaseException as exc:  # noqa: BLE001 - routed to policy
                self._handle_failure(_Attempt(topology, s, wid, gen, None), exc)
                s = None
                continue
            if observers:
                self._task_end(wid, topology, s, None, False)

    def _task_end(
        self,
        wid: int,
        topology: Topology,
        slot: int,
        stream: Optional[Stream],
        fallback: bool,
    ) -> None:
        """Fire ``on_task_end`` for a slot that ran.  A GPU slot's
        fires on its stream's dispatcher, so ``ops_executed``
        identifies the completing op."""
        node = topology.lowering.nodes[slot]
        seq = stream.ops_executed if stream is not None else None
        replayed = node.nid in topology.replayed
        for obs in self._observers:
            obs.on_task_end(
                wid,
                node,
                stream=stream,
                stream_seq=seq,
                fallback=fallback,
                replayed=replayed,
            )

    def _run_attempt(self, wid: int, topology: Topology, slot: int, gen: int) -> None:
        """Run slot *slot* under an :class:`_Attempt`: a retry policy,
        a deadline watchdog, a sanitizer shim or a host fallback.  The
        token completes the slot through :meth:`_attempt_finished`."""
        node = topology.lowering.nodes[slot]
        observers = self._observers
        timeout_s = node.timeout_s if node.timeout_s is not None else topology.timeout_s
        attempt = _Attempt(topology, slot, wid, gen, timeout_s)
        try:
            if node.type.is_gpu and not topology.degraded:
                # worker wid's streams are fed by the worker and by the
                # dispatchers continuing its lane (_invoke): stamp and
                # enqueue under the lane lock, so every stream's
                # dispatch stamps stay in its FIFO order
                with self._lane_locks[wid]:
                    for obs in observers:
                        obs.on_task_begin(wid, node)
                    self._arm_deadline(attempt)
                    self._launch_gpu(wid, topology, node, slot, gen, attempt)
                return
            for obs in observers:
                obs.on_task_begin(wid, node)
            if node.type.is_gpu:
                self._invoke_degraded(attempt)
            elif node.type is TaskType.HOST:
                # the submission's callable table: the graph as lowered
                # at submission, plus any run(..., bindings=...) patch
                fn = topology.callables[slot]
                if topology.sanitizer is not None:
                    # attribute proxy accesses to this task for the
                    # duration of the call (docs/analysis.md)
                    fn = topology.sanitizer.wrap_host(node, fn)
                fn()
                self._attempt_finished(attempt, self._post_timeout(attempt))
            else:
                raise ExecutorError(f"cannot execute task of type {node.type}")
        except BaseException as exc:  # noqa: BLE001 - routed to policy
            self._attempt_finished(attempt, exc)

    def _invoke_degraded(self, attempt: _Attempt) -> None:
        """Run a GPU task on the host (zero survivors; docs/resilience.md)."""
        node = attempt.node
        attempt.fallback = True
        if node.type is TaskType.PULL:
            run_degraded_pull(node, node.nid in attempt.topology.replayed)
        elif node.type is TaskType.KERNEL:
            run_degraded_kernel(node, attempt.topology.launches[attempt.slot])
            self._m_fallbacks.inc()
        else:
            run_degraded_push(node)
        self._attempt_finished(attempt, self._post_timeout(attempt))

    def _post_timeout(self, attempt: _Attempt) -> Optional[BaseException]:
        """Post-hoc deadline check for synchronous (host/degraded)
        tasks: the callable cannot be interrupted, so an overrun is
        detected when it returns."""
        if (
            attempt.timeout_s is not None
            and time.perf_counter() - attempt.t0 > attempt.timeout_s
        ):
            return TaskTimeoutError(attempt.node.name, attempt.timeout_s)
        return None

    def _arm_deadline(self, attempt: _Attempt) -> None:
        """Start the watchdog for an asynchronous GPU attempt."""
        if attempt.timeout_s is None:
            return
        err = TaskTimeoutError(attempt.node.name, attempt.timeout_s)
        attempt.timer_entry = self._timer.schedule(
            attempt.timeout_s, lambda: self._attempt_finished(attempt, err)
        )

    def _attempt_finished(
        self, attempt: _Attempt, err: Optional[BaseException]
    ) -> None:
        """Single funnel for attempt outcomes (success, sync raise,
        stream-callback error, watchdog fire); first caller wins."""
        if not attempt.resolve():
            return
        if attempt.timer_entry is not None:
            _TimerThread.cancel(attempt.timer_entry)
        if err is None:
            # a successful GPU attempt finishes in its stream callback
            self._invoke(
                attempt.wid,
                attempt.topology,
                (),
                attempt.gen,
                attempt.slot,
                attempt.stream,
                None,
                attempt.fallback,
            )
        else:
            self._handle_failure(attempt, err)

    # ------------------------------------------------------------------
    # failure handling: retry, timeout, quarantine, recovery
    # ------------------------------------------------------------------
    def _handle_failure(self, attempt: _Attempt, err: BaseException) -> None:
        """The one failure step, on every configuration.  A
        :class:`~repro.errors.DeviceFailedError` from a GPU slot's
        launch or stream callback that names the device the slot ran
        on quarantines that device and starts recovery; naming any
        other ordinal (a kernel body raising it), or raised by any
        other call (a host callable, a host fallback), it is an
        ordinary task error.  Retryable errors under a retry policy
        re-run the slot; anything else fails the topology and completes
        the slot."""
        topology, node, wid = attempt.topology, attempt.node, attempt.wid

        if isinstance(err, TaskTimeoutError):
            self._m_timeouts.inc()
            if attempt.stream is not None:
                # the op may still be wedged in the dispatcher: retire
                # this (worker, device) stream so retries get a fresh one
                self._quarantine_stream(attempt.stream)
                topology.event(
                    "stream_quarantined",
                    task=node.name,
                    stream=attempt.stream.sid,
                )

        if (
            isinstance(err, DeviceFailedError)
            and topology.lowering.gpu_slots[attempt.slot]
            and not attempt.fallback
            and err.ordinal == self._device_of(attempt)
        ):
            topology.record_attempt(node.nid, err)
            self._quarantine_device(err.ordinal)
            topology.event("device_failed", device=err.ordinal, task=node.name)
            topology.request_recovery(err.ordinal)
            if topology.leave():
                self._recover(topology)
            return

        history = topology.record_attempt(node.nid, err)
        n_attempt = len(history)
        policy = (
            node.retry_policy
            if node.retry_policy is not None
            else topology.retry_policy
        )
        if (
            policy is not None
            and not topology.failed
            and n_attempt < policy.max_attempts
            and policy.retryable(err)
        ):
            self._m_retries.inc()
            topology.event(
                "retry",
                task=node.name,
                nid=node.nid,
                attempt=n_attempt,
                error=type(err).__name__,
            )
            for obs in self._observers:
                obs.on_task_retry(wid, node, n_attempt, err)
            gen = attempt.gen
            dinfo = policy.delay_info(n_attempt, key=node.nid)
            delay = dinfo.seconds
            topology.record_retry_delay(node.nid, dinfo)
            need_recovery = topology.lowering.has_gpu and topology.leave()
            if need_recovery:
                # a device failure arrived mid-flight; recovery will
                # reschedule this node (it is not done)
                self._recover(topology)
            elif gen != topology.gen:
                pass  # superseded by a recovery pass; ditto
            elif delay <= 0:
                self._schedule(topology, (attempt.slot,), gen)
            else:
                self._timer.schedule(
                    delay, lambda: self._retry_fire(topology, attempt.slot, gen)
                )
            return

        # terminal: fail the topology with err, wrapped in
        # TaskFailedError when resilience was in play, raw otherwise
        if policy is not None or isinstance(err, TaskTimeoutError):
            wrapped: BaseException = TaskFailedError(
                node.name, node.nid, history, topology.attempt_details(node.nid)
            )
            wrapped.__cause__ = err
            if policy is not None:
                self._m_exhausted.inc()
        else:
            wrapped = err
        topology.event(
            "task_failed",
            task=node.name,
            nid=node.nid,
            attempts=n_attempt,
            error=type(err).__name__,
        )
        topology.fail(wrapped)
        # a timed-out op never completed on its stream: committing its
        # ops_executed as a stream_seq would collide with a real op
        stream = None if isinstance(err, TaskTimeoutError) else attempt.stream
        self._invoke(wid, topology, (), attempt.gen, attempt.slot, stream)

    @staticmethod
    def _device_of(attempt: _Attempt) -> Optional[int]:
        """The ordinal of the device GPU slot *attempt* ran on: its
        stream's, or, when the launch raised before it had one, the
        device the launch targeted."""
        if attempt.stream is not None:
            return attempt.stream.device.ordinal
        node = attempt.node
        return node.device if node.device is not None else _push_source(node).device.ordinal

    def _retry_fire(self, topology: Topology, slot: int, gen: int) -> None:
        """Delayed-retry timer target; drops if recovery superseded it.
        A topology that failed while we waited flushes the slot through
        the normal cascade so the pass can finish."""
        if topology.gen == gen:
            self._schedule(topology, (slot,), gen)

    def _quarantine_stream(self, stream: Stream) -> None:
        """Retire one stream from the per-(worker, device) map; the
        stream object itself is torn down with its device.  Abandoning
        it first guarantees ops still queued behind the stuck one are
        skipped rather than executed when the stall releases — a late
        payload re-running after its task was retried elsewhere would
        break exact-once."""
        stream.abandon()
        with self._stream_lock:
            for streams in self._streams:
                for ordinal, s in list(streams.items()):
                    if s is stream:
                        del streams[ordinal]
        self._m_quarantined.inc()

    def _quarantine_device(self, ordinal: int) -> None:
        """Mark a device dead executor-wide (idempotent)."""
        with self._quarantine_lock:
            if ordinal not in self._alive_gpus:
                return
            self._alive_gpus.discard(ordinal)
        self._m_device_failures.inc()
        device = self._gpu.device(ordinal)
        device.fail()
        with self._stream_lock:
            for streams in self._streams:
                streams.pop(ordinal, None)

    def _recover(self, topology: Topology) -> None:
        """Recovery pass, run at quiescence by whichever thread drained
        the in-flight set last (worker, dispatcher, or timer thread).

        Retracts committed GPU executions whose device state was lost,
        re-places stranded groups onto survivors (or degrades to host
        fallbacks), rebuilds the slot joins over the remaining slots,
        and re-dispatches the ready ones under a fresh generation.
        """
        while True:
            dead = topology.take_recovery()
            nodes = topology.lowering.nodes
            alive = self.alive_gpus
            if not topology.failed:
                # retract committed pull/kernel executions whose device
                # copies died; completed pushes keep their host-side
                # effect and are not re-run
                for slot, n in enumerate(nodes):
                    if (
                        topology.done(slot)
                        and n.type in (TaskType.PULL, TaskType.KERNEL)
                        and (n.device in dead or not alive)
                    ):
                        topology.retract(slot)
                        self._m_replayed.inc()
                        for obs in self._observers:
                            obs.on_task_replayed(n)
            # free buffers stranded on dead devices
            for n in nodes:
                if n.buffer is not None and not n.buffer.device.alive:
                    n.buffer.free()
                    n.buffer = None
            if not topology.failed:
                if alive:
                    if topology.placement is not None:
                        replan(
                            nodes,
                            topology.placement,
                            alive,
                            self._placement.cost_metric,
                        )
                    topology.event(
                        "replanned", dead=sorted(dead), alive=alive
                    )
                else:
                    missing = kernels_without_fallback(nodes)
                    if missing:
                        first = missing[0]
                        failure = TaskFailedError(
                            first.name,
                            first.nid,
                            [DeviceFailedError(d) for d in sorted(dead)],
                        )
                        topology.event(
                            "degradation_impossible", task=first.name
                        )
                        topology.fail(failure)
                    else:
                        topology.degrade()
                        self._m_degraded.inc()
                        topology.event("degraded", at="recovery", alive=[])
            # rebuild scheduling state over the not-yet-done slots; the
            # flush cascade handles them if the topology failed above
            ready = topology.rebuild_joins()
            if topology.finish_recovery():
                # another device died while we recovered: go again
                continue
            # stamp every ready node with one generation snapshot: a
            # failure arriving mid-loop bumps the topology generation,
            # and later items must NOT survive into the next recovery
            # pass's own rescheduling
            self._schedule(topology, ready, topology.gen)
            return

    def _pass_done(self, topology: Topology) -> None:
        if topology.pass_completed():
            self._finalize_topology(topology)
        else:
            self._dispatch_pass(topology)

    # -- GPU task visitors ------------------------------------------
    def _stream_for(self, wid: int, device_ordinal: int) -> Stream:
        """Worker *wid*'s stream on a device, created on first use (a
        launch looks its stream up inline and calls this only to
        create one)."""
        streams = self._streams[wid]
        s = streams.get(device_ordinal)
        if s is None:
            with self._stream_lock:
                s = streams.get(device_ordinal)
                if s is None:
                    s = self._gpu.device(device_ordinal).create_stream(f"w{wid}")
                    streams[device_ordinal] = s
        return s

    def _launch_gpu(
        self,
        wid: int,
        topology: Topology,
        node: Node,
        slot: int,
        gen: int,
        attempt: Optional[_Attempt] = None,
    ) -> None:
        """Enqueue GPU slot *slot* (*node*) on worker *wid*'s stream
        for its device (the visitor over pull, push and kernel slots),
        with that device current on the calling thread for the launch:
        a worker is scoped to it and restored after, a dispatcher
        continuing on its own device already has it.  The enqueue is
        the last thing done here, so a raise means nothing was
        enqueued.  The stream callback completes the slot: through
        *attempt* when it has one, through the slot loop
        (:meth:`_invoke`) otherwise."""
        kind = node.type
        ordinal = node.device
        if ordinal is None:
            # a push placed on no device runs where its pull's data is
            ordinal = _push_source(node).device.ordinal
        device = self._devices[ordinal]
        if device.guarded and not device.alive:
            raise DeviceFailedError(ordinal)
        stream = self._streams[wid].get(ordinal) or self._stream_for(wid, ordinal)
        shim = None
        if attempt is None:
            done = partial(self._invoke, wid, topology, (), gen, slot, stream)
        else:
            attempt.stream = stream
            done = partial(self._attempt_finished, attempt)
            sanitizer = topology.sanitizer
            if sanitizer is not None and kind is _KERNEL:
                # the shim substitutes recording views for the span
                # arguments after buffer-to-view decay (docs/analysis.md);
                # a sanitized run wraps every slot in an attempt
                shim = sanitizer.wrap_kernel(node)
        previous = thread_device.device
        if previous is not device:
            thread_device.device = device
        try:
            if kind is _KERNEL:
                topology.launches[slot].enqueue(stream, done, shim)
            elif kind is _PULL:
                self._enqueue_pull(topology, node, device, stream, done)
            else:
                self._enqueue_push(node, _push_source(node), stream, done)
        finally:
            thread_device.device = previous

    def _enqueue_pull(self, topology, node, device, stream, done) -> None:
        assert node.span is not None
        # a replayed pull re-reads its snapshot, not the live span: a
        # completed push may have overwritten the host array
        if node.nid in topology.replayed and node.pull_snapshot is not None:
            host = node.pull_snapshot
        else:
            host = node.span.host_array()
        need = max(int(host.nbytes), 1)
        buf = node.buffer
        if buf is not None and (buf.device is not device or buf.nbytes < need):
            buf.free()
            buf = None
        if buf is None:
            buf = device.heap.allocate(need, dtype=host.dtype)
            node.buffer = buf
        else:
            buf.dtype = host.dtype
        if self._guarded:
            # device failure is possible (a fault profile is armed or a
            # device died): replay needs the H2D-time bytes, which a
            # completed push may since have overwritten on the host
            finish = done

            def done(err: Optional[BaseException]) -> None:
                if err is None:
                    node.pull_snapshot = np.array(host, copy=True)
                finish(err)

        self._gpu.memcpy_h2d_async(buf, host, stream, callback=done)

    def _enqueue_push(self, node, src, stream, done) -> None:
        staging = np.empty(src.size, dtype=src.dtype)
        span = node.span

        def written(err: Optional[BaseException]) -> None:
            if err is None:
                try:
                    span.write_back(staging)
                except BaseException as exc:  # noqa: BLE001
                    err = exc
            done(err)

        self._gpu.memcpy_d2h_async(staging, src, stream, callback=written)
