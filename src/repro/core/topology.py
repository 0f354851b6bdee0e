"""Topologies: per-submission execution state.

"When a graph is submitted to an executor, a special data structure
called *topology* is created to marshal execution parameters and
runtime metadata.  Each heteroflow object has a list of topologies to
track individual execution status" (paper §III-C).

A topology owns one promise/future pair for caller signalling — the
future ``run*`` returns — plus the *finishers* that fill its
``run_report``/``sanitize_report`` once, just before it resolves
(:meth:`Topology.complete`), the repeat predicate implementing
``run``/``run_n``/``run_until``, the placement result, and the
pass-completion counter.

Since the resilience layer (docs/resilience.md) it also tracks:

- the normalized :class:`~repro.resilience.ResiliencePolicy` for the
  submission (per-task overrides live on the nodes);
- per-node attempt histories (:meth:`record_attempt`) feeding
  :class:`~repro.errors.TaskFailedError` and the retry loop;
- a *generation* counter plus an *active* in-flight counter enabling
  quiescence-based device-failure recovery: when a device dies, the
  executor requests recovery, workers drop stale-generation items, and
  the last in-flight task to leave triggers the re-placement/replay
  pass;
- structured failure events surfaced in the RunReport.

Since the overload-protection layer (docs/runtime.md, "Submission
lifecycle") it additionally carries the submission's *priority* (orders
the graph FIFO and the cross-graph overflow queue), its *deadline*
(armed on the executor's timer wheel; firing cancels the submission
with a structured ``deadline_exceeded`` event), and the admission
ledger bookkeeping (predicted footprint, exactly-once release).

Readiness is tracked here and nowhere else: every submission runs a
:class:`Lowering` of its graph (slot order, successor slots, initial
join counts), and the topology's per-slot join array, reset each pass,
is stepped by :meth:`Topology.join` (which also marks the slot done)
and rebuilt after device recovery by :meth:`Topology.rebuild_joins`
(docs/runtime.md).
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future, InvalidStateError
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.node import TaskType, structure_version
from repro.core.placement import PlacementGroups
from repro.core.task import PullTask
from repro.errors import ExecutorError, GraphError
from repro.gpu.kernel import KernelLaunch
from repro.resilience.policy import normalize_policy

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.heteroflow import Heteroflow
    from repro.core.node import Node
    from repro.core.placement import PlacementResult
    from repro.resilience.policy import ResiliencePolicy, RetryPolicy


#: :meth:`Topology.join` result for the slot that completed the pass
PASS_DONE: Tuple[int, ...] = ()

#: what wraps a slot's call (:attr:`Topology.wraps`): nothing (a host
#: callable called directly), a token-free launch that its stream
#: callback completes (a GPU slot), or an ``_Attempt`` token
SLOT_PLAIN, SLOT_STREAM, SLOT_ATTEMPT = 0, 1, 2

#: slots per work item of a submission whose slots need no wrap: large
#: enough to amortize queue and notifier traffic over many empty host
#: tasks, small enough that thieves still find stealable chunks on
#: wide graphs
CHUNK = 32


class Topology:
    """Runtime state for one ``Executor.run*`` submission."""

    #: callables ``finish(topology)`` run once by :meth:`complete` just
    #: before the future resolves (``run(metrics=/sanitize=)`` reports);
    #: a plain submission keeps this shared empty tuple
    finishers: Sequence[Callable[["Topology"], None]] = ()
    _finishing = False

    def __init__(
        self,
        graph: Union["Heteroflow", "FrozenTopology"],
        repeats: Optional[int] = 1,
        predicate: Optional[Callable[[], bool]] = None,
        policy: Optional[object] = None,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        bindings: Optional[Dict[str, Callable]] = None,
    ) -> None:
        """*graph*: a fresh :class:`Heteroflow` (lowered at submission
        by :meth:`lower`) or a :class:`FrozenTopology` (its stored
        lowering is reused).
        *repeats*: fixed pass count (``run``/``run_n``), or ``None``
        with *predicate*: run passes until ``predicate()`` is True
        (``run_until``, checked after each pass — do/while semantics).
        *policy*: a :class:`~repro.resilience.RetryPolicy` or
        :class:`~repro.resilience.ResiliencePolicy` applied to every
        task of the submission (tasks override individually).
        *bindings* (frozen graphs only): host-task name -> replacement
        callable for this submission.
        """
        self.repeats = repeats
        self.predicate = predicate
        self.future: Future = Future()
        self.placement: Optional["PlacementResult"] = None
        self.passes_done = 0
        self.pending = 0
        self.error: Optional[BaseException] = None
        self._lock = threading.Lock()
        # -- resilience state -------------------------------------------
        norm: "ResiliencePolicy" = normalize_policy(policy)
        self.retry_policy: Optional["RetryPolicy"] = norm.retry
        self.timeout_s: Optional[float] = norm.timeout
        #: True once the executor began (or promoted) this topology;
        #: queued topologies cancel immediately (Executor.cancel)
        self.started = False
        # -- service state (docs/runtime.md, submission lifecycle) ------
        #: higher runs first: orders the graph FIFO and the cross-graph
        #: overflow queue; the shed policy evicts lower priorities
        self.priority = priority
        #: seconds from submission until the deadline cancels the run
        self.deadline_s = deadline_s
        #: global submission order (executor-stamped); shed victim
        #: tie-break within a priority
        self.submit_seq = 0
        #: live timer-wheel entry for the armed deadline (nulled on fire)
        self.deadline_entry: Optional[list] = None
        #: predicted device-memory footprint charged to the admission
        #: ledger (hflint HF020 static model; 0 when unlimited)
        self.footprint_bytes = 0
        #: True while this topology holds admission capacity
        self.admitted = False
        self._admission_released = False
        #: True when running GPU tasks on host shadows (zero survivors)
        self.degraded = False
        #: scheduling generation; recovery bumps it so stale queue
        #: items are dropped by workers
        self.gen = 0
        #: slots in flight (GPU topologies only: recovery waits for 0)
        self.active = 0
        #: per-node attempt error history (this pass)
        self.attempts: Dict[int, List[BaseException]] = {}
        #: per-node structured attempt records: error class plus, for
        #: retried attempts, backoff delay / saturation (docs/resilience.md)
        self.attempt_log: Dict[int, List[dict]] = {}
        #: nids whose committed execution was invalidated by a device
        #: failure and will run again (trace record retracted)
        self.replayed: Set[int] = set()
        #: structured failure/recovery events (RunReport ``events``)
        self.events: List[dict] = []
        #: device ordinals whose failure awaits recovery
        self._recovery_devices: Set[int] = set()
        self._recovering = False
        #: submission timestamp for the replay latency histogram
        self.t_submit = 0.0
        #: attached :class:`repro.analysis.sanitize.SanitizerSession`
        #: for ``run(..., sanitize=True)`` submissions; None otherwise
        self.sanitizer: Optional[object] = None
        #: slot -> what wraps its call (``SLOT_*``; set by
        #: :meth:`configure`, narrowed by :meth:`degrade`)
        self.wraps: Tuple[int, ...] = ()
        #: ready slots a finishing worker keeps running itself, and the
        #: slots per scheduled item (set by :meth:`configure`); 0 = each
        #: ready slot is scheduled as its own item
        self.keep = 0
        # -- slot state (docs/runtime.md, "Submission pipeline") --------
        #: the slot form this submission runs (None until lower());
        #: slot order and successor slots are read from it
        self.lowering: Optional[Lowering] = None
        #: slot -> host callable: the lowering's table, or a copy
        #: patched by ``bindings=``
        self.callables: Tuple = ()
        #: slot -> compiled kernel launch (the lowering's
        #: :attr:`Lowering.kernel_launches`, set at start)
        self.launches: Tuple = ()
        #: per-slot join counters, reset from the lowering each pass
        self.joins: List[int] = []
        if isinstance(graph, FrozenTopology):
            #: the FrozenTopology behind this submission (None = fresh)
            self.frozen: Optional[FrozenTopology] = graph
            self.graph = graph.graph
            self.lowering = graph
            self.callables = graph.bind(bindings) if bindings else graph.callables
        else:
            if bindings:
                raise ExecutorError(
                    "bindings= requires a FrozenTopology (Heteroflow.freeze())"
                )
            self.frozen = None
            self.graph = graph

    def lower(self) -> bool:
        """Validate and lower a fresh graph as it is right now; later
        edits to the graph do not reach this submission.  While no
        graph has changed since the graph's last lowering (the
        structure version has not moved), that lowering is reused
        as is.  Returns True when a new lowering was built.  Frozen
        submissions hold their stored lowering and never call this."""
        graph = self.graph
        # read before lowering: a mutation landing mid-way bumps the
        # version past this value, so the entry is never reused
        version = structure_version()
        cached = graph._lowered
        built = cached is None or cached[0] != version
        if built:
            lowering = Lowering(graph)
            graph._lowered = (version, lowering)
        else:
            lowering = cached[1]
        self.lowering = lowering
        self.callables = lowering.callables
        return built

    # -- failure handling ----------------------------------------------
    def fail(self, error: BaseException) -> None:
        """Record the first task error; later errors are dropped."""
        with self._lock:
            if self.error is None:
                self.error = error

    def cancel(self) -> None:
        """Request cancellation: remaining tasks are flushed unrun and
        the future resolves with :class:`concurrent.futures.CancelledError`."""
        from concurrent.futures import CancelledError

        self.fail(CancelledError())

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def cancelled(self) -> bool:
        from concurrent.futures import CancelledError

        return isinstance(self.error, CancelledError)

    # -- slot configuration (docs/runtime.md, "The work-stealing loop") --
    def configure(self) -> None:
        """Decide, once at start, what wraps each slot's call: a
        submission with a retry policy, a timeout or a sanitizer wraps
        every slot in an attempt token; otherwise the lowering's wraps
        hold (a token only for a task with its own retry or timeout).
        A submission whose slots need no wrap keeps :data:`CHUNK` ready
        slots per worker and per scheduled item."""
        lowering = self.lowering
        if self.retry_policy is None and self.timeout_s is None and self.sanitizer is None:
            self.wraps = lowering.wraps
            self.keep = CHUNK if lowering.fast_capable else 0
        else:
            self.wraps = (SLOT_ATTEMPT,) * len(lowering.nodes)
            self.keep = 0

    def degrade(self) -> None:
        """Run GPU slots on host fallbacks from now on (zero
        survivors): each takes an attempt token."""
        self.degraded = True
        self.wraps = tuple(
            [SLOT_ATTEMPT if w == SLOT_STREAM else w for w in self.wraps]
        )

    # -- pass accounting -------------------------------------------------
    def begin_pass(self) -> None:
        with self._lock:
            self.pending = len(self.lowering.nodes)
            self.joins = list(self.lowering.join_init)
            self.attempts = {}
            self.attempt_log = {}
            self.replayed = set()

    def join(self, slot: int) -> Optional[Sequence[int]]:
        """The slot-join step, on every configuration: mark *slot* done
        (its join counter parks at -1) and release its successors.
        Returns the successor slots whose join counter reached zero,
        None when none did, or :data:`PASS_DONE` when *slot* completed
        the pass (then no successor is ready: a ready one would still
        be pending).  One value, not a pair: building and unpacking a
        tuple per task costs the host loop ~2%."""
        ready = None
        with self._lock:
            joins = self.joins
            joins[slot] = -1
            for t in self.lowering.succ_slots[slot]:
                n = joins[t] = joins[t] - 1
                if not n:
                    if ready is None:
                        ready = [t]
                    else:
                        ready.append(t)
            pending = self.pending = self.pending - 1
            if not pending:
                return PASS_DONE
            return ready

    def done(self, slot: int) -> bool:
        """True once *slot* went through :meth:`join` this pass (and
        was not retracted since)."""
        return self.joins[slot] < 0

    def retract(self, slot: int) -> None:
        """Recovery: *slot*'s committed execution was lost with its
        device; it is no longer done and will run again (replayed)."""
        with self._lock:
            self.joins[slot] = 0
            self.replayed.add(self.lowering.nodes[slot].nid)

    def rebuild_joins(self) -> List[int]:
        """Recovery: recount each not-done slot's join counter over its
        not-done predecessors, re-baseline the pass count, and return
        the slots that are ready now.  A done slot (a finished push
        whose pull and kernel were retracted) must not run again: its
        counter stays parked below 0, which a later join only lowers."""
        with self._lock:
            succ_slots = self.lowering.succ_slots
            joins = self.joins
            joins[:] = [-1 if j < 0 else 0 for j in joins]
            remaining = [s for s, j in enumerate(joins) if j == 0]
            for s in remaining:
                for t in succ_slots[s]:
                    if joins[t] >= 0:
                        joins[t] += 1
            self.pending = len(remaining)
            return [s for s in remaining if joins[s] == 0]

    def pass_completed(self) -> bool:
        """Record a finished pass; True when the topology should stop."""
        with self._lock:
            self.passes_done += 1
            if self.error is not None:
                return True
        if self.repeats is not None:
            return self.passes_done >= self.repeats
        assert self.predicate is not None
        return bool(self.predicate())

    def complete(self, error: Optional[BaseException] = None) -> None:
        """Run the finishers, then resolve the future: with *error* if
        given, else with the first task error, else with the pass count.

        Every resolving path ends here — finalization, a withdrawn
        queued submission, drain's force-resolve after its cancel grace
        and a stranded shutdown — so the finishers run exactly once,
        just before the future resolves: the first caller claims them
        and resolves; a later caller returns.  Without finishers an
        already-resolved future is tolerated instead (a drain timeout or
        a ``wait=False`` shutdown may have force-resolved it while the
        flush cascade was still finishing; docs/runtime.md).
        """
        if self.finishers:
            with self._lock:
                claimed, self._finishing = self._finishing, True
            if claimed:
                return
            for finish in self.finishers:
                finish(self)
        if error is None:
            error = self.error
        try:
            if error is not None:
                self.future.set_exception(error)
            else:
                self.future.set_result(self.passes_done)
        except InvalidStateError:
            pass

    def take_admission_release(self) -> bool:
        """Claim the one-time admission-ledger release; True for the
        single caller that must return this topology's capacity."""
        with self._lock:
            if not self.admitted or self._admission_released:
                return False
            self._admission_released = True
            return True

    # -- resilience accounting (docs/resilience.md) --------------------
    def record_attempt(self, nid: int, error: BaseException) -> List[BaseException]:
        """Append one failed attempt for node *nid*; returns the full
        history (oldest first)."""
        with self._lock:
            history = self.attempts.setdefault(nid, [])
            history.append(error)
            log = self.attempt_log.setdefault(nid, [])
            log.append({"error": type(error).__name__})
            return list(history)

    def record_retry_delay(self, nid: int, info) -> None:
        """Attach the computed backoff (:class:`repro.resilience.RetryDelay`)
        to node *nid*'s most recent failed attempt, so the structured
        history in :class:`repro.errors.TaskFailedError` shows the
        delay slept and whether the exponential had saturated at the
        policy's ``max_delay`` cap."""
        with self._lock:
            log = self.attempt_log.get(nid)
            if log:
                log[-1].update(info.as_dict())

    def attempt_details(self, nid: int) -> List[dict]:
        """Structured per-attempt history for node *nid* (oldest
        first): error class plus retry-delay/saturation fields."""
        with self._lock:
            return [dict(e) for e in self.attempt_log.get(nid, ())]

    def event(self, kind: str, **fields: object) -> None:
        """Record a structured failure/recovery event (JSON-ready)."""
        ev = {"kind": kind}
        ev.update(fields)
        with self._lock:
            self.events.append(ev)

    # -- quiescence-based recovery -------------------------------------
    def enter(self) -> bool:
        """A worker is about to run a task; False means recovery is
        pending and the caller must drop the item (recovery will
        reschedule whatever still needs to run)."""
        with self._lock:
            if self._recovery_devices and not self._recovering:
                return False
            self.active += 1
            return True

    def leave(self) -> bool:
        """A task left the in-flight set; True when the caller must run
        the recovery pass (it observed quiescence with recovery
        pending)."""
        with self._lock:
            self.active -= 1
            return (
                self.active == 0
                and bool(self._recovery_devices)
                and not self._recovering
            )

    def request_recovery(self, ordinal: int) -> bool:
        """Note that device *ordinal* failed; True when the caller
        should run recovery right now (nothing is in flight)."""
        with self._lock:
            self.gen += 1  # invalidate queued items immediately
            self._recovery_devices.add(ordinal)
            return self.active == 0 and not self._recovering

    def take_recovery(self) -> Set[int]:
        """Claim the pending recovery set (called by the recovery pass)."""
        with self._lock:
            self._recovering = True
            devices, self._recovery_devices = self._recovery_devices, set()
            return devices

    def finish_recovery(self) -> bool:
        """Mark recovery done; True when new failures arrived meanwhile
        (the caller should run another pass)."""
        with self._lock:
            self._recovering = False
            return bool(self._recovery_devices) and self.active == 0

    @property
    def recovery_pending(self) -> bool:
        with self._lock:
            return bool(self._recovery_devices) or self._recovering


class Lowering:
    """The slot form of a graph: the only form the executor runs.

    One Kahn sort (shared with :meth:`Heteroflow.validate` and
    :meth:`Heteroflow.topological_order`) validates the graph and
    lowers it to *slots* — a topological order where slot *s*'s
    successors and initial join counter are plain tuple lookups.  A
    fresh submission lowers its graph, or reuses the last lowering of
    an unchanged graph (:meth:`Topology.lower`); a
    :class:`FrozenTopology` is a lowering kept for every replay.  A
    lowering is never mutated, so concurrent submissions share it.
    """

    _groups: Optional[PlacementGroups] = None
    _launches: Optional[Tuple[Optional[KernelLaunch], ...]] = None

    def __init__(self, graph: "Heteroflow") -> None:
        order, succ = graph._kahn()
        graph._check_work()
        self.graph = graph
        all_nodes = graph.nodes
        slot_of = [0] * len(order)
        for s, i in enumerate(order):
            slot_of[i] = s
        #: slot -> node, in topological (ready) order
        self.nodes: Tuple = tuple([all_nodes[i] for i in order])
        #: slot -> successor slots (tuple of ints)
        self.succ_slots: Tuple[Tuple[int, ...], ...] = tuple(
            [tuple([slot_of[j] for j in succ[i]]) for i in order]
        )
        #: slot -> initial join counter (number of dependents)
        self.join_init: Tuple[int, ...] = tuple(
            [len(n.dependents) for n in self.nodes]
        )
        #: slots with no dependents (run-ready at pass start)
        self.source_slots: Tuple[int, ...] = tuple(
            [s for s, d in enumerate(self.join_init) if d == 0]
        )
        #: slot -> host callable (None for GPU slots)
        self.callables: Tuple = tuple([n.callable for n in self.nodes])
        #: slot -> True for a pull, push or kernel slot
        self.gpu_slots: Tuple[bool, ...] = tuple([n.type.is_gpu for n in self.nodes])
        #: slot -> what wraps its call in a submission without a retry
        #: policy, timeout or sanitizer: an attempt token only for a
        #: task with its own retry policy or timeout
        self.wraps: Tuple[int, ...] = tuple(
            [
                SLOT_ATTEMPT
                if n.retry_policy is not None or n.timeout_s is not None
                else SLOT_STREAM if g else SLOT_PLAIN
                for n, g in zip(self.nodes, self.gpu_slots)
            ]
        )
        self.has_gpu = any(self.gpu_slots)
        #: the pull nodes: the only ones holding a device buffer, a
        #: replay snapshot or a degraded host shadow
        self.pulls: Tuple = tuple([n for n in self.nodes if n.type is TaskType.PULL])
        #: no slot needs a wrap (host-only, no per-task retry or
        #: timeout): a worker runs ready slots in chunks
        self.fast_capable = not any(self.wraps)

    @property
    def placement_groups(self) -> PlacementGroups:
        """Algorithm 1's union-find groups over the GPU slots, built on
        first use; every placement of this lowering packs them."""
        groups = self._groups
        if groups is None:
            groups = self._groups = PlacementGroups(self.nodes)
        return groups

    @property
    def kernel_launches(self) -> Tuple[Optional[KernelLaunch], ...]:
        """slot -> the kernel slot's compiled launch (None for other
        slots), built on first use like :attr:`placement_groups`; every
        run of this lowering launches its kernels from them."""
        launches = self._launches
        if launches is None:
            launches = self._launches = tuple(
                [kernel_launch(n) if n.type is TaskType.KERNEL else None for n in self.nodes]
            )
        return launches

    @property
    def name(self) -> str:
        return self.graph.name

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def kernel_launch(node: "Node") -> KernelLaunch:
    """Compile kernel *node*'s launch: its pull-handle arguments become
    lookups of the pull's buffer at each launch."""
    return KernelLaunch(
        node.launch,
        node.kernel_fn,
        node.kernel_args,
        [(i, a.node) for i, a in enumerate(node.kernel_args) if isinstance(a, PullTask)],
        node.name,
    )


class FrozenTopology(Lowering):
    """Immutable compiled form of a :class:`Heteroflow` graph.

    Built by :meth:`Heteroflow.freeze`: the graph's :class:`Lowering`,
    kept for every replay.  Each executor keeps its compiled plan
    (placement grouping, device assignment) in :attr:`plans`, so
    repeated ``run(frozen)`` submissions replay without re-running
    Algorithm-1 placement or graph validation (docs/runtime.md, "Freeze
    and replay").

    The compiled state is shared by every replay and never mutated;
    per-submission state (join counters, callables patched by
    ``bindings=``) lives on the :class:`Topology`.
    """

    def __init__(self, graph: "Heteroflow") -> None:
        if graph.empty:
            raise GraphError(f"cannot freeze empty graph {graph.name!r}")
        super().__init__(graph)
        #: executor -> its compiled plan of this graph, keyed weakly: a
        #: plan dies with its executor or with this graph
        self.plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # bindings lookup: host-task name -> slot; duplicate names are
        # poisoned (-1) and rejected at bind time
        host_slots: Dict[str, int] = {}
        for s, n in enumerate(self.nodes):
            if n.callable is not None:
                host_slots[n.name] = -1 if n.name in host_slots else s
        self._host_slots = host_slots
        self._footprint: Optional[int] = None
        self._lint_cache: Dict[tuple, object] = {}

    def bind(self, bindings: Dict[str, Callable]) -> Tuple:
        """The per-slot callable table with *bindings* (host-task name
        -> callable) patched in; the frozen table stays untouched."""
        callables = list(self.callables)
        for name, fn in bindings.items():
            slot = self._host_slots.get(name)
            if slot is None:
                raise GraphError(
                    f"bindings: frozen graph {self.graph.name!r} has "
                    f"no host task named {name!r}"
                )
            if slot < 0:
                raise GraphError(
                    f"bindings: host task name {name!r} is ambiguous "
                    f"in frozen graph {self.graph.name!r}"
                )
            if not callable(fn):
                raise GraphError(
                    f"bindings: value for {name!r} is not callable"
                )
            callables[slot] = fn
        return tuple(callables)

    def predicted_footprint(self) -> int:
        """Buddy-rounded device-memory footprint, computed once.

        Same quantity as
        :func:`repro.service.admission.predicted_footprint_bytes` — the
        admission ledger charges replays from this cache instead of
        re-deriving the HF020 capacity model per submission.
        """
        fp = self._footprint
        if fp is None:
            from repro.analysis.model import predicted_footprint_bytes

            fp = predicted_footprint_bytes(self.graph)
            self._footprint = fp
        return fp

    def lint(self, **kwargs):
        """Cached hflint report (the graph can no longer change).

        One analysis per distinct keyword set; repeat calls return the
        identical :class:`repro.analysis.LintReport` object.
        """
        try:
            key = tuple(sorted(kwargs.items()))
        except TypeError:
            key = None
        if key is not None:
            cached = self._lint_cache.get(key)
            if cached is not None:
                return cached
        from repro.analysis.linter import lint as _lint

        report = _lint(self.graph, **kwargs)
        if key is not None:
            self._lint_cache[key] = report
        return report

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"FrozenTopology({self.graph.name!r}, slots={len(self.nodes)}, "
            f"fast={self.fast_capable})"
        )
