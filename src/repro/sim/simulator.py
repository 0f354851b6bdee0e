"""The discrete-event executor: replay a Heteroflow graph in virtual time.

:class:`SimMachine` is the one model of a machine's scheduler, used by
:class:`SimExecutor` for one machine and by
:class:`~repro.dist.simulator.DistSimExecutor` once per cluster node:

- ready tasks wait in one LIFO list per machine (the newest ready task
  runs first, the depth-first order of the work-stealing executor's
  owner-side pop); there are no per-worker deques and no stealing, so
  a free CPU worker simply takes the newest ready task;
- a host task occupies its worker for ``cpu_seconds``;
- a GPU task occupies the worker for ``dispatch_overhead`` only, then
  becomes an op on a per-(worker slot, device, op class) stream; ops
  on one stream serialize (like the real per-(worker, device)
  streams), and the device additionally caps concurrent kernels /
  copies via its engine servers;
- successors release when the GPU op *completes* (the event-callback
  semantics of the real executor).

The same :class:`~repro.core.placement.DevicePlacement` pass assigns
devices before the clock starts.  The trace is the real executor's
:class:`~repro.core.observer.TaskRecord`, in virtual seconds: a host
task's record spans its run on worker ``worker_id``; a GPU op's spans
its run on the device, with ``worker_id`` the worker that dispatched
it, ``stream`` a per-machine id of its (slot, device, class) stream
and ``stream_seq`` its completion index on that stream.  So
:func:`repro.check.validate_schedule`, :mod:`repro.core.tracing` and
the run-report profiler read a simulated run as they read a real one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.heteroflow import Heteroflow
from repro.core.node import Node, TaskType
from repro.core.observer import TaskRecord
from repro.core.placement import DevicePlacement, PlacementResult
from repro.errors import SimulationError
from repro.sim.cost import CostModel, TaskCost
from repro.sim.events import EventQueue
from repro.sim.machine import MachineSpec

#: placement strategy signature: (nodes, num_gpus) -> PlacementResult
PlacementFn = Callable[[Sequence[Node], int], PlacementResult]


@dataclass
class SimReport:
    """Outcome of one simulated run."""

    makespan: float
    num_tasks: int
    machine: MachineSpec
    core_busy: List[float]
    gpu_busy: List[float]
    placement: Optional[PlacementResult] = None
    trace: List[TaskRecord] = field(default_factory=list)

    @property
    def core_utilization(self) -> float:
        """Mean fraction of the makespan each core spent busy."""
        if self.makespan <= 0 or not self.core_busy:
            return 0.0
        return sum(self.core_busy) / (len(self.core_busy) * self.makespan)

    @property
    def gpu_utilization(self) -> float:
        """GPU busy-time over (gpus x makespan).

        With ``kernel_slots > 1`` a device can exceed 1.0 (multiple
        concurrent kernels count their full durations); the metric is
        comparable across runs of the same machine spec.
        """
        if self.makespan <= 0 or not self.gpu_busy:
            return 0.0
        return sum(self.gpu_busy) / (len(self.gpu_busy) * self.makespan)

    @property
    def makespan_minutes(self) -> float:
        return self.makespan / 60.0


class _Server:
    """Capacity-limited resource with FIFO admission."""

    __slots__ = ("capacity", "busy", "waiting")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.busy = 0
        self.waiting: Deque[Callable[[], None]] = deque()

    def acquire(self, start: Callable[[], None]) -> None:
        if self.busy < self.capacity:
            self.busy += 1
            start()
        else:
            self.waiting.append(start)

    def release(self) -> None:
        if self.waiting:
            self.waiting.popleft()()
        else:
            self.busy -= 1


class _Stream:
    """In-order op queue bound to one (worker, device) pair; *sid* is
    its id in the trace and *done* the ops it has completed."""

    __slots__ = ("ops", "active", "sid", "done")

    def __init__(self, sid: int) -> None:
        self.ops: Deque = deque()
        self.active = False
        self.sid = sid
        self.done = 0


class SimMachine:
    """One machine's scheduler in virtual time.

    It owns the machine's free workers, its ready list, its
    per-(slot, device, class) streams and its kernel/copy engine
    servers, and runs on a shared :class:`EventQueue`.  The graph-level
    bookkeeping stays with the caller: :meth:`ready` hands it a task
    whose dependencies are met, and *complete* is called with each task
    as it finishes.

    With *dedicated_gpu_workers*, workers ``[0, num_gpus)`` only
    dispatch GPU ops and the rest only run host tasks, each side with
    its own ready list; otherwise every worker serves the one list.
    *lifo* False serves the oldest ready task first instead.
    """

    def __init__(
        self,
        machine: MachineSpec,
        cost_model: CostModel,
        clock: EventQueue,
        complete: Callable[[Node], None],
        *,
        lifo: bool = True,
        dedicated_gpu_workers: bool = False,
        trace: Optional[List[TaskRecord]] = None,
    ) -> None:
        m = self.machine = machine
        self._cost_model = cost_model
        self._clock = clock
        self._complete = complete
        self._lifo = lifo
        self._trace = trace
        self.core_busy = [0.0] * m.num_cores
        self.gpu_busy = [0.0] * max(m.num_gpus, 1)
        self._ready: Deque[Node] = deque()
        self._ready_gpu: Optional[Deque[Node]] = None
        if dedicated_gpu_workers:
            self._ready_gpu = deque()
            self._gpu_workers: Deque[int] = deque(range(m.num_gpus))
            self._cpu_workers: Deque[int] = deque(range(m.num_gpus, m.num_cores))
        else:
            self._gpu_workers = self._cpu_workers = deque(range(m.num_cores))
        # stream key: (worker-slot, device, op-class).  Copies and
        # kernels use separate streams so GPU memory operations overlap
        # kernel execution ("concurrent GPU memory and kernel
        # operations", paper §III-C) instead of head-of-line blocking
        # behind them.  There are as many streams per (device, class)
        # as workers; an op lands on the least-loaded one — the DES
        # approximation of work stealing redistributing GPU tasks
        # across worker streams instead of piling them onto whichever
        # worker happened to be free.
        self._streams: Dict[Tuple[int, int, str], _Stream] = {}
        self._engines = {
            TaskType.PULL: [_Server(m.h2d_engines) for _ in range(m.num_gpus)],
            TaskType.PUSH: [_Server(m.d2h_engines) for _ in range(m.num_gpus)],
            TaskType.KERNEL: [_Server(m.kernel_slots) for _ in range(m.num_gpus)],
        }

    def ready(self, node: Node) -> None:
        """Queue *node*, whose dependencies are all met, and start what
        the free workers can take."""
        if self._ready_gpu is not None and node.type is not TaskType.HOST:
            self._ready_gpu.append(node)
        else:
            self._ready.append(node)
        self._pump()

    def _take(self, ready: Deque[Node]) -> Node:
        return ready.pop() if self._lifo else ready.popleft()

    def _pump(self) -> None:
        while self._cpu_workers and self._ready:
            self._start(self._cpu_workers.popleft(), self._take(self._ready))
        while self._ready_gpu and self._gpu_workers:
            self._start(self._gpu_workers.popleft(), self._take(self._ready_gpu))

    def _release(self, worker: int) -> None:
        if self._ready_gpu is not None and worker < self.machine.num_gpus:
            self._gpu_workers.append(worker)
        else:
            self._cpu_workers.append(worker)
        self._pump()

    def _record(
        self, node: Node, worker: int, begin: float, stream: Optional[_Stream] = None
    ) -> None:
        if self._trace is not None:
            rec = TaskRecord(
                node.name, node.type.value, worker, node.device, begin, self._clock.now, node.nid
            )
            if stream is not None:
                rec.stream, rec.stream_seq = stream.sid, stream.done
            self._trace.append(rec)

    def _start(self, worker: int, node: Node) -> None:
        cost = self._cost_model.cost_of(node)
        clock = self._clock
        begin = clock.now
        if node.type is TaskType.HOST:
            duration = cost.cpu_seconds

            def host_done() -> None:
                self.core_busy[worker] += duration
                self._record(node, worker, begin)
                # successors first, then the worker: the freed worker
                # must see work this task just enabled (the real
                # executor pushes successors before popping again)
                self._complete(node)
                self._release(worker)

            clock.schedule_after(duration, host_done)
            return
        dev = node.device
        if dev is None:
            raise SimulationError(f"GPU task {node.name!r} was not placed")
        duration = self._op_seconds(node, cost)
        klass = "kernel" if node.type is TaskType.KERNEL else "copy"
        dispatch = self.machine.dispatch_overhead

        def dispatched() -> None:
            self.core_busy[worker] += dispatch
            stream = self._pick_stream(dev, klass)
            stream.ops.append((node, duration, worker))
            self._advance(stream)
            self._release(worker)

        clock.schedule_after(dispatch, dispatched)

    def _op_seconds(self, node: Node, cost: TaskCost) -> float:
        m = self.machine
        if node.type is TaskType.PULL:
            return m.h2d_seconds(cost.copy_bytes)
        if node.type is TaskType.PUSH:
            return m.d2h_seconds(cost.copy_bytes)
        return m.kernel_launch_overhead + cost.gpu_seconds

    def _pick_stream(self, dev: int, klass: str) -> _Stream:
        best: Optional[_Stream] = None
        best_load = -1
        for slot in range(self.machine.num_cores):
            s = self._streams.get((slot, dev, klass))
            if s is None:
                s = self._streams[(slot, dev, klass)] = _Stream(len(self._streams))
            load = len(s.ops) + (1 if s.active else 0)
            if load == 0:
                return s
            if best is None or load < best_load:
                best, best_load = s, load
        assert best is not None
        return best

    def _advance(self, stream: _Stream) -> None:
        if stream.active or not stream.ops:
            return
        stream.active = True
        node, duration, worker = stream.ops.popleft()
        dev = node.device
        engine = self._engines[node.type][dev]
        clock = self._clock

        def start() -> None:
            begin = clock.now

            def finish() -> None:
                self.gpu_busy[dev] += duration
                stream.done += 1
                self._record(node, worker, begin, stream)
                self._complete(node)
                engine.release()
                stream.active = False
                self._advance(stream)

            clock.schedule_after(duration, finish)

        engine.acquire(start)


class SimExecutor:
    """Schedules Heteroflow graphs onto one virtual machine."""

    #: the machine model it runs (the checker's mutant swaps in its own)
    _machine_class = SimMachine

    def __init__(
        self,
        machine: MachineSpec,
        cost_model: Optional[CostModel] = None,
        *,
        placement: Optional[PlacementFn] = None,
        record_trace: bool = False,
        dedicated_gpu_workers: bool = False,
        ready_policy: str = "lifo",
    ) -> None:
        """*dedicated_gpu_workers*: reserve one worker per GPU that only
        dispatches GPU ops (the StarPU-style design the paper rejects);
        the ABL-DEDIC ablation baseline.

        *ready_policy*: ``"lifo"`` (default) models the work-stealing
        executor's owner-side LIFO pop — depth-first progress that
        pipelines each dependency chain onto the GPU quickly.
        ``"fifo"`` models a central breadth-first queue (the
        ABL-STEAL ablation baseline), which drains whole graph levels
        before descending and so delays GPU occupancy.
        """
        self.machine = machine
        self.cost_model = cost_model or CostModel()
        self._placement = placement or DevicePlacement().place
        self.record_trace = record_trace
        self.dedicated_gpu_workers = dedicated_gpu_workers
        if ready_policy not in ("lifo", "fifo"):
            raise SimulationError(f"unknown ready policy {ready_policy!r}")
        self.ready_policy = ready_policy
        if dedicated_gpu_workers and machine.num_cores <= machine.num_gpus:
            raise SimulationError(
                "dedicated GPU workers require more cores than GPUs"
            )

    def run(self, graph: Heteroflow) -> SimReport:
        """Simulate one pass of *graph*; returns the makespan report."""
        graph.validate()
        nodes = graph.nodes
        m = self.machine
        placement = self._placement(nodes, m.num_gpus)
        join: Dict[int, int] = {n.nid: len(n.dependents) for n in nodes}
        done = 0

        def complete(node: Node) -> None:
            nonlocal done
            done += 1
            for succ in node.successors:
                join[succ.nid] -= 1
                if join[succ.nid] == 0:
                    sim.ready(succ)

        clock = EventQueue()
        trace: List[TaskRecord] = []
        sim = self._machine_class(
            m, self.cost_model, clock, complete,
            lifo=self.ready_policy == "lifo",
            dedicated_gpu_workers=self.dedicated_gpu_workers,
            trace=trace if self.record_trace else None,
        )
        for n in nodes:
            if not n.dependents:
                sim.ready(n)
        makespan = clock.run()
        if done != len(nodes):
            raise SimulationError(
                f"simulation stalled: {done}/{len(nodes)} tasks completed"
            )
        return SimReport(
            makespan=makespan,
            num_tasks=len(nodes),
            machine=m,
            core_busy=sim.core_busy,
            gpu_busy=sim.gpu_busy[: m.num_gpus],
            placement=placement,
            trace=trace,
        )
