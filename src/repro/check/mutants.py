"""Deliberately-buggy executors: proof that the validator has teeth.

A checker that never fires is indistinguishable from a checker that
cannot fire.  :class:`MutantExecutor` plants a classic scheduler bug —
a *premature dependency release* (equivalent to skipping one join-
counter decrement): any task with two or more predecessors is scheduled
as soon as its **first** predecessor finishes, instead of its last.
Each task still runs exactly once (the pass accounting stays intact),
so the bug is invisible to result-less smoke tests; only a
happens-before check over the trace can see it.  The bug sits in the
topology's one slot-join step, :meth:`Topology.join`, which every slot
completes through: on a worker, or in a GPU slot's stream callback.

:func:`run_mutant_selftest` runs a graph engineered to expose the bug
deterministically — a diamond whose second predecessor sleeps, so the
join task provably begins while that predecessor is still running —
frozen, under both the mutant and the reference executor, once per
configuration of the slot loop, and reports whether the validator
caught the mutant (it must) while passing the reference run (it must,
too).  The configurations are a host-only unpolicied diamond, whose
ready slots stay on the finishing worker (``replay.fast_path`` shows
it), the same diamond under a retry policy (every slot wrapped in an
``_Attempt``), and an unpolicied GPU diamond, whose join kernel the
slow kernel's stream callback would release and launch on the
dispatcher (``executor.continued_launches`` shows it did).

The simulator gets the same treatment.  :class:`MutantSimExecutor`
runs a :class:`~repro.sim.simulator.SimMachine` that releases a GPU
op's successors when the op *starts* on its device instead of when it
completes; the self-test runs it and the reference simulator on
fig4's timing graph and fig9a's placement graph (small sizes), and
the validator must flag only the mutant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro._lazy import np
from repro.core.executor import Executor
from repro.core.heteroflow import Heteroflow
from repro.core.observer import TraceObserver
from repro.core.topology import PASS_DONE, Topology
from repro.check.validate import ScheduleReport, validate_schedule
from repro.resilience.policy import RetryPolicy
from repro.sim.machine import paper_testbed
from repro.sim.simulator import SimExecutor, SimMachine, _Stream


class _PrematureReleaseTopology(Topology):
    def join(self, slot: int) -> Optional[Sequence[int]]:
        ready = None
        join_init = self.lowering.join_init
        with self._lock:
            joins = self.joins
            joins[slot] = -1
            for t in self.lowering.succ_slots[slot]:
                joins[t] -= 1
                # BUG (deliberate): multi-dependency successors are
                # released one decrement early — after their first
                # finished predecessor instead of their last
                if joins[t] == (1 if join_init[t] >= 2 else 0):
                    ready = (ready or []) + [t]
            self.pending -= 1
            return PASS_DONE if self.pending == 0 else ready


class MutantExecutor(Executor):
    """Executor with a seeded premature-release scheduling bug.

    Do not use outside the checker self-test.
    """

    def _make_topology(self, graph, **kwargs) -> Topology:
        return _PrematureReleaseTopology(graph, **kwargs)


class _EarlyReleaseSimMachine(SimMachine):
    def _advance(self, stream: _Stream) -> None:
        if stream.active or not stream.ops:
            return
        stream.active = True
        node, duration, worker = stream.ops.popleft()
        engine = self._engines[node.type][node.device]
        clock = self._clock

        def start() -> None:
            begin = clock.now
            # BUG (deliberate): successors are released as the op starts
            # on its device, not when it completes
            self._complete(node)

            def finish() -> None:
                self.gpu_busy[node.device] += duration
                stream.done += 1
                self._record(node, worker, begin, stream)
                engine.release()
                stream.active = False
                self._advance(stream)

            clock.schedule_after(duration, finish)

        engine.acquire(start)


class MutantSimExecutor(SimExecutor):
    """Simulator with a seeded early-release bug on GPU ops.

    Do not use outside the checker self-test.
    """

    _machine_class = _EarlyReleaseSimMachine


def _diamond_graph(delay: float) -> Heteroflow:
    """fast + slow predecessors joining into one task, plus a tail."""
    hf = Heteroflow("mutant-selftest")
    fast = hf.host(lambda: None, name="fast")
    slow = hf.host(lambda: time.sleep(delay), name="slow")
    join = hf.host(lambda: None, name="join")
    tail = hf.host(lambda: None, name="tail")
    fast.precede(join)
    slow.precede(join)
    join.precede(tail)
    return hf


def _gpu_diamond_graph(delay: float) -> Heteroflow:
    """The diamond as GPU tasks: a pull feeding a fast and a slow
    kernel, a join kernel after both, and a push."""
    data = np.zeros(8)
    hf = Heteroflow("mutant-selftest-gpu")
    src = hf.pull(data, name="src")
    fast = hf.kernel(lambda v: None, src, name="fast")
    slow = hf.kernel(lambda v: time.sleep(delay), src, name="slow")
    join = hf.kernel(lambda v: None, src, name="join")
    tail = hf.push(src, data, name="tail")
    src.precede(fast, slow)
    join.succeed(fast, slow)
    join.precede(tail)
    return hf


#: the slot-loop configurations the self-test covers: name -> (graph
#: builder, GPU count, run policy); a retry policy wraps every slot in
#: an _Attempt, and an unpolicied GPU graph completes its slots in
#: their stream callbacks
CONFIGURATIONS = {
    "inline": (_diamond_graph, 0, None),
    "attempt": (_diamond_graph, 0, RetryPolicy(max_attempts=2)),
    "gpu": (_gpu_diamond_graph, 1, None),
}


def _timing_flow():
    from repro.apps.timing import build_timing_flow

    return build_timing_flow(num_views=8, num_gates=60, paths_per_view=8)


def _placement_flow():
    from repro.apps.placement import build_placement_flow

    return build_placement_flow(num_cells=40, iterations=4, num_matchers=32, window_size=1)


#: the simulator's self-test graphs, fig4's and fig9a's at small sizes,
#: run on an 8-core, 2-GPU testbed: name -> flow builder
SIM_CONFIGURATIONS = {"sim-timing": _timing_flow, "sim-placement": _placement_flow}
SIM_MACHINE = paper_testbed(8, 2)


@dataclass
class SelftestResult:
    """Validator verdicts keyed ``"<executor>/<configuration>"``:
    executor is ``mutant`` or ``reference``, configuration one of
    :data:`CONFIGURATIONS` or :data:`SIM_CONFIGURATIONS`.  For the
    executor's configurations, *fast_path* holds each run's
    ``replay.fast_path`` count (1 when the frozen diamond kept its
    ready slots on the finishing worker, 0 otherwise) and
    *continued* its ``executor.continued_launches`` total (GPU tasks a
    stream callback launched)."""

    reports: Dict[str, ScheduleReport]
    fast_path: Dict[str, float]
    continued: Dict[str, float]

    @property
    def caught(self) -> bool:
        """True iff, on every configuration, the validator flagged the
        mutant and not the correct executor — the checker demonstrably
        has teeth."""
        return all(
            not self.reports[f"mutant/{c}"].ok and self.reports[f"reference/{c}"].ok
            for c in (*CONFIGURATIONS, *SIM_CONFIGURATIONS)
        )


def run_mutant_selftest(delay: float = 0.25) -> SelftestResult:
    """Run the seeded-bug graphs under both executors on every
    configuration and validate.

    *delay* is the slow predecessor's sleep; the mutant schedules the
    join task immediately after the fast predecessor, so the join's
    begin stamp lands well inside the slow task's interval and the
    happens-before check must fire.
    """
    reports: Dict[str, ScheduleReport] = {}
    fast_path: Dict[str, float] = {}
    continued: Dict[str, float] = {}
    for name, (build, num_gpus, policy) in CONFIGURATIONS.items():
        for label, cls in (("mutant", MutantExecutor), ("reference", Executor)):
            key = f"{label}/{name}"
            hf = build(delay)
            obs = TraceObserver()
            with cls(num_workers=2, num_gpus=num_gpus, observers=[obs]) as ex:
                ex.run(hf.freeze(), policy=policy).result(timeout=60)
                snap = ex.metrics.snapshot()
            fast_path[key] = snap["replay.fast_path"]
            continued[key] = sum(snap["executor.continued_launches"])
            reports[key] = validate_schedule(
                hf, obs.records, passes=1, num_gpus=num_gpus
            )
    for name, build in SIM_CONFIGURATIONS.items():
        flow = build()
        for label, sim in (("mutant", MutantSimExecutor), ("reference", SimExecutor)):
            rep = sim(SIM_MACHINE, flow.cost_model, record_trace=True).run(flow.graph)
            reports[f"{label}/{name}"] = validate_schedule(
                flow.graph, rep.trace, passes=1, num_gpus=SIM_MACHINE.num_gpus
            )
    return SelftestResult(reports=reports, fast_path=fast_path, continued=continued)
