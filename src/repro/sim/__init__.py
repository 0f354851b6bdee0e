"""Virtual-time performance model.

The paper evaluates Heteroflow on a 40-core, 4-GPU testbed by measuring
wall-clock makespan of task graphs at different CPU/GPU counts.  This
machine has one core and a GIL, so those curves are physically
unobservable here; instead this package replays a Heteroflow graph on a
calibrated discrete-event machine model that mirrors the real runtime's
semantics:

- every task is dispatched by a CPU *worker* taking the newest task
  from its machine's one ready list (host tasks occupy the worker for
  their full duration; GPU tasks occupy it only for the dispatch
  overhead, matching the asynchronous stream semantics);
- each GPU op runs on one of the per-(worker slot, device) *streams*
  (ops on one stream serialize — this is what couples GPU concurrency
  to worker count, the effect behind Fig. 6's 40-core × 1-GPU point);
- each device caps concurrent kernels (``kernel_slots``) and has one
  copy engine per direction;
- device placement reuses the *same* Algorithm-1 implementation the
  real executor uses.

See DESIGN.md ("Hardware substitutions") for the calibration argument.
"""

from repro.sim.cost import CostModel, TaskCost
from repro.sim.events import EventQueue
from repro.sim.machine import MachineSpec, paper_testbed
from repro.sim.simulator import SimExecutor, SimReport

__all__ = [
    "CostModel",
    "EventQueue",
    "MachineSpec",
    "SimExecutor",
    "SimReport",
    "TaskCost",
    "paper_testbed",
]
