"""Baselines and ablation counterparts.

- :class:`~repro.baselines.sequential.SequentialExecutor` — a
  single-threaded, topological-order executor over the same simulated
  GPU runtime; the correctness oracle for differential tests and the
  "1 core" discipline of the scaling studies;
- :class:`~repro.baselines.roundrobin.RoundRobinPlacement` — naive
  device placement ignoring load (ablation against Algorithm 1).

The two scheduler baselines are flags of the virtual-time model,
:class:`~repro.sim.simulator.SimExecutor`: ``dedicated_gpu_workers=True``
pins one worker per GPU as its manager, the StarPU-style design the
paper rejects (ABL-DEDIC), and ``ready_policy="fifo"`` serves ready
tasks from one breadth-first central queue instead of the
work-stealing owner's depth-first LIFO pop (ABL-STEAL).
"""

from repro.baselines.roundrobin import RoundRobinPlacement
from repro.baselines.sequential import SequentialExecutor

__all__ = [
    "RoundRobinPlacement",
    "SequentialExecutor",
]
