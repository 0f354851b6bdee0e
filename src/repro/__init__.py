"""repro — a Python reproduction of Heteroflow (Huang & Lin).

Heteroflow is a task-based programming model for concurrent CPU-GPU
computing: applications are expressed as dependency graphs of **host**,
**pull**, **push**, and **kernel** tasks, and an executor maps them
onto CPU workers and GPUs with automatic device placement, pooled
device memory, and work stealing.

Quickstart (the paper's saxpy, Listing 1)::

    import numpy as np
    from repro import Executor, Heteroflow

    N = 65536
    x, y = [], []

    def saxpy(ctx, n, a, xv, yv):
        i = ctx.flat_indices()
        i = i[i < n]
        yv[i] = a * xv[i] + yv[i]

    hf = Heteroflow("saxpy")
    host_x = hf.host(lambda: x.extend([1] * N))
    host_y = hf.host(lambda: y.extend([2] * N))
    pull_x = hf.pull(x)
    pull_y = hf.pull(y)
    kernel = (hf.kernel(saxpy, N, 2, pull_x, pull_y)
                .block_x(256).grid_x((N + 255) // 256))
    push_x = hf.push(pull_x, x)
    push_y = hf.push(pull_y, y)
    host_x.precede(pull_x)
    host_y.precede(pull_y)
    kernel.succeed(pull_x, pull_y).precede(push_x, push_y)

    with Executor(num_workers=8, num_gpus=4) as executor:
        executor.run(hf).result()

Subpackages:

- :mod:`repro.core` — graphs, tasks, executor, placement, stealing;
- :mod:`repro.gpu` — the simulated multi-GPU runtime (streams, events,
  buddy-pooled memory, kernel launches);
- :mod:`repro.sim` — the virtual-time machine model behind the paper's
  scaling figures;
- :mod:`repro.apps.timing` / :mod:`repro.apps.placement` — the two
  VLSI CAD evaluation workloads, built from scratch;
- :mod:`repro.baselines` — sequential oracle and ablation baselines.

The names exported here load on first use (PEP 562): ``import repro``
by itself imports neither numpy nor the runtime.
"""

from repro._lazy import attach

__version__ = "1.0.0"

# public name -> defining submodule; loaded on first use (PEP 562)
_EXPORTS = {
    "Executor": "repro.core.executor",
    "Heteroflow": "repro.core.heteroflow",
    "TaskType": "repro.core.node",
    "TraceObserver": "repro.core.observer",
    "HostTask": "repro.core.task",
    "KernelTask": "repro.core.task",
    "PullTask": "repro.core.task",
    "PushTask": "repro.core.task",
    "Task": "repro.core.task",
    "FrozenTopology": "repro.core.topology",
    "AllocationError": "repro.errors",
    "CycleError": "repro.errors",
    "DeviceError": "repro.errors",
    "EmptyTaskError": "repro.errors",
    "ExecutorError": "repro.errors",
    "FrozenTopologyError": "repro.errors",
    "GraphError": "repro.errors",
    "HeteroflowError": "repro.errors",
    "KernelError": "repro.errors",
    "SimulationError": "repro.errors",
    "ValidationError": "repro.errors",
    "Late": "repro.utils.span",
    "Span": "repro.utils.span",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
__all__ += ["__version__"]
