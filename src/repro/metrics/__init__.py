"""Runtime metrics and profiling (docs/observability.md).

The paper's evaluation is entirely about runtime behaviour — scaling
across CPU counts, GPUs, and problem sizes — so the runtime needs a
first-class observability layer, the way Taskflow pairs its executor
with the tfprof profiler and StarPU ships performance-feedback
counters.  This package provides both halves:

- :mod:`repro.metrics.registry` — a lock-cheap counter / gauge /
  histogram registry.  The executor owns one (``Executor.metrics``)
  and the worker loops, the simulated GPU layer, and the buddy pools
  feed it; ``registry.snapshot()`` returns a flat, JSON-ready dict.
- :mod:`repro.metrics.profiler` — post-processes the
  :class:`~repro.core.observer.TraceObserver` records of a real run
  into a :class:`RunReport`: per-lane utilization, the critical path
  through the *executed* DAG with per-task slack, and steal /
  placement summaries.  Reports serialize to a stable JSON schema
  (``repro.run-report/1``) and render as text.

Entry points:

- ``Executor.run(graph, metrics=True)`` returns a future carrying a
  :class:`RunReport` (``future.run_report`` after completion);
- ``python -m repro profile <workload>`` profiles a shipped workload
  and emits text, schema-v1 JSON, or a chrome-trace file.

Every exported counter and report field is documented in
``docs/observability.md``.
"""

from repro._lazy import attach

# public name -> defining submodule; loaded on first use (PEP 562), so
# an executor that imports the registry does not load the profiler
_EXPORTS = {
    "RUN_REPORT_SCHEMA": "repro.metrics.profiler",
    "CriticalPathEntry": "repro.metrics.profiler",
    "LaneUtilization": "repro.metrics.profiler",
    "RunReport": "repro.metrics.profiler",
    "build_run_report": "repro.metrics.profiler",
    "render_report_text": "repro.metrics.profiler",
    "Counter": "repro.metrics.registry",
    "Gauge": "repro.metrics.registry",
    "Histogram": "repro.metrics.registry",
    "LaneCounter": "repro.metrics.registry",
    "MaxGauge": "repro.metrics.registry",
    "MetricsRegistry": "repro.metrics.registry",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
