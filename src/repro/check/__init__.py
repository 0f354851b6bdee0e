"""repro.check — schedule validation and stress testing.

A race/invariant checker for the executor, GPU runtime, and allocator:

- :mod:`repro.check.generator` — seeded random Heteroflow graphs with
  host-side reference oracles;
- :mod:`repro.check.validate` — whole-execution invariants (exact-once,
  happens-before, stream FIFO order, placement consistency) over
  :class:`~repro.core.observer.TraceObserver` traces;
- :mod:`repro.check.audit` — allocator auditing (alignment, no-overlap,
  matched frees, zero leaks, full coalescing) via buddy trace hooks;
- :mod:`repro.check.mutants` — deliberately-buggy executors proving the
  validator catches real scheduler bugs;
- :mod:`repro.check.stress` — the config x seed suite behind
  ``python -m repro verify stress``;
- :mod:`repro.check.replay` — the fresh-vs-frozen differential suite
  behind ``python -m repro verify replay`` (docs/runtime.md, "Freeze
  and replay");
- :mod:`repro.check.sanitize` — the effect-inference soundness suite
  behind ``python -m repro verify sanitize``: seeded graphs run under
  the hfsan runtime sanitizer and must report zero static/dynamic
  divergence (docs/analysis.md, "Sanitizer").
"""

from repro.check.audit import AllocatorAuditor, AuditReport, AllocEvent
from repro.check.generator import GeneratedGraph, generate_graph
from repro.check.mutants import MutantExecutor, SelftestResult, run_mutant_selftest
from repro.check.stress import run_determinism_check
from repro.check.validate import (
    ScheduleReport,
    Violation,
    validate_schedule,
)

__all__ = [
    "AllocEvent",
    "AllocatorAuditor",
    "AuditReport",
    "GeneratedGraph",
    "MutantExecutor",
    "ScheduleReport",
    "SelftestResult",
    "Violation",
    "generate_graph",
    "run_determinism_check",
    "run_mutant_selftest",
    "validate_schedule",
]
