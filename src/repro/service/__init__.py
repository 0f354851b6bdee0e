"""Overload protection: bounded admission, deadlines, priority
shedding, and graceful drain.

The production-facing layer in front of the executor's submission path
(docs/runtime.md, "Submission lifecycle"):

- :class:`AdmissionController` — bounded admission by outstanding
  topology count and predicted device-memory footprint (the hflint
  HF020 static model), with ``block`` / ``reject`` / ``shed``
  backpressure policies (:mod:`repro.service.admission`);
- deadlines and priorities ride on the executor itself:
  ``Executor.run(..., deadline=, priority=)``, plus
  ``Executor.drain(timeout=)`` and ``shutdown(drain_timeout=)`` for
  graceful teardown.

The multi-tenant soak suite (:mod:`repro.service.soak`, ``python -m
repro verify soak``) is not imported here: it drives the executor,
which itself imports this package.

Everything the layer does is observable through the ``service.*``
metrics and structured events cataloged in docs/observability.md.
"""

from __future__ import annotations

from repro.service.admission import (
    POLICIES,
    AdmissionController,
    predicted_footprint_bytes,
)

__all__ = [
    "AdmissionController",
    "POLICIES",
    "predicted_footprint_bytes",
]
