"""Fault-tolerant execution: policies, fault injection, degradation.

Public surface:

- :class:`RetryPolicy` / :class:`ResiliencePolicy` — per-task and
  per-run retry/timeout policies (``task.retry``, ``task.timeout``,
  ``Executor.run(..., policy=...)``);
- :class:`CircuitBreaker` / :class:`RetryBudget` — shared gray-failure
  primitives (closed/open/half-open breaker with seeded probe timing,
  token-bucket retry budget) used by the gateway's worker health layer
  (docs/gateway.md);
- :class:`FaultProfile` — seeded device fault plans, armed via
  ``Device.configure_faults``.

The seeded chaos suite (:mod:`repro.resilience.chaos`, ``python -m
repro verify chaos``) is not imported here: it drives the executor,
which itself imports this package.

See docs/resilience.md for the full model.
"""

from __future__ import annotations

from repro.resilience.breaker import (
    BREAKER_STATES,
    CircuitBreaker,
    RetryBudget,
)
from repro.resilience.faults import FaultProfile, FaultState
from repro.resilience.policy import (
    ResiliencePolicy,
    RetryDelay,
    RetryPolicy,
    normalize_policy,
)

__all__ = [
    "RetryPolicy",
    "RetryDelay",
    "ResiliencePolicy",
    "normalize_policy",
    "BREAKER_STATES",
    "CircuitBreaker",
    "RetryBudget",
    "FaultProfile",
    "FaultState",
]
