"""Async multiprocess service gateway (docs/gateway.md).

Public surface:

- :class:`~repro.gateway.gateway.Gateway` — the asyncio front-end over
  a pool of spawned executor worker processes, with submission
  handles, streaming events, worker monitoring, hedged submissions,
  and drain/shutdown guarantees;
- :class:`~repro.gateway.worker.WorkerConfig` — per-worker executor
  shape (threads, simulated GPUs, admission policy, optional chaos);
- the :class:`~repro.gateway.spec.WorkSpec` family
  (:class:`~repro.gateway.spec.GeneratedSpec`,
  :class:`~repro.gateway.spec.BuiltinSpec`,
  :class:`~repro.gateway.spec.BurstSpec`) — picklable workload recipes
  workers materialize locally;
- :class:`~repro.gateway.health.WorkerHealth` /
  :class:`~repro.gateway.health.HealthConfig` — per-worker gray-failure
  scoring (heartbeat EWMA, settle-latency quantiles, the
  healthy/stalled/dead state axis);
- :class:`~repro.gateway.chaos.ChaosProfile` — seeded protocol-level
  chaos (delay / drop / stall / spin), applied worker-side;
- :class:`~repro.gateway.gateway.RecoveryReport` — what
  :meth:`Gateway.recover` replayed out of a durable journal
  (docs/durability.md; the journal itself lives in
  :mod:`repro.durability`);
- :func:`~repro.gateway.soak.run_gateway_soak` and
  :func:`~repro.gateway.soak.run_gateway_gray_soak` — the multiprocess
  soak harnesses behind ``python -m repro soak --gateway [--gray]``.

Every name loads on first use, so a spawned worker importing
:mod:`repro.gateway.worker` never pays for asyncio or the front-end.
"""

from repro._lazy import attach

# public name -> defining submodule; loaded on first use (PEP 562)
_EXPORTS = {
    "Gateway": "repro.gateway.gateway",
    "GraphHandle": "repro.gateway.gateway",
    "FrozenHandle": "repro.gateway.gateway",
    "RecoveryReport": "repro.gateway.gateway",
    "Result": "repro.gateway.gateway",
    "Submission": "repro.gateway.gateway",
    "WorkerConfig": "repro.gateway.worker",
    "WorkSpec": "repro.gateway.spec",
    "GeneratedSpec": "repro.gateway.spec",
    "BuiltinSpec": "repro.gateway.spec",
    "BurstSpec": "repro.gateway.spec",
    "ChaosProfile": "repro.gateway.chaos",
    "HealthConfig": "repro.gateway.health",
    "WorkerHealth": "repro.gateway.health",
    "HEALTH_STATES": "repro.gateway.health",
    "OUTCOMES": "repro.gateway.messages",
    "PROTOCOL_VERSION": "repro.gateway.messages",
    "run_gateway_soak": "repro.gateway.soak",
    "run_gateway_gray_soak": "repro.gateway.soak",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
