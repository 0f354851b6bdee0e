"""One scenario engine for every seeded verification sweep.

A *suite* is one row of :data:`SUITES`: the module whose
``scenarios(report, n, **params)`` generator plans, runs and checks one
seeded scenario per index and yields a :class:`Scenario`, the names of
that module's sweep-level checks, the full and smoke sizes, and the
parameters (configurations, chaos cadence, gateway shape) the generator
reads.  The table is the only place that holds them.

:func:`run` sweeps a suite into a :class:`Report` whose
:meth:`~Report.to_dict` is the one report envelope,
``repro.verify-report/1``, behind ``python -m repro verify <suite>`` and
the committed ``BENCH_*`` records (docs/testing.md).  A sweep never
raises on a violation: the report carries them, the CLI exits nonzero.
The checks that several suites share live here too: counter agreement
(:func:`counter_mismatches`, :func:`counters_of`) and the
serving-gateway sweep (:func:`serving`).
"""

from __future__ import annotations

import importlib
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

SCHEMA = "repro.verify-report/1"


def percentiles(samples: Iterable[float]) -> Dict[str, float]:
    """p50/p95/p99 by nearest rank over *samples* (empty -> zeros)."""
    ordered = sorted(samples)
    last = len(ordered) - 1
    return {
        f"p{round(q * 100)}": ordered[min(last, int(round(q * last)))] if ordered else 0.0
        for q in (0.50, 0.95, 0.99)
    }


def cadence(index: int, n: int, families: Tuple[str, ...], default: str) -> str:
    """The chaos family scenario *index* of an *n*-scenario sweep plans.

    Families take evenly spaced slots of a period of five (one family
    per five scenarios at full size), shrunk to the sweep so that any
    sweep of at least ``len(families)`` scenarios plans every family.
    """
    period = max(min(5, n), len(families))
    step = period // len(families)
    for j, family in enumerate(reversed(families)):
        if index % period == period - 1 - j * step:
            return family
    return default


def unfired(report: "Report", fired: Dict[str, str]) -> List[str]:
    """Sweep-level check: a scenario of each chaos family in *fired*
    (kind -> the tally that counts it firing) that never fired."""
    return [
        f"planned {sc.kind} in scenario #{sc.index} never fired"
        for sc in report.scenarios
        if sc.kind in fired and sc.counts.get(fired[sc.kind], 0) < 1
    ]


def counters_of(snapshot: Dict[str, Any], keys: Iterable[str]) -> Dict[str, int]:
    """The integer counters named *keys* in a metrics *snapshot*; a name
    the snapshot lacks is left out."""
    return {k: snapshot[k] for k in keys if isinstance(snapshot.get(k), int)}


def counter_mismatches(
    rows: Iterable[Tuple[str, float, float]],
    at_least: Iterable[Tuple[str, float, float]] = (),
) -> List[str]:
    """Counter agreement: one violation per ``(counter, got, want)`` row
    whose counter moved *got* where the harness counted *want*.  A row
    of *at_least* only needs ``got >= want``: its counter may also tick
    for an event the harness cannot tell apart (a deadline firing as
    the run completes anyway)."""
    out = [f"counter {c} moved {got:g}, the harness counted {want:g}" for c, got, want in rows if got != want]
    out.extend(
        f"counter {c} moved {got:g}, fewer than the {want:g} the harness counted"
        for c, got, want in at_least if got < want
    )
    return out


@contextmanager
def serving(report: "Report", gateway: Any) -> Iterator[Any]:
    """Serve a suite's shared *gateway* on a private event loop, which
    the scenario generator drives one scenario at a time
    (``loop.run_until_complete``): start it, yield the loop, copy its
    counters (not its histograms) into ``report.counters`` once the body
    is done, and shut it down even if the body raises."""
    import asyncio

    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(gateway.start())
        try:
            yield loop
            report.counters.update(
                (k, v) for k, v in gateway.snapshot().items() if not isinstance(v, dict)
            )
        finally:
            loop.run_until_complete(gateway.shutdown())
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()


@dataclass
class Scenario:
    """One planned, run and checked scenario.

    ``counts`` are tallies: keys that name a metric (dotted, as in
    docs/observability.md) sum into the envelope's ``counters``, the
    rest into its ``totals``.  ``samples`` are latencies in seconds.
    """

    index: int
    kind: str
    seed: int
    wall_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    samples: List[float] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "seed": self.seed,
            "ok": self.ok,
            "wall_s": round(self.wall_s, 4),
            "counts": dict(sorted(self.counts.items())),
            "detail": self.detail,
            "latency_s": percentiles(self.samples),
            "violations": list(self.violations),
        }


@dataclass
class Report:
    """A whole sweep; ``counters``, ``detail`` and ``sweep_violations``
    are sweep-level, filled by the suite's generator and checks (the
    envelope's ``counters`` add the scenarios' metric counts)."""

    suite: str
    seed: int
    regenerate: str
    scenarios: List[Scenario] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    sweep_violations: List[str] = field(default_factory=list)

    def _tally(self, metrics: bool) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for sc in self.scenarios:
            for key, val in sc.counts.items():
                if ("." in key) == metrics:
                    out[key] = out.get(key, 0) + val
        return dict(sorted(out.items()))

    @property
    def totals(self) -> Dict[str, float]:
        return self._tally(metrics=False)

    @property
    def violations(self) -> List[str]:
        out = [f"[sweep] {v}" for v in self.sweep_violations]
        for sc in self.scenarios:
            out.extend(f"[#{sc.index} {sc.kind} seed={sc.seed}] {v}" for v in sc.violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "suite": self.suite,
            "seed": self.seed,
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "regenerate": self.regenerate,
            "ok": self.ok,
            "num_scenarios": len(self.scenarios),
            "totals": self.totals,
            "counters": dict(sorted({**self._tally(metrics=True), **self.counters}.items())),
            "latency_s": percentiles(s for sc in self.scenarios for s in sc.samples),
            "detail": self.detail,
            "violations": self.violations,
            "scenarios": [sc.to_dict() for sc in self.scenarios],
        }


def sweep(scenarios: Iterable[Scenario], report: Report, log: Optional[Callable] = None) -> None:
    """Collect *scenarios* into *report*, timing and logging each one;
    ``wall_s`` is the time the generator took to yield the scenario (the
    first one includes the suite's set-up)."""
    t0 = time.monotonic()
    for sc in scenarios:
        sc.wall_s = time.monotonic() - t0
        report.scenarios.append(sc)
        if log is not None:
            tally = " ".join(f"{k}={v:g}" for k, v in sorted(sc.counts.items()) if v and "." not in k)
            state = "ok" if sc.ok else f"VIOLATIONS: {len(sc.violations)}"
            log(f"  #{sc.index:>3} {sc.kind:<9} seed={sc.seed:<20} {sc.wall_s:6.2f}s  {tally}  {state}")
        t0 = time.monotonic()


class Suite(NamedTuple):
    """One row of :data:`SUITES` (see the module docstring).  The module
    and its checks are named, not imported, so ``repro verify --help``
    loads no suite."""

    module: str
    checks: Tuple[str, ...]
    full: int
    smoke: int
    params: Dict[str, Any]


_WORKER = {"threads": 2, "gpus": 1, "max_topologies": 4, "policy": "reject"}

SUITES: Dict[str, Suite] = {
    # scenario i -> (configs[i % len], seed + i // len): the full sizes
    # run exactly 25 seeds x 3 configs and 13 seeds x 4 configs; stress
    # smoke = seeds 0-4 on each config (fault modes on seeds 0 and 3)
    "stress": Suite("repro.check.stress", (), 75, 15, {"configs": ((1, 1), (2, 2), (4, 2))}),
    "replay": Suite("repro.check.replay", (), 52, 16, {"configs": ((2, 0), (1, 1), (2, 2), (4, 2))}),
    "sanitize": Suite("repro.check.sanitize", (), 25, 25, {"workers": 4, "gpus": 2}),
    "chaos": Suite("repro.resilience.chaos", (), 50, 10, {}),
    "soak": Suite("repro.service.soak", (), 50, 6, {}),
    # mix: P(pinned instance), P(frozen burst), P(hedged | burst)
    "gateway": Suite("repro.gateway.soak", ("planned_chaos_fired", "throughput_ok"), 50, 6, {
        "workers": 4, "worker": _WORKER, "gateway": {"heartbeat_interval": 0.25},
        "families": ("kill",), "frozen": (8, 32), "mix": (0.45, 0.35, 0.0),
        "throughput_per_scenario": 4,
    }),
    "gateway-gray": Suite(
        "repro.gateway.soak", ("planned_chaos_fired", "hedges_balance", "budget_drill_ok"), 50, 10, {
            "workers": 4, "worker": _WORKER,
            # stall window 0.3s, death budget 4s: a stall never escalates
            "gateway": {
                "heartbeat_interval": 0.1, "stall_misses": 3, "heartbeat_misses": 40,
                "breaker_threshold": 2, "breaker_cooldown": 0.4, "breaker_probe_successes": 2,
                "retry_budget": (32.0, 0.5),
            },
            # the ~50ms hedge shape: healthy-path hedges rarely fire,
            # hedges racing a wedged primary reliably win
            "families": ("stall", "kill"), "frozen": (8,), "hedge": (4, 0.05),
            "mix": (0.3, 0.4, 0.4), "budget_drill": True,
        },
    ),
    "gateway-crash": Suite(
        "repro.durability.soak", ("planned_chaos_fired", "journal_clean"), 50, 10,
        {"workers": 2, "families": ("fault", "crash")},
    ),
}


def run(
    suite: str, scenarios: Optional[int] = None, seed: int = 0, smoke: bool = False,
    log: Optional[Callable[[str], None]] = None,
) -> Report:
    """Run *suite* at *scenarios* (default: its full or smoke size)."""
    row = SUITES[suite]
    n = scenarios if scenarios is not None else row.smoke if smoke else row.full
    report = Report(suite, seed, f"python -m repro verify {suite} --scenarios {n} --seed {seed}")
    module = importlib.import_module(row.module)
    sweep(module.scenarios(report, n, **row.params), report, log)
    for name in row.checks:
        report.sweep_violations.extend(getattr(module, name)(report))
    return report
