"""Sanitizer soundness sweep: static inference vs runtime observation.

For every seed, the sweep generates a seeded random graph
(:mod:`repro.check.generator`), runs it under the hfsan runtime
sanitizer (``Executor.run(..., sanitize=True)``), and checks that

1. the run reports **zero static/dynamic divergence** — every access
   the recording proxies observed was predicted by the effect
   inference engine wherever it claimed confidence (its soundness
   contract, docs/analysis.md);
2. the generator's arithmetic oracle still holds — the proxies are
   transparent (same memory, delegated operations), so sanitized runs
   must produce byte-identical results;
3. the captured-object proxies were uninstalled — the host closures
   hold their original objects again after the future resolves.

A divergence here is a real bug: either the inference engine missed an
access path (unsound) or a proxy misattributed one.  Run with
``python -m repro verify sanitize``; the full-size report is the
committed ``BENCH_sanitize_sweep.json`` record.
"""

from __future__ import annotations

from typing import Iterator

from repro.check.generator import generate_graph
from repro.core.executor import Executor
from repro.harness import Report, Scenario

_RESULT_TIMEOUT = 120.0


def scenarios(
    report: Report, n: int, workers: int, gpus: int
) -> Iterator[Scenario]:
    """Graph seeds ``report.seed + i``, sanitized one after another on
    one shared *workers* x *gpus* executor."""
    ex = Executor(num_workers=workers, num_gpus=gpus)
    try:
        for i in range(n):
            seed = report.seed + i
            gen = generate_graph(seed, num_gpus=gpus)
            sc = Scenario(i, "sanitize", seed, detail={"nodes": gen.num_nodes})
            try:
                fut = ex.run(gen.graph, sanitize=True)
                fut.result(timeout=_RESULT_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - harness boundary
                sc.violations.append(f"sanitized run failed: {exc!r}")
                yield sc
                continue
            san = fut.sanitize_report
            if san is None:
                sc.violations.append("no sanitize report attached")
            else:
                sc.counts = {
                    "checked_tasks": san.checked_tasks,
                    "confident_tasks": san.confident_tasks,
                    "proxied_objects": san.proxied_objects,
                    "divergences": len(san.divergences),
                }
                sc.violations.extend(
                    f"divergence: {d.as_dict()}" for d in san.divergences
                )
            # transparency: the sanitized run must satisfy the same
            # arithmetic oracle an unsanitized run does
            sc.violations.extend(gen.verify(1))
            yield sc
    finally:
        ex.shutdown()
