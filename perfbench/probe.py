"""Layer probes: short, fixed runs of a layer a workload does not run.

Every traced run reports every per-layer metric as a number, because
the result line admits no empty value.  A workload measures the layers
on its own path from its own ops.  Each layer it does not run is timed
here instead, after the workload's ops, in the same interpreter, on a
small fixed input.  ``run.py`` names the probed metrics in the run's
fingerprint (``probed``, from ``run.PROBED``), so a probe figure is
never taken for the workload's own.
"""

from __future__ import annotations

import os
import time
from typing import Tuple

from repro import Executor

from serve import WORKER, ServeKeyed, layer_metrics, preseed_journal
from spans import Tracer

#: the serve probe's pre-seeded journal and op count: enough ops for
#: steady medians, small enough to add little to a traced run
PROBE_PRESEED = 200
PROBE_OPS = 60


async def serve_probe(seed: int, workdir: str) -> Tuple[dict, int, int, list]:
    """Keyed journaled serving on a :data:`PROBE_PRESEED`-entry journal
    for :data:`PROBE_OPS` traced ops.  Returns (metrics, attempted,
    failed, stragglers); the gateway is shut down and its journal
    directory deleted on every path out."""
    jdir = os.path.join(workdir, "probe-journal")
    preseed_journal(jdir, seed, PROBE_PRESEED)
    sk = ServeKeyed(seed, jdir, preseed=PROBE_PRESEED, tracer=Tracer())
    failed = 0
    try:
        await sk.setup()
        sk.traced_ops = True
        j0 = sk.journal.metrics.snapshot()
        _, failed = await sk.run(PROBE_OPS, tag="probe-")
        j1 = sk.journal.metrics.snapshot()
        failed += not sk.journal_consistent()
        metrics = layer_metrics(sk, j0, j1, PROBE_OPS)
    finally:
        await sk.teardown()
        failed += sk.inflight if sk.stragglers else 0
    return metrics, PROBE_OPS, failed, sk.stragglers


def freeze_s(graph) -> float:
    """Seconds to freeze *graph* once (the set-up step ``graph_frozen``
    takes and ``graph_fresh`` skips)."""
    t0 = time.perf_counter()
    graph.freeze()
    return time.perf_counter() - t0


def executor_start_s(seed: int) -> float:
    """Seconds to start an executor configured as the gateway worker's
    (:data:`serve.WORKER`); its shutdown is not timed."""
    t0 = time.perf_counter()
    executor = Executor(num_workers=WORKER.threads, num_gpus=WORKER.gpus, seed=seed)
    elapsed = time.perf_counter() - t0
    executor.shutdown()
    return elapsed
