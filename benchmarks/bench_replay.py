"""TAB-REPLAY — frozen-topology replay throughput vs fresh submission.

Measures the payoff of ``Heteroflow.freeze()`` + the executor's
compiled-plan cache (docs/runtime.md, "Freeze and replay") on the same
empty-host-task shapes TAB-OVERHEAD uses: each shape runs fresh
(``run(graph)``, per-submission validation and lowering to slots) and
frozen (``run(frozen)``, the stored lowering), and the table reports
both throughputs plus the speedup ratio.  Both then run on the same
slot loop, so the ratio is what freezing saves per submission; the
guard is that frozen stays faster than fresh on every shape.  A fresh
submission of an unchanged graph reuses its last lowering, so the
fresh side renames a task (a graph mutation) before each timed
submission, outside the timed region: every fresh submission lowers.
"""

import time

from repro.core import Executor, Heteroflow

N_TASKS = 2000
ROUNDS = 5


def build_wide():
    hf = Heteroflow("wide")
    for _ in range(N_TASKS):
        hf.host(lambda: None)
    return hf


def build_chain():
    hf = Heteroflow("chain")
    prev = None
    for _ in range(N_TASKS):
        t = hf.host(lambda: None)
        if prev is not None:
            prev.precede(t)
        prev = t
    return hf


def build_diamonds():
    hf = Heteroflow("diamonds")
    for _ in range(N_TASKS // 4):
        a = hf.host(lambda: None)
        b = hf.host(lambda: None)
        c = hf.host(lambda: None)
        d = hf.host(lambda: None)
        a.precede(b, c)
        d.succeed(b, c)
    return hf


def _throughput(ex, target, rounds=ROUNDS, touch=None):
    """Median tasks/s over *rounds* single-pass submissions; *touch*,
    if given, runs untimed before each one."""
    samples = []
    for _ in range(rounds):
        if touch is not None:
            touch()
        t0 = time.perf_counter()
        ex.run(target).result()
        samples.append(N_TASKS / (time.perf_counter() - t0))
    samples.sort()
    return samples[len(samples) // 2]


def test_replay_throughput_record():
    """Structured record: fresh vs frozen throughput per shape."""
    from conftest import record_table

    rows = []
    meta = {}
    for name, builder in [
        ("wide", build_wide),
        ("chain", build_chain),
        ("diamond", build_diamonds),
    ]:
        fresh_graph = builder()
        frozen = builder().freeze()
        with Executor(2, 0) as ex:
            # warm both paths (thread spin-up, plan compilation)
            ex.run(fresh_graph).result()
            ex.run(frozen).result()
            task = fresh_graph.tasks()[0]
            fresh = _throughput(ex, fresh_graph, touch=lambda: task.rename(task.name))
            replay = _throughput(ex, frozen)
            snap = ex.metrics.snapshot()
        speedup = replay / fresh
        rows.append([name, N_TASKS, fresh, replay, speedup])
        meta[name] = {
            "fresh_tasks_per_s": fresh,
            "frozen_tasks_per_s": replay,
            "speedup": speedup,
            "replay_cache_hits": snap["replay.cache_hits"],
            "replay_cache_misses": snap["replay.cache_misses"],
            "replay_plan_reuses": snap["replay.plan_reuses"],
            "replay_fast_path": snap["replay.fast_path"],
        }
        # regression guard: freezing must still pay off
        assert speedup > 1.0, f"{name}: frozen replay slower than fresh"
    record_table(
        "TAB-REPLAY: frozen replay vs fresh submission (2 workers)",
        ["shape", "tasks", "fresh tasks per s", "frozen tasks per s", "speedup"],
        rows,
        notes="frozen = Heteroflow.freeze() + Executor.run(frozen) slot "
              "replay; per-shape replay.* counters ride in the meta "
              "payload (docs/observability.md)",
        meta=meta,
    )


def test_replay_latency_histogram_record():
    """The replay.latency_seconds histogram covers every replay."""
    frozen = build_diamonds().freeze()
    with Executor(2, 0) as ex:
        for _ in range(10):
            ex.run(frozen).result()
        snap = ex.metrics.snapshot()
    hist = snap["replay.latency_seconds"]
    assert hist["count"] == 10
    assert hist["min"] > 0.0
