"""One run of one workload, in a fresh interpreter.

``run.py`` starts this file once per measured run (and for the extra
set-up samples), from the root of the checkout, and reads the JSON
object it prints as its last line.  Modes:

- ``preseed`` writes the pre-seeded journal ``serve_keyed`` reopens;
- ``setup`` sets the workload up, records ``setup_s`` at the moment
  the first timed op would start, and tears down;
- ``main`` sets up, runs the timed ops untraced, and reports the
  end-to-end metrics;
- ``traced`` sets up, alternates untraced and traced blocks of ops,
  times calls into every layer, and reports the per-layer metrics.

``setup_s`` runs from ``--spawned-at`` (the parent's monotonic clock
just before it started this interpreter) to the first timed op.
"""

import time

T_ENTRY = time.monotonic()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: the timed ops run as this many equal blocks (see measure_blocks)
BLOCKS = 200
#: untraced/traced block pairs in a traced run (see alternate)
TRACE_PAIRS = 5
#: warm-up ops before timing starts (counted in set-up, output-checked)
WARMUP = {"graph_fresh": 20, "graph_frozen": 100, "serve_keyed": 20}
#: plan-share sample size: fresh and frozen ops, alternated
PLAN_OPS = {"graph_fresh": 100, "graph_frozen": 300, "serve_keyed": 100}
#: repetitions of each timed layer call (validate, place, freeze, ...)
LAYER_CALLS = 30


def counter_total(snap: dict, name: str) -> float:
    v = snap.get(name, 0)
    return float(sum(v)) if isinstance(v, list) else float(v)


def executor_counters(before: dict, after: dict, ops: int) -> dict:
    """Per-op executor counters from two metric snapshots."""

    def delta(name: str) -> float:
        return counter_total(after, name) - counter_total(before, name)

    tried = delta("executor.steals_attempted")
    return {
        "core.executor.tasks_per_op": delta("executor.tasks_executed") / ops,
        "core.executor.sleeps_per_op": delta("executor.sleeps") / ops,
        "core.executor.wakeups_per_op": delta("executor.wakeups") / ops,
        "core.executor.steals_attempted_per_op": tried / ops,
        "core.executor.steal_success_ratio": (
            delta("executor.steals_succeeded") / tried if tried else 0.0
        ),
        "core.replay.fast_path_share": delta("replay.fast_path") / ops,
    }


def time_graph_calls(tracer, build) -> None:
    """Time the fresh-path planning calls on graphs from *build()*."""
    from repro.core.placement import DevicePlacement

    placement = DevicePlacement()
    graph = build()
    for _ in range(LAYER_CALLS):
        with tracer.span("core.heteroflow.validate"):
            graph.validate()
        with tracer.span("core.heteroflow.topological_order"):
            graph.topological_order()
        with tracer.span("core.placement.place"):
            placement.place(graph.nodes, 2)
    for _ in range(LAYER_CALLS):
        graph = build()
        with tracer.span("core.heteroflow.freeze"):
            graph.freeze()


def plan_share(fresh_lat, frozen_lat) -> float:
    from measure import median

    return 1.0 - median(frozen_lat) / median(fresh_lat)


async def measure_blocks(step, ops: int, pids, io_seconds=lambda: 0.0) -> dict:
    """Run *ops* ops as :data:`BLOCKS` equal blocks of ``await step(n)``
    (which returns ``(latencies, failures)``).  The gated metrics are
    medians of the per-block figures over all blocks, so one slow spell
    moves few of them.  ``tail.latency_p99_ms`` pools every op.

    Between blocks, outside the timed spans, the reference loop measures
    the machine's speed.  Each block's times are scaled by the mean speed
    around it over :data:`measure.REF_SPEED` (throughput by the inverse):
    they read as times on a machine running the loop at that speed.  The
    fingerprint keeps the unscaled medians (``raw``).

    For the fingerprint, each block also notes the share of CPU time
    the hypervisor stole for other guests and the share of its wall
    time spent in fsync (*io_seconds()* is a running total; it stays 0
    for workloads that never fsync)."""
    from measure import (
        REF_SPEED, cpu_seconds, cpu_times, loop_speed, median, percentile, rss_peak_mb,
        steal_share,
    )

    per_block = ops // BLOCKS
    blocks, failed = [], 0
    speed = loop_speed()
    for _ in range(BLOCKS):
        machine0, cpu0, io0 = cpu_times(), cpu_seconds(pids), io_seconds()
        t0 = time.perf_counter()
        lat, block_failed = await step(per_block)
        elapsed, cpu_s = time.perf_counter() - t0, cpu_seconds(pids) - cpu0
        failed += block_failed
        steal = steal_share(machine0, cpu_times())
        fsync = (io_seconds() - io0) / elapsed
        speed, before = loop_speed(), speed
        scale = (before + speed) / 2.0 / REF_SPEED
        blocks.append((steal, fsync, elapsed, cpu_s, lat, scale))

    def medians(scaled: bool) -> dict:
        k = [b[5] if scaled else 1.0 for b in blocks]
        return {
            "throughput_ops_s": median([per_block / (b[2] * s) for b, s in zip(blocks, k)]),
            "cpu_ms_per_op": median([b[3] * s * 1e3 / per_block for b, s in zip(blocks, k)]),
            "latency_p50_ms": median([percentile(b[4], 50) * s for b, s in zip(blocks, k)]) * 1e3,
            "latency_p90_ms": median([percentile(b[4], 90) * s for b, s in zip(blocks, k)]) * 1e3,
        }

    metrics = dict(
        medians(scaled=True),
        rss_peak_mb=rss_peak_mb(pids),
        **{"tail.latency_p99_ms": percentile([v for b in blocks for v in b[4]], 99) * 1e3},
    )
    return {
        "attempted": per_block * BLOCKS,
        "failed": failed,
        "metrics": metrics,
        "raw": medians(scaled=False),
        "blocks": {
            "steal": [round(b[0], 4) for b in blocks],
            "fsync": [round(b[1], 4) for b in blocks],
            "throughput": [round(per_block / b[2], 2) for b in blocks],
            "speed_scale": [round(b[5], 4) for b in blocks],
        },
    }


async def alternate(step, ops: int) -> dict:
    """The traced run's ops: :data:`TRACE_PAIRS` pairs of an untraced
    and a traced block, ``await step(n, traced, pair)`` each, so slow
    spells and drift hit both halves alike.  ``trace.overhead_share``
    compares their median block throughputs; ``tail.latency_p99_ms``
    pools the untraced latencies."""
    from measure import median, percentile

    n = ops // (2 * TRACE_PAIRS)
    tputs = {False: [], True: []}
    untraced_lat, failed = [], 0
    for pair in range(TRACE_PAIRS):
        for traced in (False, True):
            t0 = time.perf_counter()
            lat, block_failed = await step(n, traced, pair)
            tputs[traced].append(n / (time.perf_counter() - t0))
            failed += block_failed
            if not traced:
                untraced_lat += lat
    return {
        "attempted": 2 * n * TRACE_PAIRS,
        "failed": failed,
        "metrics": {
            "trace.overhead_share": 1.0 - median(tputs[True]) / median(tputs[False]),
            "tail.latency_p99_ms": percentile(untraced_lat, 99) * 1e3,
        },
    }


def add_run(out: dict, run: dict) -> None:
    out["attempted"] += run["attempted"]
    out["failed"] += run["failed"]
    for key in ("blocks", "raw"):
        if key in run:
            out[key] = run[key]


# -- graph workloads --------------------------------------------------------
def run_graph(args, import_s: float) -> dict:
    from graphs import ChainGraph, GraphWorkload, LayeredDag
    from measure import loop_speed
    from spans import Tracer

    tracer = Tracer() if args.mode == "traced" else None
    w = GraphWorkload(args.workload, args.seed, tracer)
    out = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        w.setup()
        _, failed = w.run(WARMUP[args.workload])
        out["attempted"] += WARMUP[args.workload]
        out["failed"] += failed
        setup_s = time.monotonic() - args.spawned_at
        out["setup_speed"] = loop_speed()
        if args.mode == "setup":
            out["metrics"]["setup_s"] = setup_s
            return out
        if args.mode == "main":

            async def step(n):
                return w.run(n)

            timed = asyncio.run(measure_blocks(step, args.ops, [os.getpid()]))
            add_run(out, timed)
            out["metrics"] = dict(timed["metrics"], setup_s=setup_s)
            return out

        # imported only now: it loads the gateway, which graph set-up skips
        import probe

        def allocs() -> int:  # 0 on graph_frozen: its executor has no GPU
            return sum(d.heap.stats()["buffer_allocs"] for d in w.executor.gpu_runtime.devices)

        async def step(n, traced, pair):
            return w.run(n, traced=traced, base=pair * n)

        snap0, allocs0 = w.executor.metrics.snapshot(), allocs()
        timed = asyncio.run(alternate(step, args.ops))
        add_run(out, timed)
        metrics = executor_counters(snap0, w.executor.metrics.snapshot(), timed["attempted"])
        metrics["gpu.pool.allocs_per_op"] = (allocs() - allocs0) / timed["attempted"]
        metrics.update(timed["metrics"])

        # planning-layer calls on twins of the workload's graph
        make = ChainGraph if args.workload == "graph_fresh" else LayeredDag
        time_graph_calls(tracer, lambda: make(args.seed).graph)
        # plan share: fresh vs frozen submissions of the same graph,
        # alternated op by op
        twin = make(args.seed)
        if args.workload == "graph_fresh":
            pairs = ((w.model, w.target, "fresh"), (twin, twin.graph.freeze(), "frozen"))
        else:
            pairs = ((w.model, w.target, "frozen"), (twin, twin.graph, "fresh"))
        lat = {"fresh": [], "frozen": []}
        for _ in range(PLAN_OPS[args.workload]):
            for model, target, kind in pairs:
                t = time.perf_counter()
                good = w.op(model, target)
                lat[kind].append(time.perf_counter() - t)
                out["attempted"] += 1
                out["failed"] += not good
        metrics["core.plan_share"] = plan_share(lat["fresh"], lat["frozen"])
        metrics["setup.import_s"] = import_s
        metrics["setup.executor_start_s"] = w.setup_times["executor_start_s"]
        if "freeze_s" in w.setup_times:
            metrics["setup.freeze_s"] = w.setup_times["freeze_s"]
        else:  # graph_fresh freezes nothing in set-up
            metrics["setup.freeze_s"] = probe.freeze_s(make(args.seed).graph)
        out["metrics"] = metrics
    finally:
        w.teardown()
    # the gateway and journal are not on a graph workload's path
    served, attempted, failed, stragglers = asyncio.run(probe.serve_probe(args.seed, args.workdir))
    out["attempted"] += attempted
    out["failed"] += failed
    out["stragglers"] = stragglers
    out["metrics"].update(served)
    out["metrics"].update(layer_metrics(tracer))
    out["tracer"] = tracer
    return out


def layer_metrics(tracer) -> dict:
    """Span-derived per-layer medians (planning calls) and the
    micro-benchmarks of the executor's and the GPU layer's primitives."""
    import micro

    m = {
        "core.heteroflow.validate_ms": tracer.median_ms("core.heteroflow.validate"),
        "core.heteroflow.topological_order_ms": tracer.median_ms(
            "core.heteroflow.topological_order"
        ),
        "core.placement.place_ms": tracer.median_ms("core.placement.place"),
        "core.heteroflow.freeze_ms": tracer.median_ms("core.heteroflow.freeze"),
    }
    m.update(micro.run_all())
    return m


# -- serving ----------------------------------------------------------------
async def run_serve(args, import_s: float) -> dict:
    import probe
    import serve
    from measure import descendants, loop_speed
    from serve import SPEC, ServeKeyed
    from spans import Tracer

    tracer = Tracer() if args.mode == "traced" else None
    sk = ServeKeyed(args.seed, os.path.join(args.workdir, "journal"), tracer=tracer)
    out = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        await sk.setup()
        _, failed = await sk.run(WARMUP[args.workload], tag="warm")
        out["attempted"] += WARMUP[args.workload]
        out["failed"] += failed
        setup_s = time.monotonic() - args.spawned_at
        out["setup_speed"] = loop_speed()
        if args.mode == "setup":
            out["metrics"]["setup_s"] = setup_s
            return out
        if args.mode == "main":
            blocks = iter(range(BLOCKS))

            async def step(n):
                return await sk.run(n, tag=f"op{next(blocks)}-")

            pids = [os.getpid()] + descendants(os.getpid())
            timed = await measure_blocks(step, args.ops, pids, lambda: sk.os.fsync_s)
            add_run(out, timed)
            out["failed"] += not sk.journal_consistent()
            out["metrics"] = dict(timed["metrics"], setup_s=setup_s)
            return out

        async def step(n, traced, pair):
            sk.traced_ops = traced
            return await sk.run(n, tag=f"{'t' if traced else 'u'}{pair}-", base=pair * n)

        w0 = (await sk.gw.worker_metrics())[0]
        j0 = sk.journal.metrics.snapshot()
        fresh0 = sk.fresh_keys
        timed = await alternate(step, args.ops)
        sk.traced_ops = False
        add_run(out, timed)
        w1 = (await sk.gw.worker_metrics())[0]
        j1 = sk.journal.metrics.snapshot()
        out["failed"] += not sk.journal_consistent()
        metrics = executor_counters(w0, w1, sk.fresh_keys - fresh0)
        metrics.update(serve.layer_metrics(sk, j0, j1, timed["attempted"]))
        # the worker has no GPU, so no pool exists to allocate from
        metrics["gpu.pool.allocs_per_op"] = 0.0
        metrics.update(timed["metrics"])
        # plan share: fresh spec submissions vs frozen replays of the
        # same burst, alternated (unkeyed, so no dedupe in the way)
        fresh, frozen = [], []
        for _ in range(PLAN_OPS[args.workload]):
            for target, sink in ((SPEC, fresh), (sk.handle, frozen)):
                t = time.perf_counter()
                res = await sk.gw.submit(target)
                sink.append(time.perf_counter() - t)
                out["attempted"] += 1
                out["failed"] += not (res.ok and res.passes == 1)
        metrics["core.plan_share"] = plan_share(fresh, frozen)
        time_graph_calls(tracer, lambda: SPEC.build()[0])
        metrics["setup.import_s"] = import_s
        metrics["setup.freeze_s"] = sk.setup_times["freeze_s"]
        # the worker's executor starts in the worker process
        metrics["setup.executor_start_s"] = probe.executor_start_s(args.seed)
        out["metrics"] = metrics
    finally:
        await sk.teardown()
        out["stragglers"] = sk.stragglers
        out["failed"] += sk.inflight if sk.stragglers else 0
    out["metrics"].update(layer_metrics(tracer))
    out["tracer"] = tracer
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--mode", choices=("preseed", "setup", "main", "traced"), required=True)
    ap.add_argument("--spawned-at", type=float, default=T_ENTRY)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default="")
    args = ap.parse_args()

    from measure import pin_to_one_cpu

    pin_to_one_cpu()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401

    if args.workload == "serve_keyed":
        import repro.durability  # noqa: F401
        import repro.gateway  # noqa: F401
    import_s = time.perf_counter() - t0

    if args.mode == "preseed":
        from serve import preseed_journal

        preseed_journal(os.path.join(args.workdir, "journal"), args.seed)
        print(json.dumps({"preseeded": True}))
        return 0
    if args.workload == "serve_keyed":
        out = asyncio.run(run_serve(args, import_s))
    else:
        out = run_graph(args, import_s)
    import numpy

    tracer = out.pop("tracer", None)
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    out["correct"] = out["failed"] == 0 and not out.get("stragglers")
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
