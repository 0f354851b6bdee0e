"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info`` — library version and system inventory;
- ``figures [names...] [--views N]`` — regenerate the virtual-time
  evaluation tables of :mod:`repro.figures` (all by default), each
  byte for byte as committed under ``benchmarks/results/``;
- ``saxpy`` — run the Listing-1 program on the threaded runtime;
- ``dot {saxpy,timing,placement,sparsenn}`` — print a workload's task
  graph in GraphViz DOT;
- ``trace OUTPUT.json`` — run saxpy under a trace observer and write a
  chrome://tracing / Perfetto JSON file;
- ``check`` — the schedule validator's mutant self-test: a
  deliberately-buggy scheduler must be caught on every route
  (docs/testing.md);
- ``verify SUITE [--scenarios N] [--seed S] [--smoke] [--json OUT]`` —
  run one seeded verification suite (``stress``, ``replay``,
  ``sanitize``, ``chaos``, ``soak``, ``gateway``, ``gateway-gray``,
  ``gateway-crash``; :data:`repro.harness.SUITES`), reconcile every
  scenario, and exit nonzero on any violation; ``--json`` writes the
  ``repro.verify-report/1`` envelope (docs/testing.md);
- ``lint [workloads...] [--json|--dot]`` — run the hflint static
  analyzer over the shipped flows (and, with ``--examples DIR`` or an
  auto-detected ``examples/`` directory, the example graphs); exits
  nonzero on error-severity findings (see docs/analysis.md);
- ``sanitize [workloads...] [--json OUT]`` — run workloads
  under the hfsan runtime sanitizer and cross-check every observed
  span/captured-object access against the static effect inference;
  exits nonzero on any static/dynamic divergence (docs/analysis.md,
  "Sanitizer");
- ``profile {saxpy,timing,placement,sparsenn}`` — run a workload on
  the threaded runtime with metrics enabled and print its
  :class:`~repro.metrics.RunReport` (``--json`` for the stable
  schema-v1 document, ``--trace OUT.json`` for a chrome-trace of the
  same run; see docs/observability.md);
- ``fsck JOURNAL [--json] [--strict]`` — validate a durable submission
  journal read-only: checksums, sequence numbers, duplicate/orphan
  settles, torn tails; ``--strict`` also fails on unsettled entries
  (docs/durability.md);
- ``serve [--workers N] [--duration S] [--traffic] [--chaos]
  [--journal DIR]`` — bring up the multiprocess gateway, optionally
  write through a durable journal (recovering whatever a previous
  incarnation left unsettled), optionally self-drive frozen-replay
  traffic and inject seeded protocol chaos, print one status line per
  tick, then drain and exit; SIGTERM/SIGINT trigger the same graceful
  drain + journal flush instead of killing the process (the operator
  entry point; see docs/gateway.md and docs/durability.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__


def _cmd_info(args: argparse.Namespace) -> int:
    print(f"repro {__version__} — Heteroflow reproduction (Huang & Lin)")
    print("subsystems:")
    print("  repro.core        task graphs + work-stealing CPU-GPU executor")
    print("  repro.gpu         simulated multi-GPU runtime (streams/events/pools)")
    print("  repro.sim         virtual-time machine model (scaling figures)")
    print("  repro.apps        timing correlation, detailed placement, sparse-NN")
    print("  repro.dist        distributed scheduling extension")
    print("  repro.baselines   sequential oracle + ablation schedulers")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.figures import ALL_FIGURES, fig6a_table, format_table

    names = args.names or list(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    for i, name in enumerate(names):
        if name == "fig6a" and args.views:
            table = fig6a_table(num_views=args.views)
        else:
            table = ALL_FIGURES[name]()
        if i:
            print()
        # one table prints exactly its benchmarks/results/<name>.txt
        print(format_table(table), flush=True)
    return 0


def _build_saxpy():
    from repro.analysis.corpus import build_saxpy

    return build_saxpy()


def _cmd_saxpy(args: argparse.Namespace) -> int:
    from repro.core.executor import Executor

    hf, x, y, n = _build_saxpy()
    with Executor(num_workers=args.workers, num_gpus=args.gpus) as ex:
        ex.run(hf).result()
    ok = y == [4] * n
    print(f"saxpy over {n} elements on {args.workers} workers / {args.gpus} GPUs: "
          f"{'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_dot(args: argparse.Namespace) -> int:
    if args.workload == "saxpy":
        hf, *_ = _build_saxpy()
    elif args.workload == "timing":
        from repro.apps.timing import build_timing_flow

        hf = build_timing_flow(num_views=2, num_gates=60, paths_per_view=8).graph
    elif args.workload == "placement":
        from repro.apps.placement import build_placement_flow

        hf = build_placement_flow(num_cells=40, iterations=2).graph
    else:
        from repro.apps.sparsenn import build_inference_flow

        hf = build_inference_flow(
            width=16, num_layers=2, batch_size=8, num_blocks=2, num_shards=2
        ).graph
    sys.stdout.write(hf.dump())
    return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.sim import SimExecutor, paper_testbed
    from repro.sim.trace import render_gantt, summarize

    if args.workload == "timing":
        from repro.apps.timing import build_timing_flow

        flow = build_timing_flow(num_views=args.size or 8, num_gates=60, paths_per_view=8)
    elif args.workload == "placement":
        from repro.apps.placement import build_placement_flow

        flow = build_placement_flow(
            num_cells=40, iterations=args.size or 4, num_matchers=32, window_size=1
        )
    else:
        from repro.apps.sparsenn import build_inference_flow

        flow = build_inference_flow(
            width=32,
            num_layers=args.size or 6,
            batch_size=16,
            num_blocks=4,
            num_shards=2,
            paper_nnz_scale=1e4,
        )
    sim = SimExecutor(
        paper_testbed(args.cores, args.gpus), flow.cost_model, record_trace=True
    )
    rep = sim.run(flow.graph)
    print(summarize(rep.trace, rep.makespan))
    print()
    print(render_gantt(rep.trace, width=args.width, makespan=rep.makespan))
    print(f"\nmakespan: {rep.makespan:.3f}s on {args.cores} cores / {args.gpus} GPUs")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.executor import Executor
    from repro.core.observer import TraceObserver
    from repro.core.tracing import write_chrome_trace

    hf, x, y, n = _build_saxpy()
    obs = TraceObserver()
    with Executor(num_workers=2, num_gpus=2, observers=[obs]) as ex:
        ex.run(hf).result()
    write_chrome_trace(obs, args.output)
    print(f"wrote {len(obs.records)} events to {args.output} "
          f"(open in chrome://tracing or Perfetto)")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check.mutants import ROUTES, run_mutant_selftest

    print("mutant self-test: validating a deliberately-buggy scheduler ...")
    selftest = run_mutant_selftest()
    if selftest.caught:
        print("  caught on every route")
    else:
        print("  FAILED: the validator did not distinguish the buggy "
              "scheduler from the correct one on every route")
    for route in ROUTES:
        mutant = selftest.reports[f"mutant/{route}"]
        reference = selftest.reports[f"reference/{route}"]
        print(f"  {route} route: {len(mutant.violations)} violation(s) "
              f"flagged on the mutant, {len(reference.violations)} on the "
              f"reference executor")
        for v in mutant.violations[:2]:
            print(f"    {v}")
        for v in reference.violations[:4]:
            print(f"    [reference] {v}")

    print(f"\ncheck: {'OK' if selftest.caught else 'FAILED'}")
    return 0 if selftest.caught else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from repro.harness import run

    print(f"verify {args.suite} (seed {args.seed}) ...")
    report = run(args.suite, args.scenarios, args.seed, args.smoke, log=print)
    if args.json:
        report.regenerate += f" --json {args.json}"
    doc = report.to_dict()
    totals = ", ".join(f"{k}={v:g}" for k, v in doc["totals"].items())
    print(f"  total: {doc['num_scenarios']} scenario(s); {totals}")
    for key, val in doc["counters"].items():
        print(f"    {key:<36} {val:g}")
    lat = doc["latency_s"]
    if any(lat.values()):
        print(f"    latency p50/p95/p99 (s):           "
              f"{lat['p50']:.4f} / {lat['p95']:.4f} / {lat['p99']:.4f}")
    for v in report.violations[:20]:
        print(f"    {v}")
    if len(report.violations) > 20:
        print(f"    ... and {len(report.violations) - 20} more")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {doc['schema']} report to {args.json}")
    print(f"\nverify {args.suite}: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.durability import fsck

    report = fsck(args.journal)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    if not report.clean:
        return 1
    if args.strict and report.unsettled:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal as _signal

    from repro.gateway.chaos import ChaosProfile
    from repro.gateway.gateway import Gateway
    from repro.gateway.spec import BurstSpec
    from repro.gateway.worker import WorkerConfig

    async def session() -> int:
        chaos = ChaosProfile.mild(seed=0) if args.chaos else None
        config = WorkerConfig(
            threads=args.threads, gpus=args.gpus, chaos=chaos
        )
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _request_stop(signame: str) -> None:
            # idempotent: a second signal while draining is ignored
            # rather than killing the process with journal buffers hot
            if not stop.is_set():
                print(f"  {signame}: graceful drain requested ...")
            stop.set()

        installed = []
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(
                    sig, _request_stop, _signal.Signals(sig).name
                )
                installed.append(sig)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: fall back to KeyboardInterrupt
        try:
            async with Gateway(
                args.workers,
                worker=config,
                journal=args.journal or None,
            ) as gw:
                print(f"gateway up: {args.workers} worker(s), each "
                      f"{args.threads} thread(s) / {args.gpus} simulated GPU(s)"
                      + (" — protocol chaos ON" if chaos else "")
                      + " — pids "
                      + ", ".join(str(h.proc.pid) for h in gw._workers))
                if gw.journal is not None:
                    rec = await gw.recover()
                    counts = gw.journal.counts()
                    print(f"  journal {args.journal}: "
                          f"{counts['entries']} entr(ies) "
                          f"({counts['unsettled']} unsettled), "
                          f"{rec.frozen_reshipped} frozen re-shipped, "
                          f"{rec.resubmitted} resubmitted, "
                          f"{rec.not_replayable} settled not_replayable")
                fh = await gw.freeze(BurstSpec(width=16))
                outstanding: list = []
                deadline = loop.time() + args.duration
                while loop.time() < deadline and not stop.is_set():
                    if args.traffic:
                        outstanding.extend(
                            gw.submit(fh) for _ in range(args.rate)
                        )
                        outstanding = [s for s in outstanding if not s.done()]
                    snap = gw.snapshot()
                    print(f"  alive={snap['gateway.workers_alive']:.0f}"
                          f"/{args.workers} "
                          f"inflight={snap['gateway.inflight']:.0f} "
                          f"submits={snap['gateway.submits']:.0f} "
                          f"settled={snap['gateway.settled']:.0f} "
                          f"stalled={snap['gateway.health.stalled']:.0f} "
                          f"breaker_open={snap['gateway.breaker.open']:.0f} "
                          f"budget={snap['gateway.retry_budget.tokens']:.1f} "
                          f"deaths={snap['gateway.worker_deaths']:.0f} "
                          f"respawns={snap['gateway.respawns']:.0f}")
                    try:
                        await asyncio.wait_for(
                            stop.wait(), timeout=args.tick
                        )
                    except asyncio.TimeoutError:
                        pass
                print("draining ...")
                ok = await gw.drain(timeout=30.0)
                if gw.journal is not None:
                    gw.journal.flush()
                    counts = gw.journal.counts()
                    print(f"  journal flushed: {counts['entries']} "
                          f"entr(ies), {counts['unsettled']} unsettled "
                          f"(verify with: python -m repro fsck "
                          f"{args.journal})")
                snap = gw.snapshot()
                print(f"served {snap['gateway.submits']:.0f} submission(s), "
                      f"{snap['gateway.settled']:.0f} settled, "
                      f"{snap['gateway.worker_deaths']:.0f} worker death(s)")
                print(f"\nserve: {'OK' if ok else 'DRAIN TIMED OUT'}")
                return 0 if ok else 1
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)

    return asyncio.run(session())


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.corpus import (
        BUILTIN_CORPUS,
        find_examples_dir,
        iter_builtin,
        iter_example_graphs,
    )
    from repro.analysis.diagnostics import Severity
    from repro.analysis.linter import lint
    from repro.analysis.report import render_dot, render_json, render_text

    unknown = [w for w in args.workloads if w not in BUILTIN_CORPUS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(BUILTIN_CORPUS)}", file=sys.stderr)
        return 2

    targets = list(iter_builtin(args.workloads or None))
    if not args.workloads:
        examples = args.examples or find_examples_dir()
        if examples:
            targets.extend(iter_example_graphs(examples))
    elif args.examples:
        targets.extend(iter_example_graphs(args.examples))

    reports = [
        lint(graph, gpu_memory_bytes=args.gpu_memory) for _, graph in targets
    ]
    if args.json:
        print(render_json(reports))
    elif args.dot:
        for (_, graph), report in zip(targets, reports):
            sys.stdout.write(render_dot(report, graph))
    else:
        for report in reports:
            print(render_text(report, verbose=args.verbose))
    gate = Severity.WARNING if args.strict else Severity.ERROR
    flagged = sum(len(r.at_least(gate)) for r in reports)
    if not args.json and not args.dot:
        print(
            f"lint: {len(reports)} graph(s), "
            f"{sum(len(r.diagnostics) for r in reports)} finding(s), "
            f"{flagged} at gate severity -> "
            f"{'FAILED' if flagged else 'OK'}"
        )
    return 1 if flagged else 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.corpus import BUILTIN_CORPUS
    from repro.core.executor import Executor

    unknown = [w for w in args.workloads if w not in BUILTIN_CORPUS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(BUILTIN_CORPUS)}", file=sys.stderr)
        return 2

    names = args.workloads or list(BUILTIN_CORPUS)
    failures = 0
    doc = {"schema": "repro.sanitize-cli/1", "workloads": {}}
    with Executor(num_workers=args.workers, num_gpus=args.gpus) as ex:
        for name in names:
            graph = BUILTIN_CORPUS[name]()
            fut = ex.run(graph, sanitize=True)
            fut.result()
            rep = fut.sanitize_report
            doc["workloads"][name] = rep.as_dict()
            status = "OK" if rep.ok else "DIVERGED"
            print(f"{name}: {rep.checked_tasks} task(s) checked, "
                  f"{rep.confident_tasks} confident, "
                  f"{rep.proxied_objects} object(s) proxied, "
                  f"{len(rep.divergences)} divergence(s) -> {status}")
            for d in rep.divergences[:8]:
                print(f"    {d.kind}: {d.task} / {d.root} ({d.detail})")
            if not rep.ok:
                failures += 1

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote sanitize report to {args.json}")
    print(f"\nsanitize: {'OK' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.corpus import BUILTIN_CORPUS
    from repro.core.executor import Executor
    from repro.core.observer import TraceObserver
    from repro.metrics import render_report_text

    hf = BUILTIN_CORPUS[args.workload]()
    obs = TraceObserver() if args.trace else None
    with Executor(
        num_workers=args.workers,
        num_gpus=args.gpus,
        observers=[obs] if obs else (),
    ) as ex:
        fut = ex.run(hf, metrics=True)
        fut.result()
    report = fut.run_report
    report.workload = args.workload
    if args.trace:
        from repro.core.tracing import write_chrome_trace

        write_chrome_trace(obs, args.trace)
        print(
            f"wrote {len(obs.records)} events to {args.trace} "
            f"(open in chrome://tracing or Perfetto)",
            file=sys.stderr,
        )
    if args.json:
        print(report.to_json())
    else:
        print(render_report_text(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.harness import SUITES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Heteroflow reproduction: tools and figure regeneration",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="version and subsystem inventory")

    figures = sub.add_parser("figures", help="regenerate evaluation tables")
    figures.add_argument(
        "names", nargs="*",
        help="fig4 fig6a fig6a-aux fig6b fig9a fig9b abl-steal abl-dedic "
        "abl-place ext-dist ext-dist-net ext-snn",
    )
    figures.add_argument(
        "--views", type=int, default=0,
        help="view count for fig6a (default 1024; smaller is faster)",
    )

    saxpy = sub.add_parser("saxpy", help="run Listing 1 on the threaded runtime")
    saxpy.add_argument("--workers", type=int, default=4)
    saxpy.add_argument("--gpus", type=int, default=2)

    dot = sub.add_parser("dot", help="print a workload graph as DOT")
    dot.add_argument(
        "workload", choices=["saxpy", "timing", "placement", "sparsenn"]
    )

    trace = sub.add_parser("trace", help="write a chrome-trace of a saxpy run")
    trace.add_argument("output", help="output .json path")

    gantt = sub.add_parser(
        "gantt", help="simulate a workload and render an ASCII Gantt chart"
    )
    gantt.add_argument("workload", choices=["timing", "placement", "sparsenn"])
    gantt.add_argument("--cores", type=int, default=8)
    gantt.add_argument("--gpus", type=int, default=2)
    gantt.add_argument("--size", type=int, default=0, help="views/iterations/layers")
    gantt.add_argument("--width", type=int, default=100)

    sub.add_parser(
        "check", help="run the schedule validator's mutant self-test"
    )

    verify = sub.add_parser(
        "verify",
        help="run one seeded verification suite and reconcile every "
             "scenario (docs/testing.md)",
    )
    verify.add_argument("suite", choices=list(SUITES))
    verify.add_argument(
        "--scenarios", type=int, default=None,
        help="number of scenarios (default: the suite's full size)",
    )
    verify.add_argument(
        "--seed", type=int, default=0,
        help="sweep seed; every scenario derives deterministically "
             "from it (default 0)",
    )
    verify.add_argument(
        "--smoke", action="store_true",
        help="run the suite's smoke size (the CI gate)",
    )
    verify.add_argument(
        "--json", default="", metavar="OUT.json",
        help="also write the report (schema repro.verify-report/1)",
    )

    fsck_p = sub.add_parser(
        "fsck",
        help="validate a durable submission journal read-only",
    )
    fsck_p.add_argument(
        "journal", help="journal directory (as passed to --journal)"
    )
    fsck_p.add_argument(
        "--json", action="store_true",
        help="emit the structured report instead of text",
    )
    fsck_p.add_argument(
        "--strict", action="store_true",
        help="also fail (exit 1) when entries are unsettled, not only "
             "on corruption",
    )

    serve = sub.add_parser(
        "serve",
        help="bring up the multiprocess gateway and report status "
             "until drained",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker processes (default 2)",
    )
    serve.add_argument("--threads", type=int, default=2,
                       help="executor threads per worker (default 2)")
    serve.add_argument("--gpus", type=int, default=1,
                       help="simulated GPUs per worker (default 1)")
    serve.add_argument(
        "--duration", type=float, default=3.0,
        help="seconds to serve before draining (default 3)",
    )
    serve.add_argument(
        "--traffic", action="store_true",
        help="self-drive frozen burst replays while serving",
    )
    serve.add_argument(
        "--rate", type=int, default=4,
        help="submissions per tick with --traffic (default 4)",
    )
    serve.add_argument(
        "--tick", type=float, default=0.5,
        help="status-line interval in seconds (default 0.5)",
    )
    serve.add_argument(
        "--chaos", action="store_true",
        help="inject seeded protocol chaos into every worker (message "
             "delay/drop, recv-loop stalls, submit spins) to exercise "
             "health scoring and breakers live (docs/gateway.md)",
    )
    serve.add_argument(
        "--journal", default="", metavar="DIR",
        help="write every submission through a durable journal in DIR "
             "and recover whatever a previous incarnation left "
             "unsettled; SIGTERM/SIGINT drain gracefully and flush it "
             "(docs/durability.md)",
    )

    lint = sub.add_parser(
        "lint", help="statically analyze task graphs with hflint"
    )
    lint.add_argument(
        "workloads", nargs="*",
        help="builtin graphs to lint: saxpy timing placement sparsenn "
             "(default: all, plus any auto-detected examples/)",
    )
    lint.add_argument(
        "--examples", default="", metavar="DIR",
        help="also lint example scripts exposing build() in DIR",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the stable JSON report (docs/analysis.md)",
    )
    lint.add_argument(
        "--dot", action="store_true",
        help="emit DOT graphs with findings overlaid",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="fail on warnings too, not only errors",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="show structured diagnostic details in text output",
    )
    lint.add_argument(
        "--gpu-memory", type=int, default=None, metavar="BYTES",
        help="per-device pool size for the HF020 capacity prediction "
             "(default: the runtime default of 64 MiB)",
    )

    sanitize = sub.add_parser(
        "sanitize",
        help="run workloads under the hfsan runtime sanitizer",
    )
    sanitize.add_argument(
        "workloads", nargs="*",
        help="builtin graphs to sanitize: saxpy timing placement "
             "sparsenn (default: all)",
    )
    sanitize.add_argument("--workers", type=int, default=4)
    sanitize.add_argument("--gpus", type=int, default=2)
    sanitize.add_argument(
        "--json", default="", metavar="OUT.json",
        help="also write the full sanitize report as JSON",
    )

    profile = sub.add_parser(
        "profile",
        help="run a workload with metrics and print its RunReport",
    )
    profile.add_argument(
        "workload", choices=["saxpy", "timing", "placement", "sparsenn"]
    )
    profile.add_argument("--workers", type=int, default=2)
    profile.add_argument("--gpus", type=int, default=2)
    profile.add_argument(
        "--json", action="store_true",
        help="emit the stable schema-v1 RunReport JSON "
             "(docs/observability.md)",
    )
    profile.add_argument(
        "--trace", default="", metavar="OUT.json",
        help="also write a chrome-trace of the profiled run",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "figures": _cmd_figures,
        "saxpy": _cmd_saxpy,
        "dot": _cmd_dot,
        "trace": _cmd_trace,
        "gantt": _cmd_gantt,
        "check": _cmd_check,
        "verify": _cmd_verify,
        "fsck": _cmd_fsck,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "sanitize": _cmd_sanitize,
        "profile": _cmd_profile,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)
