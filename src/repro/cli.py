"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info`` — library version and system inventory;
- ``figures [names...] [--views N]`` — regenerate the paper's
  evaluation tables on the virtual-time model (all by default);
- ``saxpy`` — run the Listing-1 program on the threaded runtime;
- ``dot {saxpy,timing,placement,sparsenn}`` — print a workload's task
  graph in GraphViz DOT;
- ``trace OUTPUT.json`` — run saxpy under a trace observer and write a
  chrome://tracing / Perfetto JSON file;
- ``check [--stress] [--replay|--replay-smoke] [--sanitize]`` — run
  the schedule-validation subsystem: the mutant self-test, optionally
  the full config x seed stress sweep, optionally the fresh-vs-frozen
  differential replay sweep, and optionally the effect-inference
  soundness sweep (see docs/testing.md, docs/runtime.md "Freeze and
  replay", and docs/analysis.md "Sanitizer");
- ``lint [workloads...] [--json|--dot]`` — run the hflint static
  analyzer over the shipped flows (and, with ``--examples DIR`` or an
  auto-detected ``examples/`` directory, the example graphs); exits
  nonzero on error-severity findings (see docs/analysis.md);
- ``sanitize [workloads...] [--sweep N] [--json OUT]`` — run workloads
  under the hfsan runtime sanitizer and cross-check every observed
  span/captured-object access against the static effect inference;
  exits nonzero on any static/dynamic divergence (docs/analysis.md,
  "Sanitizer");
- ``profile {saxpy,timing,placement,sparsenn}`` — run a workload on
  the threaded runtime with metrics enabled and print its
  :class:`~repro.metrics.RunReport` (``--json`` for the stable
  schema-v1 document, ``--trace OUT.json`` for a chrome-trace of the
  same run; see docs/observability.md);
- ``chaos [--scenarios N] [--seed S] [--smoke] [--json OUT]`` — sweep
  seeded device-fault scenarios (allocation failures, kernel faults,
  stream stalls, device death, zero-GPU degradation) through the
  resilience layer and validate every recovery
  (see docs/resilience.md);
- ``soak [--scenarios N] [--seed S] [--smoke] [--json OUT]
  [--gateway [--workers N] [--kill-every K] [--gray]]`` — sweep seeded
  multi-tenant overload scenarios (bounded admission under
  block/reject/shed backpressure, priorities, deadlines, caller-side
  cancels, graceful drain) through the service layer, reconcile every
  submission outcome, and validate every trace (see docs/runtime.md,
  "Submission lifecycle"); with ``--gateway`` the same discipline runs
  against a pool of spawned worker processes, with SIGKILL chaos and a
  gateway-vs-single-process throughput comparison, with
  ``--gateway --gray`` the gray-failure sweep: recv-loop stalls that
  must breaker-eject and re-admit, hedged submissions, and a
  retry-budget exhaustion drill (docs/gateway.md), and with
  ``--gateway --crash`` the durability sweep: SIGKILL the *gateway*
  process mid-stream, recover a fresh one from the journal, and
  reconcile exactly-once settlement (docs/durability.md);
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
    for name in names:
        if name == "fig6a" and args.views:
            table = fig6a_table(num_views=args.views)
        else:
            table = ALL_FIGURES[name]()
        print(format_table(name.upper(), table))
        print()
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


def _parse_configs(spec: str):
    """Parse ``"1x1,2x2,4x2"`` into ``[(1, 1), (2, 2), (4, 2)]``."""
    configs = []
    for part in spec.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            workers, gpus = (int(v) for v in part.split("x"))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad config {part!r}: expected WORKERSxGPUS, e.g. 2x2"
            )
        if workers < 1 or gpus < 0:
            raise argparse.ArgumentTypeError(
                f"bad config {part!r}: need >=1 worker and >=0 GPUs"
            )
        configs.append((workers, gpus))
    if not configs:
        raise argparse.ArgumentTypeError("empty config list")
    return configs


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.check import run_mutant_selftest, run_stress
    from repro.check.mutants import ROUTES

    failures = 0

    print("mutant self-test: validating a deliberately-buggy scheduler ...")
    selftest = run_mutant_selftest()
    if selftest.caught:
        print("  caught on every route")
    else:
        failures += 1
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

    if args.stress:
        configs = args.configs or None
        n_cfg = len(configs) if configs else 3
        seeds = args.seeds if args.seeds is not None else 25
        print(f"\nstress sweep: {seeds} seed(s) x {n_cfg} config(s)"
              f"{' with fault injection' if args.faults else ''} ...")
        report = run_stress(
            seeds, configs, faults=args.faults, log=print
        )
        print(f"  total: {report.num_runs} run(s), "
              f"{report.num_allocs} allocation(s) / {report.num_frees} free(s) "
              f"audited, {len(report.violations)} violation(s)")
        if not report.ok:
            failures += 1
            for v in report.violations[:20]:
                print(f"    {v}")
            more = len(report.violations) - 20
            if more > 0:
                print(f"    ... and {more} more")

    if args.sanitize:
        from repro.check import run_sanitize_sweep

        seeds = args.seeds if args.seeds is not None else 25
        print(f"\nsanitize sweep: {seeds} seed(s), static effect "
              f"inference vs observed accesses ...")
        san_report = run_sanitize_sweep(seeds, log=print)
        if not san_report.ok:
            failures += 1
            for v in san_report.violations[:20]:
                print(f"    {v}")
            more = len(san_report.violations) - 20
            if more > 0:
                print(f"    ... and {more} more")

    if args.replay or args.replay_smoke:
        from repro.check import run_replay_check

        if args.replay_smoke:
            seeds, configs = 4, [(2, 0), (2, 2)]
        else:
            seeds = args.seeds if args.seeds is not None else 13
            configs = args.configs or None
        n_cfg = len(configs) if configs else 4
        print(f"\ndifferential replay sweep: {seeds} seed(s) x "
              f"{n_cfg} config(s), fresh vs frozen ...")
        replay_report = run_replay_check(seeds, configs, log=print)
        print(f"  total: {replay_report.num_scenarios} scenario(s), "
              f"{len(replay_report.violations)} violation(s)")
        if not replay_report.ok:
            failures += 1
            for v in replay_report.violations[:20]:
                print(f"    {v}")
            more = len(replay_report.violations) - 20
            if more > 0:
                print(f"    ... and {more} more")

    print(f"\ncheck: {'OK' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import run_chaos

    scenarios = 10 if args.smoke else args.scenarios
    print(f"chaos sweep: {scenarios} seeded fault scenario(s), "
          f"seed={args.seed} ...")
    report = run_chaos(scenarios, seed=args.seed, log=print)
    print(f"  total: {report.num_scenarios} scenario(s), "
          f"{report.num_completed} recovered, "
          f"{report.num_failed_as_expected} failed as expected, "
          f"{len(report.violations)} violation(s)")
    for key, val in sorted(report.counters.items()):
        print(f"    {key:<36} {val}")
    if not report.ok:
        for v in report.violations[:20]:
            print(f"    {v}")
        more = len(report.violations) - 20
        if more > 0:
            print(f"    ... and {more} more")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote scenario report to {args.json}")
    print(f"\nchaos: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_gateway_soak(args: argparse.Namespace) -> int:
    from repro.gateway.soak import run_gateway_soak

    scenarios = 6 if args.smoke else args.scenarios
    throughput = 40 if args.smoke else 200
    print(f"gateway soak sweep: {scenarios} serving scenario(s) against "
          f"{args.workers} worker process(es), seed={args.seed} ...")
    report = run_gateway_soak(
        scenarios,
        workers=args.workers,
        seed=args.seed,
        kill_every=args.kill_every,
        throughput_repeats=throughput,
        log=print,
    )
    totals = report.totals
    print(f"  total: {totals['submitted']} submitted = "
          f"{totals['completed']} completed + {totals['rejected']} rejected + "
          f"{totals['shed']} shed + {totals['deadline_exceeded']} deadline + "
          f"{totals['cancelled']} cancelled + {totals['failed']} failed + "
          f"{totals['worker_lost']} worker_lost; {totals['kills']} kill(s)")
    for key in ("gateway.submits", "gateway.settled", "gateway.cancels",
                "gateway.worker_deaths", "gateway.respawns",
                "gateway.replans"):
        print(f"    {key:<36} {report.gateway_counters.get(key, 0):.0f}")
    if report.throughput:
        t = report.throughput
        print(f"    throughput: gateway {t['gateway_runs_per_s']:.1f} runs/s "
              f"vs single-process {t['single_runs_per_s']:.1f} runs/s "
              f"(speedup {t['speedup']:.2f}x on "
              f"{report.to_dict()['cpu_count']} core(s))")
    if not report.ok:
        for v in report.violations[:20]:
            print(f"    {v}")
        more = len(report.violations) - 20
        if more > 0:
            print(f"    ... and {more} more")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote gateway soak report to {args.json}")
    print(f"\ngateway soak: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_gateway_gray_soak(args: argparse.Namespace) -> int:
    from repro.gateway.soak import run_gateway_gray_soak

    scenarios = 10 if args.smoke else args.scenarios
    print(f"gateway gray soak sweep: {scenarios} gray-failure "
          f"scenario(s) against {args.workers} worker process(es), "
          f"seed={args.seed} ...")
    report = run_gateway_gray_soak(
        scenarios,
        workers=args.workers,
        seed=args.seed,
        kill_every=args.kill_every,
        log=print,
    )
    totals = report.totals
    print(f"  total: {totals['submitted']} submitted = "
          f"{totals['completed']} completed + {totals['rejected']} rejected + "
          f"{totals['shed']} shed + {totals['deadline_exceeded']} deadline + "
          f"{totals['cancelled']} cancelled + {totals['failed']} failed + "
          f"{totals['worker_lost']} worker_lost; "
          f"{totals['stalls']} stall(s), {totals['kills']} kill(s), "
          f"{totals['hedged']} targeted hedge(s)")
    for key in ("gateway.submits", "gateway.settled",
                "gateway.worker_deaths", "gateway.respawns",
                "gateway.replans", "gateway.health.stalls",
                "gateway.breaker.opened", "gateway.breaker.closed",
                "gateway.breaker.rerouted", "gateway.hedge.launched",
                "gateway.hedge.wins", "gateway.hedge.losses",
                "gateway.hedge.dropped", "gateway.retry_budget.spent",
                "gateway.retry_budget.exhausted"):
        print(f"    {key:<36} {report.gateway_counters.get(key, 0):.0f}")
    d = report.budget_drill
    print(f"    budget drill: {d.get('worker_lost_budget', 0):.0f} "
          f"over-budget worker_lost, "
          f"{d.get('denied', 0):.0f} denial(s) counted")
    if not report.ok:
        for v in report.violations[:20]:
            print(f"    {v}")
        more = len(report.violations) - 20
        if more > 0:
            print(f"    ... and {more} more")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote gateway gray soak report to {args.json}")
    print(f"\ngateway gray soak: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_gateway_crash_soak(args: argparse.Namespace) -> int:
    from repro.durability.soak import run_gateway_crash_soak

    scenarios = 10 if args.smoke else args.scenarios
    print(f"gateway crash soak sweep: {scenarios} scenario(s), "
          f"{args.workers} shared worker process(es), seed={args.seed} "
          f"...")
    report = run_gateway_crash_soak(
        scenarios,
        workers=args.workers,
        seed=args.seed,
        journal_dir=args.journal_dir or None,
        log=print,
    )
    totals = report.totals
    print(f"  total: {totals['scenarios']} scenario(s) = "
          f"{totals['crash_cycles']} crash cycle(s) "
          f"({totals['kills']} gateway SIGKILL(s)) + "
          f"{totals['fault_injections']} journal fault(s) + "
          f"clean keyed traffic; {totals['submitted']} key(s) "
          f"submitted, {totals['dedup_hits']} dedup hit(s), "
          f"{totals['resubmitted']} recovered resubmission(s), "
          f"{totals['not_replayable']} settled not_replayable")
    for key in ("journal.appends", "journal.fsyncs", "journal.errors",
                "journal.dedup_hits", "journal.torn_truncations",
                "gateway.submits", "gateway.settled"):
        print(f"    {key:<36} "
              f"{report.gateway_counters.get(key, 0):.0f}")
    if not report.ok:
        for v in report.all_violations[:20]:
            print(f"    {v}")
        more = len(report.all_violations) - 20
        if more > 0:
            print(f"    ... and {more} more")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote gateway crash soak report to {args.json}")
    print(f"\ngateway crash soak: {'OK' if report.ok else 'FAILED'}")
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


def _cmd_soak(args: argparse.Namespace) -> int:
    if args.gateway and args.crash:
        return _cmd_gateway_crash_soak(args)
    if args.gateway and args.gray:
        return _cmd_gateway_gray_soak(args)
    if args.gateway:
        return _cmd_gateway_soak(args)
    from repro.service.soak import run_soak

    scenarios = 6 if args.smoke else args.scenarios
    print(f"soak sweep: {scenarios} seeded overload scenario(s), "
          f"seed={args.seed} ...")
    report = run_soak(scenarios, seed=args.seed, log=print)
    totals = report.totals
    print(f"  total: {totals['submitted']} submitted = "
          f"{totals['rejected']} rejected + {totals['admitted']} admitted; "
          f"admitted = {totals['completed']} completed + "
          f"{totals['shed']} shed + "
          f"{totals['deadline_exceeded']} deadline + "
          f"{totals['cancelled']} cancelled + {totals['failed']} failed")
    for key, val in sorted(report.counters.items()):
        print(f"    {key:<36} {val}")
    wall = report.to_dict()["wall_latency_s"]
    submit = report.to_dict()["submit_latency_s"]
    print(f"    wall latency p50/p95/p99 (s):      "
          f"{wall['p50']:.4f} / {wall['p95']:.4f} / {wall['p99']:.4f}")
    print(f"    submit latency p50/p95/p99 (s):    "
          f"{submit['p50']:.4f} / {submit['p95']:.4f} / {submit['p99']:.4f}")
    if not report.ok:
        for v in report.violations[:20]:
            print(f"    {v}")
        more = len(report.violations) - 20
        if more > 0:
            print(f"    ... and {more} more")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"wrote soak report to {args.json}")
    print(f"\nsoak: {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


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
    doc = {"schema": "repro.sanitize-cli/1", "workloads": {}, "sweep": None}
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

    if args.sweep:
        from repro.check import run_sanitize_sweep

        print(f"\nsanitize sweep: {args.sweep} seeded graph(s) ...")
        sweep = run_sanitize_sweep(args.sweep, log=print)
        doc["sweep"] = sweep.as_dict()
        if not sweep.ok:
            failures += 1
            for v in sweep.violations[:20]:
                print(f"    {v}")

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
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Heteroflow reproduction: tools and figure regeneration",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("info", help="version and subsystem inventory")

    figures = sub.add_parser("figures", help="regenerate evaluation tables")
    figures.add_argument("names", nargs="*", help="fig4 fig6a fig6b fig9a fig9b")
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

    check = sub.add_parser(
        "check", help="run the schedule/allocator invariant checker"
    )
    check.add_argument(
        "--stress", action="store_true",
        help="sweep random graphs over worker/GPU configs and validate "
             "every trace",
    )
    check.add_argument(
        "--seeds", type=int, default=None,
        help="random graphs per configuration (default: 25 for "
             "--stress, 13 for --replay)",
    )
    check.add_argument(
        "--configs", type=_parse_configs, default=None, metavar="WxG,...",
        help="worker/GPU configurations, e.g. 1x1,2x2,4x2 (the default)",
    )
    check.add_argument(
        "--faults", action="store_true",
        help="also run fault-injection and cancellation variants",
    )
    check.add_argument(
        "--replay", action="store_true",
        help="differential replay sweep: every generated graph runs "
             "fresh and frozen-replayed; traces, oracles, and results "
             "must agree (docs/runtime.md, \"Freeze and replay\")",
    )
    check.add_argument(
        "--replay-smoke", action="store_true",
        help="quick 8-scenario differential replay sweep for CI",
    )
    check.add_argument(
        "--sanitize", action="store_true",
        help="sanitizer soundness sweep: run generated graphs under "
             "hfsan and require zero static/dynamic divergence "
             "(docs/analysis.md, \"Sanitizer\")",
    )

    chaos = sub.add_parser(
        "chaos",
        help="sweep seeded device-fault scenarios through the "
             "resilience layer",
    )
    chaos.add_argument(
        "--scenarios", type=int, default=50,
        help="number of fault scenarios (default 50)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0,
        help="sweep seed; every scenario derives deterministically "
             "from it (default 0)",
    )
    chaos.add_argument(
        "--smoke", action="store_true",
        help="quick 10-scenario sweep for CI smoke jobs",
    )
    chaos.add_argument(
        "--json", default="", metavar="OUT.json",
        help="also write the full scenario report as JSON",
    )

    soak = sub.add_parser(
        "soak",
        help="sweep seeded multi-tenant overload scenarios through "
             "the service layer",
    )
    soak.add_argument(
        "--scenarios", type=int, default=50,
        help="number of overload scenarios (default 50)",
    )
    soak.add_argument(
        "--seed", type=int, default=0,
        help="sweep seed; every scenario derives deterministically "
             "from it (default 0)",
    )
    soak.add_argument(
        "--smoke", action="store_true",
        help="quick 6-scenario sweep for CI smoke jobs",
    )
    soak.add_argument(
        "--json", default="", metavar="OUT.json",
        help="also write the full soak report as JSON "
             "(schema repro.soak-report/1)",
    )
    soak.add_argument(
        "--gateway", action="store_true",
        help="run the sweep against the multiprocess gateway instead "
             "of one in-process executor: worker-process pool, SIGKILL "
             "chaos, throughput comparison (schema "
             "repro.gateway-soak-report/1; docs/gateway.md)",
    )
    soak.add_argument(
        "--workers", type=int, default=4,
        help="gateway worker processes for --gateway (default 4)",
    )
    soak.add_argument(
        "--kill-every", type=int, default=5, metavar="K",
        help="SIGKILL a worker every K-th --gateway scenario "
             "(0 disables chaos; default 5)",
    )
    soak.add_argument(
        "--gray", action="store_true",
        help="with --gateway: the gray-failure sweep — recv-loop "
             "stalls that must breaker-eject and re-admit (never "
             "kill), hedged submissions, and a retry-budget "
             "exhaustion drill (schema repro.gateway-gray-soak-"
             "report/1; docs/gateway.md)",
    )
    soak.add_argument(
        "--crash", action="store_true",
        help="with --gateway: the durability sweep — SIGKILL the "
             "gateway process mid-stream, recover a fresh one from "
             "the journal, reconcile exactly-once settlement, and "
             "inject seeded journal faults (schema "
             "repro.gateway-crash-soak-report/1; docs/durability.md)",
    )
    soak.add_argument(
        "--journal-dir", default="", metavar="DIR",
        help="with --gateway --crash: keep the per-scenario journals "
             "and recovery results in DIR for post-mortem (default: a "
             "temp directory)",
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
        "--sweep", type=int, default=0, metavar="N",
        help="also run N seeded random graphs sanitized "
             "(schema repro.sanitize-sweep/1)",
    )
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
        "chaos": _cmd_chaos,
        "soak": _cmd_soak,
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
