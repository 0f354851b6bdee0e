#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload graph_fresh --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  Every run happens in fresh
interpreters started from ``perfbench/child.py``, pinned to one CPU;
this process only orchestrates, checks and reports, and never imports
the package under test.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1``
it carries the per-layer metrics of a traced run (a layer the workload
never runs is timed by a short probe instead, see :data:`PROBED`).  The
line before it is a JSON fingerprint of the machine and of the run.

A ``--trace 0`` run starts :data:`SETUP_ONLY` set-up-only interpreters
before the measured one and as many after it; ``setup_s`` is the
median of all their set-ups.  The gated times are scaled to a
reference machine speed (``measure.REF_SPEED``, see README "Noise").

The number of ops is fixed by workload and ``--seconds``
(:data:`OPS_PER_SECOND` x seconds), never by the clock, so op counts
and journal sizes repeat exactly from run to run.  See
``perfbench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import (  # noqa: E402
    REF_SPEED,
    cpu_times,
    filesystem_of,
    kill_and_wait,
    loop_speed,
    median,
    pin_to_one_cpu,
    ref_loop_ms,
    session_members,
    steal_share,
)

WORKLOADS = ("graph_fresh", "graph_frozen", "serve_keyed")
#: ops per requested second, sized so one measured phase takes about
#: ``--seconds`` on a 2-core machine; a constant, so counts repeat
OPS_PER_SECOND = {"graph_fresh": 200, "graph_frozen": 2000, "serve_keyed": 250}
#: per-layer metrics of layers a workload never runs: its traced run
#: measures them with a short fixed probe (``perfbench/probe.py``) and
#: names them in the fingerprint
_SERVE = {
    "gateway.submit_call_ms", "gateway.round_trip_ms", "gateway.worker_wall_ms",
    "gateway.overhead_ms", "gateway.dedupe_hit_ms", "setup.gateway_start_s",
    "durability.append_accepted_ms", "durability.append_settled_ms", "durability.fsync_ms",
    "durability.fsyncs_per_op", "durability.bytes_per_op", "durability.entries_at_end",
    "durability.open_ms",
}
PROBED = {
    # graph_fresh freezes nothing during set-up
    "graph_fresh": _SERVE | {"setup.freeze_s"},
    "graph_frozen": _SERVE,
    # the worker's executor starts in the worker process, inside
    # setup.gateway_start_s
    "serve_keyed": {"setup.executor_start_s"},
}
#: set-up-only interpreters on each side of the measured one
SETUP_ONLY = 2
CHILD_TIMEOUT_S = 120.0
#: how long processes left in a finished child's session may take to
#: exit on their own before they are killed
LINGER_S = 3.0


class RunError(Exception):
    """The run could not produce a result."""


def load_metrics(trace: int, path: str = "BENCHMARK.json") -> dict:
    """name -> unit of the metrics a run reports, from BENCHMARK.json
    (at the checkout root): the end-to-end ones, or the per-layer ones
    for a traced run."""
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(args: List[str]) -> Tuple[dict, List[int]]:
    """Run ``child.py`` in a new session, wait for it and for everything
    it started; returns its JSON result and the pids that had to be
    killed because they outlived it."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args, "--spawned-at"]
    cmd.append(repr(time.monotonic()))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_and_wait(session_members(proc.pid) + [proc.pid])
        proc.communicate()
        raise RunError(f"child {' '.join(args)} timed out after {CHILD_TIMEOUT_S:.0f} s")
    finally:
        killed = reap_session(proc.pid)
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"child {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1]), killed


def reap_session(sid: int) -> List[int]:
    """Wait for the processes of session *sid* to exit; kill what is
    still there after :data:`LINGER_S` and return those pids."""
    deadline = time.monotonic() + LINGER_S
    while session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return kill_and_wait(session_members(sid))


def measure(args, workdir: str, trace_out: str) -> Tuple[dict, dict]:
    """Run the workload; returns (child result, run info)."""
    ops = OPS_PER_SECOND[args.workload] * args.seconds
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    info = {"ops": ops, "killed_after_exit": [], "setup_s_raw": []}

    def child(mode: str, index: int) -> dict:
        cdir = os.path.join(workdir, f"{mode}{index}")
        if args.workload == "serve_keyed":
            # every interpreter reopens its own copy of the pre-seeded journal
            shutil.copytree(os.path.join(workdir, "preseed"), cdir)
        else:
            os.makedirs(cdir)
        extra = ["--ops", str(ops), "--mode", mode, "--workdir", cdir]
        if mode == "traced":
            extra += ["--trace-out", trace_out]
        speed = loop_speed()
        try:
            result, killed = run_child(common + extra)
        finally:
            shutil.rmtree(cdir, ignore_errors=True)
        info["killed_after_exit"] += killed
        if "setup_s" in result["metrics"]:  # not in a traced run
            # scaled like the timed blocks: by the mean reference-loop
            # speed just before the interpreter started and right after
            # its set-up
            raw = result["metrics"]["setup_s"]
            info["setup_s_raw"].append(raw)
            scale = (speed + result["setup_speed"]) / 2.0 / REF_SPEED
            result["metrics"]["setup_s"] = raw * scale
        return result

    if args.workload == "serve_keyed":
        pdir = os.path.join(workdir, "preseed")
        _, killed = run_child(common + ["--mode", "preseed", "--workdir", pdir])
        info["killed_after_exit"] += killed
    if args.trace:
        return child("traced", 0), info
    setups = [child("setup", i) for i in range(SETUP_ONLY)]
    main = child("main", 0)
    setups += [child("setup", SETUP_ONLY + i) for i in range(SETUP_ONLY)]
    samples = [r["metrics"]["setup_s"] for r in [main] + setups]
    main["metrics"]["setup_s"] = median(samples)
    info["setup_s_samples"] = samples
    for r in setups:  # set-up runs check their warm-up ops too
        main["attempted"] += r["attempted"]
        main["failed"] += r["failed"]
        main["correct"] = main["correct"] and r["correct"]
    return main, info


def check_reported(metrics: dict, units: dict) -> None:
    """Every metric in *units* has a finite number."""
    missing = [n for n in units if not is_number(metrics.get(n))]
    if missing:
        raise RunError(f"run reported no number for {missing}")


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    units = load_metrics(args.trace)
    # the reference loop runs on the CPU the interpreters inherit
    pin_to_one_cpu()
    out_dir = ".perfbench"
    workdir = os.path.join(out_dir, "tmp", f"{os.getpid()}-{args.workload}")
    trace_out = os.path.join(out_dir, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(workdir)
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    ref_before = ref_loop_ms()
    cpu_before = cpu_times()
    try:
        result, info = measure(args, workdir, trace_out)
        journal_fs = filesystem_of(workdir)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal = steal_share(cpu_before, cpu_times())
    ref_after = ref_loop_ms()

    metrics = result["metrics"]
    metrics["host.ref_loop_ms"] = (ref_before + ref_after) / 2.0
    try:
        check_reported(metrics, units)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = bool(result["correct"]) and not info["killed_after_exit"]
    fingerprint = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": result["versions"]["numpy"],
        "journal_fs": journal_fs,
        "host.ref_loop_ms": [ref_before, ref_after],
        "loadavg": list(os.getloadavg()),
        "cpu_steal_share": steal,
        "stragglers_killed": result.get("stragglers", []),
        "blocks": result.get("blocks"),
        "raw": result.get("raw"),
        "probed": sorted(PROBED[args.workload]) if args.trace else [],
        **info,
        "extra": {n: v for n, v in metrics.items() if n not in units},
    }
    print(json.dumps({"fingerprint": fingerprint}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {n: {"value": metrics.get(n), "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
