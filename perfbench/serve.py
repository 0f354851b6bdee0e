"""The ``serve_keyed`` workload: keyed, journaled serving through a
:class:`repro.gateway.Gateway` with one worker process.

Before the run, :func:`preseed_journal` writes a fixed number of
settled keyed entries (plus the frozen burst spec they ran) into a
journal directory.  The run reopens that journal with
``fsync_policy="always"``, recovers it (which re-ships the frozen
spec to the worker), and then two asyncio clients submit the frozen
burst closed-loop, each op under a fresh idempotency key.  A seeded
share of the ops instead re-submit a key that already settled: the
gateway must answer those from the journal, at once, with exactly the
journaled Result.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import time
import traceback
from typing import Dict, List, Optional, Tuple

from repro.durability import Journal
from repro.durability.osshim import OsFacade
from repro.gateway import BurstSpec, FrozenHandle, Gateway, Result, WorkerConfig

from measure import descendants, kill_and_wait, median
from spans import Tracer

#: the frozen work every op replays: a small host-only burst
SPEC = BurstSpec(width=16)
SERVE_FID = 1
#: settled keyed entries in the journal before the run starts.  Large
#: next to the run's op count, so the per-op cost of the journal (which
#: grows with its entry count, see README "Known hotspots") grows by
#: under half from the first timed block to the last, alike in every run
PRESEED = 10_000
#: share of ops that re-submit an already-settled key
DEDUPE_SHARE = 0.10
CLIENTS = 2
WORKER = WorkerConfig(threads=2, gpus=0)
SHUTDOWN_TIMEOUT_S = 30.0


def preseed_result(seed: int, i: int) -> Result:
    """The Result journaled for pre-seeded key ``i`` (a pure function
    of the seed, so the run can check dedupe replays against it)."""
    wall = random.Random(seed * 1_000_003 + i).uniform(0.0005, 0.002)
    return Result(outcome="completed", passes=1, wall_s=wall, wid=0)


def preseed_journal(path: str, seed: int, count: int = PRESEED) -> None:
    """Write the frozen spec and *count* settled keyed entries.  This
    builds the run's input, so it skips the per-settle compaction check
    (``auto_compact=False``); the run reopens the log with defaults."""
    journal = Journal(path, fsync_policy="batch", auto_compact=False)
    journal.open()
    try:
        journal.append_frozen(SERVE_FID, SPEC)
        for i in range(count):
            res = preseed_result(seed, i)
            jid = journal.append_accepted(
                key=f"seed-{i}", target="frozen", fid=SERVE_FID, tenant=f"c{i % CLIENTS}"
            )
            journal.append_settled(
                jid, outcome=res.outcome, passes=res.passes, wall_s=res.wall_s, wid=res.wid
            )
    finally:
        journal.close()


def plan_ops(seed: int, ops: int, preseed: int, tag: str) -> List[List[Tuple[str, str]]]:
    """Per client, the ordered ``(kind, key)`` ops.  ``kind`` is
    ``"fresh"`` (key ``<tag><op number>``) or ``"dedupe"``; a dedupe
    key is a pre-seeded key or one of the same client's earlier fresh
    keys (settled by then, since each client waits for every reply)."""
    rng = random.Random(f"{seed}/{tag}")
    dedupe_at = set(rng.sample(range(ops), int(ops * DEDUPE_SHARE)))
    plans: List[List[Tuple[str, str]]] = [[] for _ in range(CLIENTS)]
    own: List[List[str]] = [[] for _ in range(CLIENTS)]
    for k in range(ops):
        cid = k % CLIENTS
        if k in dedupe_at:
            pick = rng.randrange(preseed + len(own[cid]))
            key = f"seed-{pick}" if pick < preseed else own[cid][pick - preseed]
            plans[cid].append(("dedupe", key))
        else:
            key = f"{tag}{k}"
            own[cid].append(key)
            plans[cid].append(("fresh", key))
    return plans


class TimingOs(OsFacade):
    """:class:`OsFacade` that adds up the time spent in fsync (read per
    block by the untraced runs) and, given a tracer, also records every
    fsync as a span."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.fsync_s = 0.0

    def fsync(self, fd: int) -> None:
        t0 = time.perf_counter()
        if self.tracer is None:
            super().fsync(fd)
        else:
            with self.tracer.span("durability.fsync"):
                super().fsync(fd)
        self.fsync_s += time.perf_counter() - t0


class ServeKeyed:
    """Gateway + journal lifecycle and the two closed-loop clients."""

    def __init__(self, seed: int, journal_dir: str, preseed: int = PRESEED,
                 tracer: Optional[Tracer] = None) -> None:
        self.seed = seed
        self.journal_dir = journal_dir
        self.preseed = preseed
        self.tracer = tracer
        self.setup_times: Dict[str, float] = {}
        self.gw: Optional[Gateway] = None
        self.handle: Optional[FrozenHandle] = None
        self.journal: Optional[Journal] = None
        self.os: Optional[TimingOs] = None
        #: key -> Result of its first (fresh) submission
        self.results: Dict[str, Result] = {}
        #: jid -> (op id, op span index), for settle-time spans
        self._jid_ops: Dict[int, Tuple[int, int]] = {}
        #: record spans around each op (the journal is traced throughout)
        self.traced_ops = False
        #: op id -> worker wall seconds of its Result (traced ops)
        self.walls: Dict[int, float] = {}
        self.fresh_keys = 0
        self.inflight = 0
        self.stragglers: List[int] = []

    # -- lifecycle -----------------------------------------------------
    async def setup(self) -> None:
        tr = self.tracer
        self.os = TimingOs(tr)
        self.journal = Journal(self.journal_dir, os_impl=self.os, fsync_policy="always")
        if tr is not None:
            j = self.journal
            j.open = tr.wrap("durability.open", j.open)
            j.append_accepted = tr.wrap("durability.append_accepted", j.append_accepted)
            j.append_settled = self._traced_settle(j.append_settled)
        self.gw = Gateway(num_workers=1, worker=WORKER, journal=self.journal, seed=self.seed)
        t0 = time.perf_counter()
        await self.gw.start()
        t1 = time.perf_counter()
        report = await self.gw.recover()
        t2 = time.perf_counter()
        self.setup_times["gateway_start_s"] = t1 - t0
        self.setup_times["freeze_s"] = t2 - t1
        if report.resubmitted or report.frozen_reshipped != 1:
            raise RuntimeError(f"unexpected recovery of the pre-seeded journal: {report.to_dict()}")
        self.handle = self.gw.frozen_handles()[SERVE_FID]

    def _traced_settle(self, settle):
        tr = self.tracer

        def timed(jid, **kwargs):
            # settles run in a loop callback, outside the op's context:
            # name the op and its span explicitly
            op, parent = self._jid_ops.get(jid, (-1, -1))
            with tr.span("durability.append_settled", op=op, parent=parent):
                return settle(jid, **kwargs)

        return timed

    async def teardown(self) -> None:
        """Shut the gateway down with a timeout, kill any surviving
        child process, and delete the journal directory.  A run that
        had to kill a straggler counts its in-flight ops as failed."""
        try:
            if self.gw is not None:
                try:
                    await asyncio.wait_for(self.gw.shutdown(drain_timeout=10.0), SHUTDOWN_TIMEOUT_S)
                except (asyncio.TimeoutError, OSError):
                    pass
        finally:
            self.stragglers = kill_and_wait(sut_children())
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    # -- ops -------------------------------------------------------------
    async def _client(self, cid: int, plan, lat: List[float], fails: List[int], base: int) -> None:
        tr = self.tracer if self.traced_ops else None
        clock = time.perf_counter
        for n, (kind, key) in enumerate(plan):
            op = base + n * CLIENTS + cid
            t0 = clock()
            self.inflight += 1
            try:
                if tr is None:
                    sub = self.gw.submit(self.handle, idempotency_key=key, tenant=f"c{cid}")
                    immediate = sub.done()
                    res = await sub
                else:
                    name = "gateway.dedupe_hit" if kind == "dedupe" else "gateway.round_trip"
                    with tr.span(name, op=op):
                        with tr.span("gateway.submit_call"):
                            sub = self.gw.submit(self.handle, idempotency_key=key, tenant=f"c{cid}")
                        immediate = sub.done()
                        if not immediate:
                            self._jid_ops[sub.jid] = (op, Tracer.current()[0])
                        res = await sub
                    if kind == "fresh":
                        self.walls[op] = res.wall_s
            except Exception:  # a raising op is a failed op, not a crash
                traceback.print_exc()
                res = None
            self.inflight -= 1
            lat.append(clock() - t0)
            if res is None:
                good = False
            elif kind == "fresh":
                good = res.outcome == "completed" and res.passes == 1 and res.wid == 0
                self.results[key] = res
            else:
                good = immediate and res == self.expected(key)
            if not good:
                fails[0] += 1

    def expected(self, key: str) -> Optional[Result]:
        """The journaled Result a dedupe of *key* must replay."""
        if key.startswith("seed-"):
            return preseed_result(self.seed, int(key[5:]))
        return self.results.get(key)

    async def run(self, ops: int, tag: str, base: int = 0) -> Tuple[List[float], int]:
        """Run *ops* ops over the two clients; returns (latencies,
        failures).  *tag* prefixes this phase's fresh keys, so phases
        never share keys; *base* offsets the op ids of traced spans."""
        plans = plan_ops(self.seed, ops, self.preseed, tag)
        self.fresh_keys += sum(kind == "fresh" for p in plans for kind, _ in p)
        lat: List[float] = []
        fails = [0]
        await asyncio.gather(
            *(self._client(cid, plans[cid], lat, fails, base) for cid in range(CLIENTS))
        )
        return lat, fails[0]

    def journal_consistent(self) -> bool:
        """Every journaled entry settled completed, and the entry count
        is exactly the pre-seed plus every fresh key submitted."""
        j = self.journal
        if len(j.entries) != self.preseed + self.fresh_keys:
            return False
        return all(e.is_settled and e.settled.get("outcome") == "completed" for e in j.entries.values())


def layer_metrics(sk: ServeKeyed, j0: dict, j1: dict, ops: int) -> dict:
    """Gateway and journal metrics of a traced serve phase of *ops* ops,
    given journal metric snapshots from before (*j0*) and after (*j1*)."""
    tracer = sk.tracer
    spans = [s for s in tracer.spans if s.op >= 0 and s.name.startswith(("gateway.", "durability."))]
    by_op: dict = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)

    def med_ms(name):
        d = [s.duration for s in spans if s.name == name]
        return median(d) * 1e3

    overheads = []
    for op, group in by_op.items():
        rt = [s.duration for s in group if s.name == "gateway.round_trip"]
        if not rt or op not in sk.walls:
            continue
        journal = sum(s.duration for s in group if s.name.startswith("durability.append_"))
        overheads.append(rt[0] - sk.walls[op] - journal)
    return {
        "gateway.submit_call_ms": med_ms("gateway.submit_call"),
        "gateway.round_trip_ms": med_ms("gateway.round_trip"),
        "gateway.worker_wall_ms": median(list(sk.walls.values())) * 1e3,
        "gateway.overhead_ms": median(overheads) * 1e3,
        "gateway.dedupe_hit_ms": med_ms("gateway.dedupe_hit"),
        "durability.append_accepted_ms": med_ms("durability.append_accepted"),
        "durability.append_settled_ms": med_ms("durability.append_settled"),
        "durability.fsync_ms": med_ms("durability.fsync"),
        "durability.open_ms": tracer.median_ms("durability.open"),
        "durability.fsyncs_per_op": (j1["journal.fsyncs"] - j0["journal.fsyncs"]) / ops,
        "durability.bytes_per_op": (j1["journal.bytes"] - j0["journal.bytes"]) / ops,
        "durability.entries_at_end": len(sk.journal.entries),
        "setup.gateway_start_s": sk.setup_times["gateway_start_s"],
    }


def sut_children() -> List[int]:
    """Live child processes of this process that belong to the system
    under test (multiprocessing's resource tracker is excluded: it is
    a helper of the interpreter that exits with it)."""
    out = []
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if b"resource_tracker" not in cmd:
            out.append(pid)
    return out
