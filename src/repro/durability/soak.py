"""Gateway crash soak: SIGKILL the *gateway*, recover from the journal.

The gateway soak (PR 8/9) kills workers and proves the pool heals; this
sweep kills the gateway process itself and proves the durable journal
makes that survivable.  ``python -m repro soak --gateway --crash``
drives three seeded scenario families:

- **crash cycles** — a child process brings up a journaled gateway,
  freezes a topology, and streams keyed submissions; the parent waits
  until the journal proves at least K acceptances landed, SIGKILLs the
  child mid-stream, then starts a *second* child against the same
  journal.  That child runs :meth:`repro.gateway.Gateway.recover`,
  replays **every** planned idempotency key, drains, and reports.  The
  parent reconciles: no corruption, exactly one ``accepted`` and one
  ``settled`` per key, dedup hits equal to the pre-crash acceptance
  count, pinned-instance entries settled ``worker_lost`` /
  ``reason="not_replayable"`` and nothing else;
- **journal fault scenarios** — a journal on a :class:`FaultyOs` takes
  a scheduled fsync failure / short write / ``EIO`` / ``ENOSPC``
  mid-batch (or a torn tail / bit flip applied to the closed files) and
  must fail *structured*: the poisoned append raises
  :class:`~repro.errors.JournalWriteError` with the matching reason and
  is rolled back, a reopen sees every surviving record, a bit flip in a
  sealed segment refuses to open at all;
- **clean keyed traffic** — one shared journaled gateway serves keyed
  submissions, then every key is resubmitted: the replay must return
  the identical outcome without appending a single new record.

Every scenario derives from the sweep seed; violations are collected,
never asserted mid-flight, and the report is the committed
``BENCH_gateway_crash_soak.json`` artifact (schema
:data:`CRASH_SOAK_SCHEMA`).  See docs/durability.md ("Crash soak").
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.durability.fsck import fsck
from repro.durability.journal import Journal
from repro.durability.osshim import FaultyOs
from repro.errors import JournalCorruptError, JournalWriteError
from repro.utils.rng import derive_seed

CRASH_SOAK_SCHEMA = "repro.gateway-crash-soak-report/1"

#: scenario index -> family (crash cycles are every 5th scenario, so a
#: 50-scenario sweep performs 10 full SIGKILL + recover cycles)
_CRASH_SLOT = 4
_FAULT_SLOT = 2

_RUN_DEADLINE_S = 60.0
_RECOVER_DEADLINE_S = 180.0
_FAULT_KINDS = ("fsync", "short_write", "write", "enospc", "torn", "bitflip")


# ---------------------------------------------------------------------------
# report shapes
# ---------------------------------------------------------------------------
@dataclass
class CrashScenario:
    """One reconciled scenario (``kind`` is crash / fault / clean)."""

    index: int
    kind: str
    seed: int
    wall_s: float = 0.0
    detail: Dict = field(default_factory=dict)
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
            "detail": self.detail,
            "violations": list(self.violations),
        }


@dataclass
class CrashSoakReport:
    """The full sweep: scenarios, counters, and the final journal audit."""

    seed: int
    scenarios: List[CrashScenario] = field(default_factory=list)
    gateway_counters: Dict[str, float] = field(default_factory=dict)
    final_fsck: Dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)  # sweep-level
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and all(s.ok for s in self.scenarios)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def all_violations(self) -> List[str]:
        out = list(self.violations)
        for s in self.scenarios:
            out.extend(f"[{s.kind} {s.index}] {v}" for v in s.violations)
        return out

    @property
    def totals(self) -> Dict[str, int]:
        t = {
            "scenarios": len(self.scenarios),
            "crash_cycles": 0,
            "kills": 0,
            "fault_injections": 0,
            "submitted": 0,
            "dedup_hits": 0,
            "resubmitted": 0,
            "not_replayable": 0,
            "violations": len(self.all_violations),
        }
        for s in self.scenarios:
            d = s.detail
            if s.kind == "crash":
                t["crash_cycles"] += 1
                t["kills"] += int(d.get("killed", 0))
                t["resubmitted"] += int(d.get("resubmitted", 0))
                t["not_replayable"] += int(d.get("not_replayable", 0))
            if s.kind == "fault":
                t["fault_injections"] += int(d.get("injected", 0))
            t["submitted"] += int(d.get("submitted", 0))
            t["dedup_hits"] += int(d.get("dedup_hits", 0))
        return t

    def to_dict(self) -> dict:
        return {
            "schema": CRASH_SOAK_SCHEMA,
            "seed": self.seed,
            "ok": self.ok,
            "cpu_count": os.cpu_count() or 1,
            "num_scenarios": self.num_scenarios,
            "totals": self.totals,
            "gateway_counters": dict(self.gateway_counters),
            "final_fsck": dict(self.final_fsck),
            "violations": self.all_violations,
            "wall_s": round(self.wall_s, 3),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# crash-cycle child processes (spawned; must be importable, main-guarded
# by virtue of living in this module rather than __main__)
# ---------------------------------------------------------------------------
def _host_main(mode: str, journal_path: str, plan_json: str,
               result_path: str, seed: int) -> None:
    """Entry point of a crash-cycle child (spawn context).

    ``mode="run"`` streams the plan's keyed submissions and then parks
    until the parent's SIGKILL; ``mode="recover"`` recovers the same
    journal, replays every key, drains, and writes *result_path*.
    """
    plan = json.loads(plan_json)
    if mode == "run":
        asyncio.run(_host_run(journal_path, plan))
    else:
        asyncio.run(_host_recover(journal_path, plan, result_path, seed))


def _plan_target(gw, item: dict, fh):
    from repro.gateway.spec import BurstSpec

    kind = item["kind"]
    if kind == "frozen" and fh is not None:
        return fh
    if kind == "instance":
        return gw.instance(BurstSpec(width=2, sleep_s=item["sleep_s"]))
    return BurstSpec(width=2, sleep_s=item["sleep_s"])


async def _host_run(journal_path: str, plan: List[dict]) -> None:
    from repro.gateway.gateway import Gateway
    from repro.gateway.spec import BurstSpec
    from repro.gateway.worker import WorkerConfig

    gw = Gateway(
        2,
        worker=WorkerConfig(threads=2, gpus=1),
        journal=journal_path,
        name="crash-run",
    )
    await gw.start()
    # frozen before any submission: the fid record is durable first,
    # so recovery can always re-ship it (pipe FIFO per worker)
    fh = await gw.freeze(BurstSpec(width=4, sleep_s=0.05))
    subs = []
    for item in plan:
        subs.append(
            gw.submit(_plan_target(gw, item, fh), idempotency_key=item["key"])
        )
        await asyncio.sleep(item["gap_s"])
    await asyncio.gather(*(s.future for s in subs))
    # everything settled before the parent pulled the trigger: park
    # here so the SIGKILL still lands on a live, journaled gateway
    await asyncio.sleep(_RUN_DEADLINE_S * 2)


async def _host_recover(journal_path: str, plan: List[dict],
                        result_path: str, seed: int) -> None:
    from repro.gateway.gateway import Gateway
    from repro.gateway.spec import BurstSpec
    from repro.gateway.worker import WorkerConfig

    out: Dict = {"recover": None, "outcomes": {}, "drained": False}
    async with Gateway(
        2,
        worker=WorkerConfig(threads=2, gpus=1),
        journal=journal_path,
        name="crash-recover",
    ) as gw:
        report = await gw.recover()
        out["recover"] = report.to_dict()
        fh = gw.frozen_handles().get(1)
        for item in plan:
            # client-side replay of every planned key: journaled keys
            # must dedupe (settled -> journaled Result, in-flight ->
            # the recovery handle); keys the crash swallowed run fresh.
            # The target is deliberately a throwaway spec — the key
            # wins over the payload, by design.
            if item["kind"] == "frozen" and fh is not None:
                sub = gw.submit(fh, idempotency_key=item["key"])
            else:
                sub = gw.submit(
                    BurstSpec(width=1), idempotency_key=item["key"]
                )
            res = await sub
            out["outcomes"][item["key"]] = {
                "outcome": res.outcome,
                "reason": res.reason,
            }
        snap = gw.snapshot()
        out["counters"] = {
            k: snap.get(k, 0.0)
            for k in (
                "journal.appends",
                "journal.dedup_hits",
                "journal.errors",
                "gateway.recover.frozen_reshipped",
                "gateway.recover.resubmitted",
                "gateway.recover.not_replayable",
                "gateway.submits",
                "gateway.settled",
            )
        }
        out["drained"] = await gw.drain(timeout=30.0)
    tmp = result_path + ".tmp"
    with open(tmp, "w") as fh_out:
        json.dump(out, fh_out)
    os.replace(tmp, result_path)


# ---------------------------------------------------------------------------
# crash cycle (parent side; blocking — the sweep runs it in an executor
# thread so the shared gateway's heartbeat loop stays live)
# ---------------------------------------------------------------------------
def _build_plan(rng: random.Random, index: int) -> List[dict]:
    n = rng.randint(5, 8)
    plan = []
    for j in range(n):
        if j == 0:
            kind = "frozen"
        elif j == 1:
            kind = "instance"
        else:
            kind = rng.choice(("spec", "frozen", "spec", "instance"))
        plan.append({
            "key": f"c{index}-k{j}",
            "kind": kind,
            # instances sleep longer so the kill reliably catches some
            # of them unsettled -> the not_replayable path gets traffic
            "sleep_s": round(rng.uniform(0.2, 0.4), 3)
            if kind == "instance" else round(rng.uniform(0.02, 0.15), 3),
            "gap_s": round(rng.uniform(0.01, 0.05), 3),
        })
    return plan


def _run_crash_cycle(index: int, sweep_seed: int,
                     journal_root: str) -> CrashScenario:
    seed = derive_seed(sweep_seed, "crash", index)
    rng = random.Random(seed)
    sc = CrashScenario(index=index, kind="crash", seed=seed)
    t0 = time.monotonic()
    plan = _build_plan(rng, index)
    kill_after = rng.randint(2, min(4, len(plan)))
    jp = os.path.join(journal_root, f"crash-{index:03d}")
    result_path = os.path.join(journal_root, f"crash-{index:03d}-result.json")
    ctx = multiprocessing.get_context("spawn")

    # -- phase 1: run, then SIGKILL mid-stream -------------------------
    runner = ctx.Process(
        target=_host_main, args=("run", jp, json.dumps(plan), "", seed)
    )
    runner.start()
    deadline = time.monotonic() + _RUN_DEADLINE_S
    accepted_at_kill = 0
    while time.monotonic() < deadline:
        if not runner.is_alive():
            sc.violations.append(
                f"run host died on its own (exit {runner.exitcode}) "
                f"before the kill"
            )
            break
        accepted_at_kill = fsck(jp).accepted
        if accepted_at_kill >= kill_after:
            break
        time.sleep(0.05)
    else:
        sc.violations.append(
            f"run host journaled {accepted_at_kill}/{kill_after} "
            f"acceptances within {_RUN_DEADLINE_S:.0f}s"
        )
    if runner.is_alive():
        os.kill(runner.pid, signal.SIGKILL)
        sc.detail["killed"] = 1
    runner.join(timeout=10.0)

    # -- phase 2: audit the orphaned journal ---------------------------
    pre = fsck(jp)
    if pre.corruptions:
        sc.violations.append(
            "corruption in the post-kill journal: "
            + "; ".join(f.kind for f in pre.corruptions)
        )
    pre_accepted = pre.accepted
    unsettled_keys = {key for _jid, key in pre.unsettled}
    kinds = {item["key"]: item["kind"] for item in plan}
    expect_nr = sum(1 for k in unsettled_keys if kinds.get(k) == "instance")
    sc.detail.update(
        accepted_at_kill=pre_accepted,
        settled_at_kill=pre.settled,
        unsettled_at_kill=len(pre.unsettled),
        torn_tail_bytes=pre.torn_tail_bytes,
        submitted=len(plan),
    )

    # -- phase 3: recover against the same journal ---------------------
    recoverer = ctx.Process(
        target=_host_main,
        args=("recover", jp, json.dumps(plan), result_path, seed),
    )
    recoverer.start()
    recoverer.join(timeout=_RECOVER_DEADLINE_S)
    if recoverer.is_alive():
        os.kill(recoverer.pid, signal.SIGKILL)
        recoverer.join(timeout=10.0)
        sc.violations.append("recover host hung; killed")
        sc.wall_s = time.monotonic() - t0
        return sc
    if recoverer.exitcode != 0:
        sc.violations.append(
            f"recover host exited {recoverer.exitcode}"
        )
        sc.wall_s = time.monotonic() - t0
        return sc
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError) as exc:
        sc.violations.append(f"recover host wrote no result: {exc!r}")
        sc.wall_s = time.monotonic() - t0
        return sc

    # -- phase 4: reconcile ---------------------------------------------
    if not result.get("drained"):
        sc.violations.append("recovered gateway failed to drain")
    rec = result.get("recover") or {}
    sc.detail["resubmitted"] = rec.get("resubmitted", 0)
    sc.detail["not_replayable"] = rec.get("not_replayable", 0)
    sc.detail["frozen_reshipped"] = rec.get("frozen_reshipped", 0)
    if rec.get("not_replayable") != expect_nr:
        sc.violations.append(
            f"recover settled {rec.get('not_replayable')} entries "
            f"not_replayable, the journal had {expect_nr} unsettled "
            f"pinned instances"
        )
    if rec.get("resubmitted") != len(pre.unsettled) - expect_nr:
        sc.violations.append(
            f"recover resubmitted {rec.get('resubmitted')} of "
            f"{len(pre.unsettled) - expect_nr} replayable unsettled "
            f"entries"
        )
    outcomes = result.get("outcomes", {})
    for item in plan:
        got = outcomes.get(item["key"])
        if got is None:
            sc.violations.append(f"key {item['key']} never settled")
            continue
        if item["kind"] == "instance":
            ok = got["outcome"] == "completed" or (
                got["outcome"] == "worker_lost"
                and got["reason"] == "not_replayable"
            )
        else:
            ok = got["outcome"] == "completed"
        if not ok:
            sc.violations.append(
                f"key {item['key']} ({item['kind']}) settled "
                f"{got['outcome']}/{got['reason']!r}"
            )
    counters = result.get("counters", {})
    if int(counters.get("journal.dedup_hits", -1)) != pre_accepted:
        sc.violations.append(
            f"dedup hits {counters.get('journal.dedup_hits')} != "
            f"{pre_accepted} keys journaled before the kill"
        )
    sc.detail["dedup_hits"] = int(counters.get("journal.dedup_hits", 0))

    post = fsck(jp)
    if not post.clean:
        sc.violations.append(
            "post-recovery journal not clean: "
            + "; ".join(f.kind for f in post.corruptions)
        )
    if post.unsettled:
        sc.violations.append(
            f"{len(post.unsettled)} entries still unsettled after "
            f"recovery + drain"
        )
    if post.accepted != len(plan):
        sc.violations.append(
            f"{post.accepted} accepted records for {len(plan)} keys — "
            f"resubmission duplicated acceptance"
        )
    if post.settled != len(plan):
        sc.violations.append(
            f"{post.settled} settle records for {len(plan)} keys — "
            f"settlement is not exactly-once"
        )
    sc.wall_s = time.monotonic() - t0
    return sc


# ---------------------------------------------------------------------------
# journal fault scenarios (no gateway; FaultyOs + file surgery)
# ---------------------------------------------------------------------------
def _append_batch(journal: Journal, index: int, start: int, count: int,
                  *, retry: bool) -> Optional[str]:
    """Append *count* accepted records; on a JournalWriteError retry the
    same record once (``once=True`` devices recover) and return the
    structured reason."""
    reason = None
    for i in range(start, start + count):
        key = f"f{index}-{i}"
        try:
            journal.append_accepted(key=key, target="spec", tenant="fault")
        except JournalWriteError as exc:
            reason = exc.reason
            if retry:
                journal.append_accepted(key=key, target="spec", tenant="fault")
            else:
                raise
    return reason


def _run_fault_scenario(index: int, sweep_seed: int,
                        journal_root: str) -> CrashScenario:
    seed = derive_seed(sweep_seed, "fault", index)
    rng = random.Random(seed)
    fault = _FAULT_KINDS[(index // 5) % len(_FAULT_KINDS)]
    sc = CrashScenario(index=index, kind="fault", seed=seed,
                       detail={"fault": fault})
    t0 = time.monotonic()
    jp = os.path.join(journal_root, f"fault-{index:03d}")
    n = rng.randint(6, 16)
    sc.detail["records"] = n

    if fault in ("fsync", "short_write", "write", "enospc"):
        # ordinal 1 is the segment header; poison a mid-batch append
        at = rng.randint(3, n + 1)
        shim = {
            "fsync": FaultyOs(fail_fsync_at=at),
            "short_write": FaultyOs(short_write_at=at),
            "write": FaultyOs(fail_write_at=at),
            "enospc": FaultyOs(enospc_at=at),
        }[fault]
        journal = Journal(jp, os_impl=shim, fsync_policy="always")
        journal.open()
        reason = _append_batch(journal, index, 0, n, retry=True)
        settle = rng.randint(1, n)
        for jid in range(1, settle + 1):
            journal.append_settled(jid, outcome="completed")
        journal.close()
        if not shim.injected:
            sc.violations.append(f"scheduled {fault} fault never fired")
        sc.detail["injected"] = len(shim.injected)
        if reason != fault:
            sc.violations.append(
                f"expected a structured JournalWriteError({fault!r}), "
                f"got {reason!r}"
            )
        reopened = Journal(jp)
        reopened.open()
        counts = reopened.counts()
        reopened.close()
        if counts["entries"] != n or counts["settled"] != settle:
            sc.violations.append(
                f"reopen saw {counts['entries']}/{counts['settled']} "
                f"entries/settled, wrote {n}/{settle} — the rolled-back "
                f"append leaked or a good record was lost"
            )
        rep = fsck(jp)
        if not rep.clean:
            sc.violations.append("fsck found corruption after recovery")

    elif fault == "torn":
        journal = Journal(jp, fsync_policy="never")
        journal.open()
        _append_batch(journal, index, 0, n, retry=False)
        journal.close()
        seg = sorted(
            p for p in os.listdir(jp) if p.startswith("seg-")
        )[-1]
        garbage = os.urandom(rng.randint(3, 40))
        with open(os.path.join(jp, seg), "ab") as fh:
            fh.write(garbage)
        sc.detail["injected"] = 1
        sc.detail["torn_bytes"] = len(garbage)
        reopened = Journal(jp)
        reopened.open()
        truncations = reopened.open_report.torn_truncations
        counts = reopened.counts()
        reopened.close()
        if truncations != 1:
            sc.violations.append(
                f"open performed {truncations} torn-tail truncations, "
                f"expected 1"
            )
        if counts["entries"] != n:
            sc.violations.append(
                f"torn tail cost committed records: {counts['entries']} "
                f"of {n} survived"
            )
        rep = fsck(jp)
        if not rep.clean or rep.torn_tail_bytes:
            sc.violations.append("journal not clean after truncation")

    else:  # bitflip in a sealed (non-final) segment
        journal = Journal(jp, fsync_policy="never", segment_max_bytes=1024)
        journal.open()
        _append_batch(journal, index, 0, max(n, 10), retry=False)
        journal.close()
        segs = sorted(p for p in os.listdir(jp) if p.startswith("seg-"))
        if len(segs) < 2:
            sc.violations.append("bitflip setup failed to span segments")
        else:
            target = os.path.join(jp, segs[0])
            with open(target, "rb") as fh:
                data = bytearray(fh.read())
            pos = rng.randrange(len(data))
            data[pos] ^= 1 << rng.randrange(8)
            with open(target, "wb") as fh:
                fh.write(data)
            sc.detail["injected"] = 1
            sc.detail["flip_offset"] = pos
            try:
                Journal(jp).open()
            except JournalCorruptError as exc:
                sc.detail["refused"] = exc.kind
            else:
                sc.violations.append(
                    "open accepted a bit-flipped sealed segment"
                )
            rep = fsck(jp)
            if rep.clean:
                sc.violations.append("fsck missed the bit flip")

    sc.wall_s = time.monotonic() - t0
    return sc


# ---------------------------------------------------------------------------
# clean keyed traffic on the shared gateway
# ---------------------------------------------------------------------------
async def _run_clean_scenario(gw, fh, index: int,
                              sweep_seed: int) -> CrashScenario:
    from repro.gateway.spec import BurstSpec

    seed = derive_seed(sweep_seed, "clean", index)
    rng = random.Random(seed)
    sc = CrashScenario(index=index, kind="clean", seed=seed)
    t0 = time.monotonic()
    n = rng.randint(3, 6)
    sc.detail["submitted"] = n
    subs = []
    for j in range(n):
        key = f"s{index}-k{j}"
        target = fh if rng.random() < 0.5 else BurstSpec(
            width=rng.randint(2, 6)
        )
        subs.append((key, gw.submit(target, idempotency_key=key)))
    first = {key: await sub for key, sub in subs}

    appends_before = gw.snapshot()["journal.appends"]
    dedup_before = gw.snapshot()["journal.dedup_hits"]
    for key, _sub in subs:
        # replay with a *different* payload: the key must win and the
        # journaled outcome must come back verbatim, zero new appends
        replay = await gw.submit(BurstSpec(width=1), idempotency_key=key)
        if replay.outcome != first[key].outcome:
            sc.violations.append(
                f"replayed key {key} settled {replay.outcome}, first "
                f"run settled {first[key].outcome}"
            )
    snap = gw.snapshot()
    if snap["journal.appends"] != appends_before:
        sc.violations.append(
            f"replaying settled keys appended "
            f"{snap['journal.appends'] - appends_before:.0f} records"
        )
    hits = snap["journal.dedup_hits"] - dedup_before
    if hits != n:
        sc.violations.append(
            f"{hits:.0f} dedup hits for {n} replayed keys"
        )
    sc.detail["dedup_hits"] = int(hits)
    sc.wall_s = time.monotonic() - t0
    return sc


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------
async def _run_sweep(scenarios: int, workers: int, seed: int,
                     journal_dir: Optional[str],
                     log: Optional[Callable[[str], None]]) -> CrashSoakReport:
    from repro.gateway.gateway import Gateway
    from repro.gateway.spec import BurstSpec
    from repro.gateway.worker import WorkerConfig

    def say(msg: str) -> None:
        if log:
            log(msg)

    t0 = time.monotonic()
    root = journal_dir or tempfile.mkdtemp(prefix="repro-crash-soak-")
    os.makedirs(root, exist_ok=True)
    shared = os.path.join(root, "shared")
    report = CrashSoakReport(seed=seed)
    loop = asyncio.get_running_loop()

    async with Gateway(
        workers,
        worker=WorkerConfig(threads=2, gpus=1),
        journal=shared,
        name="crash-soak",
    ) as gw:
        fh = await gw.freeze(BurstSpec(width=8))
        for i in range(scenarios):
            if i % 5 == _CRASH_SLOT:
                # blocking (child processes + polls): keep the shared
                # gateway's heartbeat loop alive by running it off-loop
                sc = await loop.run_in_executor(
                    None, _run_crash_cycle, i, seed, root
                )
            elif i % 5 == _FAULT_SLOT:
                sc = await loop.run_in_executor(
                    None, _run_fault_scenario, i, seed, root
                )
            else:
                sc = await _run_clean_scenario(gw, fh, i, seed)
            report.scenarios.append(sc)
            d = sc.detail
            if sc.kind == "crash":
                extra = (f"accepted_at_kill={d.get('accepted_at_kill')} "
                         f"resubmitted={d.get('resubmitted')} "
                         f"not_replayable={d.get('not_replayable')}")
            elif sc.kind == "fault":
                extra = f"fault={d.get('fault')} records={d.get('records')}"
            else:
                extra = (f"keys={d.get('submitted')} "
                         f"dedup={d.get('dedup_hits')}")
            say(f"  [{i + 1:>3}/{scenarios}] {sc.kind:<5} {extra} "
                f"({sc.wall_s:.2f}s) "
                f"{'ok' if sc.ok else 'VIOLATIONS: ' + str(len(sc.violations))}")

        if not await gw.drain(timeout=60.0):
            report.violations.append("shared gateway failed to drain")
        report.gateway_counters = {
            k: v for k, v in gw.snapshot().items()
            if k.startswith(("gateway.", "journal."))
        }

    # the shared journal after shutdown: consistent, fully settled, and
    # recoverable (a reopen must reconstruct it without complaint)
    final = fsck(shared)
    report.final_fsck = final.to_dict()
    if not final.clean:
        report.violations.append(
            "final fsck found corruption in the shared journal: "
            + "; ".join(f.kind for f in final.corruptions)
        )
    if final.unsettled:
        report.violations.append(
            f"shared journal drained with {len(final.unsettled)} "
            f"unsettled entries"
        )
    reopened = Journal(shared)
    reopened.open()
    counts = reopened.counts()
    reopened.close()
    if counts["entries"] != final.accepted or counts["unsettled"] != 0:
        report.violations.append(
            f"reopen disagreed with fsck: {counts} vs "
            f"accepted={final.accepted}"
        )
    report.wall_s = time.monotonic() - t0
    return report


def run_gateway_crash_soak(
    scenarios: int = 50,
    *,
    workers: int = 2,
    seed: int = 0,
    journal_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
) -> CrashSoakReport:
    """Run the gateway crash soak and return the reconciled report.

    Every 5th scenario is a full SIGKILL + journal-recovery cycle in
    child processes, every 5th (offset 2) a seeded journal fault, the
    rest keyed traffic on one long-lived journaled gateway.  *workers*
    sizes the shared gateway; crash-cycle children always use 2.
    ``journal_dir`` keeps the journals (and per-cycle result files) for
    post-mortem; by default a temp directory is used.
    """
    return asyncio.run(
        _run_sweep(scenarios, workers, seed, journal_dir, log)
    )


__all__ = [
    "CRASH_SOAK_SCHEMA",
    "CrashScenario",
    "CrashSoakReport",
    "run_gateway_crash_soak",
]
