"""Tests for the journaled gateway (:mod:`repro.gateway` + journal).

Spawns real worker pools like tests/test_gateway.py, so tests stay
bundled and pools stay at 2 processes.  Covers the write-through
contract (written before the handle, durable before the Result; one
fsync per submission, checked on power-cut images),
idempotency-key dedupe, crash recovery via :meth:`Gateway.recover`,
structured refusal when the journal device fails, worker immunity to
operator signals, and a smoke run of the crash soak harness.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.durability import FaultyOs, Journal, fsck
from repro.errors import GatewayError, JournalWriteError
from repro.gateway import BurstSpec, Gateway, GeneratedSpec, WorkerConfig

pytestmark = pytest.mark.gateway

_CONFIG = WorkerConfig(threads=2, gpus=1)

#: the format-1 (all-pickle) journal committed under tests/data/
V1_JOURNAL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "journal_v1")


def _run(coro):
    return asyncio.run(coro)


class TestWriteThrough:
    def test_journaled_submit_settle_and_dedupe(self, tmp_path):
        path = str(tmp_path / "j")

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                fh = await gw.freeze(BurstSpec(width=4))
                s1 = gw.submit(fh, idempotency_key="job-1")
                # accepted journaled before the client sees the handle
                assert gw.journal.lookup("job-1") == s1.jid
                # an in-flight key returns the SAME live handle
                s1b = gw.submit(fh, idempotency_key="job-1")
                assert s1b is s1
                r1 = await s1
                assert r1.ok
                # a settled key replays the journaled Result, no re-run
                submits_before = gw.snapshot()["gateway.submits"]
                s1c = gw.submit(
                    BurstSpec(width=64), idempotency_key="job-1"
                )
                r1c = await s1c
                assert r1c.outcome == r1.outcome
                assert gw.snapshot()["gateway.submits"] == submits_before
                assert gw.snapshot()["journal.dedup_hits"] == 2
                events = [ev async for ev in s1c.events()]
                assert events[-1]["replayed"] is True

                # a refused hedge is refused before it is journaled:
                # no accepted entry, no key, nothing sent
                with pytest.raises(GatewayError, match="p95"):
                    gw.submit(fh, hedge_after="p42", idempotency_key="job-2")
                assert gw.journal.counts()["entries"] == 1
                assert gw.journal.lookup("job-2") is None
                assert gw.snapshot()["gateway.submits"] == submits_before

                # unkeyed submissions are journaled too
                r2 = await gw.submit(BurstSpec(width=2))
                assert r2.ok
                assert gw.journal.counts()["entries"] == 2
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        assert report.accepted == report.settled == 2

    def test_key_without_journal_refused(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                with pytest.raises(GatewayError, match="requires a journal"):
                    gw.submit(BurstSpec(width=2), idempotency_key="k")
        _run(main())

    def test_journal_device_failure_refuses_submission(self, tmp_path):
        # ordinal 1 is the segment header; the first accepted append is
        # write 2 and must fail structured with nothing admitted
        journal = Journal(
            str(tmp_path / "j"),
            os_impl=FaultyOs(fail_write_at=2),
            fsync_policy="always",
        )

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=journal) as gw:
                with pytest.raises(JournalWriteError) as ei:
                    gw.submit(BurstSpec(width=2), idempotency_key="k")
                assert ei.value.reason == "write"
                assert gw.snapshot()["gateway.inflight"] == 0
                assert gw.journal.counts()["entries"] == 0
                # transient device: the retry goes through end to end
                res = await gw.submit(
                    BurstSpec(width=2), idempotency_key="k"
                )
                assert res.ok
        _run(main())


class TestOneFsync:
    """The accept is written unsynced; the settle's fsync covers it."""

    def test_one_fsync_per_fresh_keyed_submission(self, tmp_path):
        n = 8

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=str(tmp_path / "j")) as gw:
                fh = await gw.freeze(BurstSpec(width=2))
                before = gw.snapshot()["journal.fsyncs"]
                subs = [gw.submit(fh, idempotency_key=f"k{i}") for i in range(n)]
                assert all(r.ok for r in await asyncio.gather(*subs))
                assert gw.snapshot()["journal.fsyncs"] - before == n
        _run(main())

    def test_power_cut_image_after_every_result(self, tmp_path):
        """After each Result resolves, cut the journal to what its fsyncs
        made durable: the image opens, fscks clean, and holds every key
        resolved so far settled with exactly its Result."""
        path = str(tmp_path / "j")
        shim = FaultyOs()
        journal = Journal(path, os_impl=shim, fsync_policy="always")
        images = []  # (image dir, {key: Result resolved by then})
        resolved = {}

        def cut(key, fut):
            resolved[key] = fut.result()
            img = str(tmp_path / f"img{len(images)}")
            shim.power_cut_copy(path, img)
            images.append((img, dict(resolved)))

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=journal) as gw:
                fh = await gw.freeze(BurstSpec(width=2))
                subs = []
                for i in range(12):
                    target = fh if i % 2 else BurstSpec(width=2)
                    sub = gw.submit(target, idempotency_key=f"k{i}")
                    sub.future.add_done_callback(lambda f, key=f"k{i}": cut(key, f))
                    subs.append(sub)
                await asyncio.gather(*subs)
        _run(main())

        assert len(images) == 12
        for img, results in images:
            report = fsck(img)
            assert report.clean, report.corruptions
            j = Journal(img)
            j.open()
            for key, res in results.items():
                entry = j.get(j.lookup(key))
                assert entry.is_settled, (img, key)
                assert entry.settled == {
                    f: getattr(res, f) for f in entry.settled
                }, (img, key)
            j.close()


class TestRecovery:
    def test_recover_resubmits_unsettled(self, tmp_path):
        path = str(tmp_path / "j")
        # fabricate post-crash residue: what a SIGKILLed gateway leaves
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, BurstSpec(width=4))
        done = j.append_accepted(key="done", target="spec",
                                 spec=BurstSpec(width=2))
        j.append_settled(done, outcome="completed", passes=1)
        j.append_accepted(key="spec-redo", target="spec",
                          spec=GeneratedSpec(seed=5, num_gpus=1))
        j.append_accepted(key="frozen-redo", target="frozen", fid=1)
        j.append_accepted(key="pinned", target="instance",
                          spec=BurstSpec(width=2), iid=1)
        j.close()

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                report = await gw.recover()
                assert report.frozen_reshipped == 1
                assert report.resubmitted == 2
                assert report.not_replayable == 1
                results = await asyncio.gather(
                    *(s.future for s in report.submissions)
                )
                assert all(r.ok for r in results)
                # the pinned-instance entry settled without re-running
                pinned = await gw.submit(
                    BurstSpec(width=1), idempotency_key="pinned"
                )
                assert pinned.outcome == "worker_lost"
                assert pinned.reason == "not_replayable"
                # the pre-crash settlement replays too
                done_again = await gw.submit(
                    BurstSpec(width=1), idempotency_key="done"
                )
                assert done_again.outcome == "completed"
                # the re-shipped frozen handle is live for new traffic
                fh = gw.frozen_handles()[1]
                assert (await gw.submit(fh)).ok
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        # 4 fabricated + 1 fresh frozen submit; no double-accepts
        assert report.accepted == report.settled == 5

    def test_recover_survives_failed_auto_compaction(self, tmp_path):
        # the first not_replayable settle triggers a compaction whose
        # header write fails; recover() must still settle every entry
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        for iid in (1, 2):
            j.append_accepted(target="instance", spec=BurstSpec(width=2),
                              iid=iid)
        j.close()
        # write 1 is the first settle, write 2 its compaction's header
        journal = Journal(
            path, os_impl=FaultyOs(fail_write_at=2), compact_min_settled=1
        )

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=journal) as gw:
                report = await gw.recover()
                assert report.not_replayable == 2
                assert gw.journal.counts()["unsettled"] == 0
                snap = gw.journal.metrics.snapshot()
                assert snap["journal.errors"] == 1
                # the second settle retried the compaction
                assert snap["journal.compactions"] == 1
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained

    def test_keyed_fallthrough_resubmits_journaled_payload(self, tmp_path):
        # restart WITHOUT recover(): a keyed submit whose entry is
        # journaled-but-unsettled must resubmit from the *journaled*
        # entry — the caller's divergent payload is ignored, so what
        # runs (and what another recovery would replay) is exactly
        # what the journal recorded
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_accepted(key="redo", target="spec",
                          spec=BurstSpec(width=7))
        j.append_accepted(key="pinned", target="instance",
                          spec=BurstSpec(width=2), iid=1)
        j.close()

        async def main():
            async with Gateway(2, worker=_CONFIG, journal=path) as gw:
                sub = gw.submit(BurstSpec(width=1), idempotency_key="redo")
                assert sub.jid == 1
                assert sub.request.spec == BurstSpec(width=7)
                assert gw.journal.get(1).spec == BurstSpec(width=7)
                assert (await sub).ok
                # a pinned-instance entry is not replayable: it settles
                # worker_lost/not_replayable, mirroring recover()
                pinned = await gw.submit(
                    BurstSpec(width=1), idempotency_key="pinned"
                )
                assert pinned.outcome == "worker_lost"
                assert pinned.reason == "not_replayable"
                assert await gw.drain(timeout=30.0)
        _run(main())
        report = fsck(path)
        assert report.clean and report.drained
        assert report.accepted == report.settled == 2

    def test_workers_ignore_operator_signals(self):
        # SIGTERM to the process group must drain via the gateway, not
        # slaughter the pool: workers ignore TERM/INT (worker_main)
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                for handle in gw._workers:
                    os.kill(handle.proc.pid, signal.SIGTERM)
                    os.kill(handle.proc.pid, signal.SIGINT)
                await asyncio.sleep(0.3)
                assert gw.snapshot()["gateway.workers_alive"] == 2
                res = await gw.submit(BurstSpec(width=4))
                assert res.ok
                assert gw.snapshot()["gateway.worker_deaths"] == 0
        _run(main())


class TestFormatCompatibility:
    def test_v1_journal_dedupes_recovers_and_appends(self, tmp_path, capsys):
        """A format-1 (all-pickle) journal from an older build, committed
        under tests/data/: the gateway recovers its unsettled entry,
        replays a journaled key, appends format-2 records, and the
        result reopens and checks clean."""
        path = str(tmp_path / "j")
        shutil.copytree(V1_JOURNAL, path)

        async def main():
            async with Gateway(1, worker=WorkerConfig(threads=2, gpus=0), journal=path) as gw:
                report = await gw.recover()
                assert report.frozen_reshipped == 1
                assert report.jids == [8] and report.not_replayable == 0
                (pending,) = report.submissions
                assert pending.idempotency_key == "pending"
                assert (await pending).ok
                fh = gw.frozen_handles()[1]
                submits = gw.snapshot()["gateway.submits"]
                replay = await gw.submit(fh, idempotency_key="k4")
                assert (replay.outcome, replay.error, replay.reason, replay.wall_s) == (
                    "failed", "RuntimeError('boom')", "task_error", 0.003
                )
                assert (await gw.submit(fh, idempotency_key="k0")).wall_s == 0.001
                assert gw.snapshot()["gateway.submits"] == submits
                for i in range(3):
                    assert (await gw.submit(fh, idempotency_key=f"new-{i}")).ok
                assert await gw.drain(timeout=30.0)

        _run(main())
        j = Journal(path)
        j.open()
        assert j.counts() == {"entries": 10, "settled": 10, "unsettled": 0, "frozen": 1}
        assert j.lookup("new-2") is not None
        j.close()
        assert cli_main(["fsck", path, "--strict"]) == 0
        assert "clean: no corruption" in capsys.readouterr().out


class TestCrashSoakSmoke:
    def test_five_scenarios_including_one_kill_cycle(self, verify_run):
        # indices 0-4: three clean, one journal fault, one full
        # SIGKILL + recover cycle — the first full cadence period
        code, doc = verify_run("gateway-crash")
        assert code == 0, doc["violations"]
        assert [s["kind"] for s in doc["scenarios"]] == [
            "clean", "clean", "fault", "clean", "crash",
        ]
        totals = doc["totals"]
        assert totals["crash_cycles"] == 1
        assert totals["kills"] == 1
        assert totals["fault_injections"] >= 1
        assert doc["detail"]["final_fsck"]["clean"]
        assert doc["detail"]["final_fsck"]["unsettled"] == []
