"""Tests for the async multiprocess gateway (:mod:`repro.gateway`).

Every test spawns a real worker pool (``multiprocessing`` spawn
context), so the pool stays small (2 processes) and each test bundles
several related assertions to keep the spawn bill down.  The seeded
worker-death test SIGKILLs a live worker mid-graph and requires every
awaitable to settle and the slot to respawn; the drain-under-load test
mirrors ``tests/test_service.py``'s drain guarantees across the
process boundary.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import threading
import time

import pytest

from repro.errors import GatewayError
from repro.gateway import (
    BuiltinSpec,
    BurstSpec,
    Gateway,
    GeneratedSpec,
    WorkerConfig,
)
from repro.gateway import messages as m
from repro.gateway.worker import _WorkerState

pytestmark = pytest.mark.gateway

_CONFIG = WorkerConfig(threads=2, gpus=1)


def _run(coro):
    return asyncio.run(coro)


class TestSubmission:
    def test_submit_completes_and_streams_events(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                sub = gw.submit(GeneratedSpec(seed=7, num_gpus=1))
                res = await sub
                assert res.ok and res.outcome == "completed"
                assert res.passes == 1
                assert res.wid in (0, 1)
                kinds = [ev["kind"] async for ev in sub.events()]
                assert kinds == ["submitted", "accepted", "settled"]
                # the event iterator terminates once settled
                res2 = await gw.submit(BuiltinSpec("saxpy"))
                assert res2.ok

        _run(main())

    def test_instance_pins_to_worker_and_verifies(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                gh = gw.instance(GeneratedSpec(seed=11, num_gpus=1))
                r1 = await gw.submit(gh)
                r2 = await gw.submit(gh, repeats=2)
                assert r1.ok and r2.ok
                assert r1.wid == r2.wid == gh.wid
                total = r1.passes + r2.passes
                assert total == 3
                assert await gw.verify(gh, total) == ()
                # a wrong pass count is a detected violation, proving
                # the oracle runs for real on the worker side
                wrong = await gw.verify(gh, total + 1)
                assert wrong and "pass" in wrong[0]

        _run(main())

    def test_frozen_replay_crosses_process_boundary(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                fh = await gw.freeze(BurstSpec(width=8))
                results = await asyncio.gather(
                    *[gw.submit(fh).future for _ in range(6)]
                )
                assert all(r.ok for r in results)
                # both workers served replays (round-robin routing) and
                # their executors took the frozen-plan path
                metrics = await gw.worker_metrics()
                assert sorted(metrics) == [0, 1]
                for snap in metrics.values():
                    assert snap["worker.frozen"] == 1
                    assert (
                        snap["replay.cache_hits"] + snap["replay.fast_path"]
                        > 0
                    )

        _run(main())

    def test_submit_rejects_unknown_target(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                with pytest.raises(GatewayError):
                    gw.submit("not a spec")  # type: ignore[arg-type]

        _run(main())


class TestWorkerDeath:
    def test_sigkill_mid_graph_settles_and_respawns(self):
        """SIGKILL a worker with a graph in flight: the submission
        settles (replayed on the replacement), the slot respawns
        within the heartbeat budget, and nothing is stranded."""

        async def main():
            interval = 0.2
            async with Gateway(
                2, worker=_CONFIG, heartbeat_interval=interval
            ) as gw:
                gh = gw.instance(BurstSpec(width=4, sleep_s=0.3))
                sub = gw.submit(gh)
                await asyncio.sleep(0.1)  # let the work start
                victim = gw._workers[sub.wid]
                t0 = time.monotonic()
                os.kill(victim.proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(sub.future, 30.0)
                # the replan path resubmitted the idempotent spec
                assert res.outcome == "completed"
                assert res.replans == 1
                # detection is one is_alive poll away, the respawned
                # Ready a process start after that
                deadline = t0 + 15.0
                while time.monotonic() < deadline:
                    fresh = gw._workers[victim.wid]
                    if fresh is not victim and fresh.ready:
                        break
                    await asyncio.sleep(0.02)
                fresh = gw._workers[victim.wid]
                assert fresh is not victim and fresh.ready
                assert gw._workers_alive() == 2
                # the dead worker's instance state is gone: the handle
                # is tainted and verification is honestly vacuous
                assert gh.tainted
                assert await gw.verify(gh, 1) == ()
                snap = gw.snapshot()
                assert snap["gateway.worker_deaths"] == 1
                assert snap["gateway.respawns"] == 1
                assert snap["gateway.replans"] == 1
                # the replacement serves new work
                assert (await gw.submit(BurstSpec(width=2))).ok

        _run(main())

    def test_second_death_settles_as_worker_lost(self):
        """With the replan budget exhausted, a submission settles with
        a structured worker_lost result instead of hanging."""

        async def main():
            async with Gateway(
                1, worker=_CONFIG, heartbeat_interval=0.2, max_replans=0
            ) as gw:
                sub = gw.submit(BurstSpec(width=4, sleep_s=0.4))
                await asyncio.sleep(0.1)
                os.kill(gw._workers[0].proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(sub.future, 30.0)
                assert res.outcome == "worker_lost"
                assert "WorkerDiedError" in res.error
                # the pool healed regardless
                assert (await gw.submit(BurstSpec(width=2))).ok

        _run(main())


class TestControlCallDeath:
    """A worker that dies while a control call waits on it resolves the
    call: freeze() raises, verify() is vacuous, worker_metrics() leaves
    the worker out and drain() reports not-ok."""

    @staticmethod
    async def _kill_during(gw, wid, call):
        """Wedge worker *wid* so *call*'s request sits unread, SIGKILL
        the worker, and require *call* to resolve within 5 s."""
        gw.inject_chaos(wid, stall_s=1.0)
        task = asyncio.ensure_future(call)
        await asyncio.sleep(0.1)
        assert not task.done()
        os.kill(gw._workers[wid].proc.pid, signal.SIGKILL)
        return await asyncio.wait_for(task, 5.0)

    def test_freeze_raises(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                with pytest.raises(GatewayError, match="worker 0 died"):
                    await self._kill_during(gw, 0, gw.freeze(BurstSpec(width=2)))
                assert gw.frozen_handles() == {}
                # the healed pool freezes and replays again
                fh = await gw.freeze(BurstSpec(width=2))
                assert (await gw.submit(fh)).ok

        _run(main())

    def test_verify_is_vacuous(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                gh = gw.instance(GeneratedSpec(seed=11, num_gpus=1))
                res = await gw.submit(gh)
                assert res.ok
                assert await self._kill_during(gw, gh.wid, gw.verify(gh, res.passes)) == ()
                assert gh.tainted

        _run(main())

    def test_worker_metrics_leaves_the_worker_out(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                assert sorted(await self._kill_during(gw, 0, gw.worker_metrics())) == [1]

        _run(main())

    def test_drain_is_not_ok(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                assert await self._kill_during(gw, 0, gw.drain(timeout=None)) is False

        _run(main())

    def test_send_on_a_closed_pipe_resolves_the_call(self):
        async def main():
            # no heartbeat for 5 s: nothing but the call touches the pipe
            async with Gateway(2, worker=_CONFIG, heartbeat_interval=5.0) as gw:
                gw._workers[0].conn.close()
                with pytest.raises(GatewayError, match="worker 0 died"):
                    await asyncio.wait_for(gw.freeze(BurstSpec(width=2)), 5.0)
                assert gw.snapshot()["gateway.worker_deaths"] == 1

        _run(main())


class TestPipePlumbing:
    def test_full_pipe_never_blocks_the_loop(self):
        """A stalled worker stops reading; the gateway keeps queueing
        Submits past what the socket pair buffers, and its event loop
        stays responsive the whole time."""

        async def main():
            # no heartbeat during the stall: nothing reroutes the work
            async with Gateway(2, worker=_CONFIG, heartbeat_interval=5.0) as gw:
                fh = await gw.freeze(BurstSpec(width=1))
                # a long tenant pads every Submit frame to ~8 KiB and
                # pins them all to one worker (tenant-hash routing)
                tenant = "t" * 8192
                wid = gw._route(tenant).wid
                conn = gw._workers[wid].conn
                with socket.fromfd(conn.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                    buffered = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                    buffered += sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
                gw.inject_chaos(wid, stall_s=1.5)
                await asyncio.sleep(0.1)  # the worker is inside the stall
                loop = asyncio.get_running_loop()
                fired = loop.create_future()
                t0 = time.monotonic()
                loop.call_later(0.05, lambda: fired.set_result(time.monotonic() - t0))
                subs = [
                    gw.submit(fh, tenant=tenant)
                    for _ in range(2 * buffered // len(tenant) + 1)
                ]
                assert await asyncio.wait_for(fired, 5.0) < 0.5
                assert gw._workers[wid].outbuf  # the pipe really is full
                results = await asyncio.wait_for(asyncio.gather(*subs), 60.0)
                assert all(r.ok and r.wid == wid for r in results)
                assert not gw._workers[wid].outbuf

        _run(main())

    def test_gateway_runs_no_reader_thread(self):
        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                assert (await gw.submit(BurstSpec(width=2))).ok
                names = [t.name for t in threading.enumerate()]
                assert not [n for n in names if "-reader" in n], names

        _run(main())


class _RecordingPipe:
    """Stands in for a worker's Connection: records what it sends."""

    def __init__(self) -> None:
        self.sent = []

    def send(self, msg) -> None:
        self.sent.append(msg)


def _submit_threads(wid: int):
    return [t for t in threading.enumerate() if t.name == f"gw{wid}-submit"]


class TestWorkerAdmission:
    @pytest.mark.parametrize("config", [
        WorkerConfig(threads=1, gpus=0),
        WorkerConfig(threads=1, gpus=0, max_topologies=4, policy="reject"),
    ])
    def test_admission_is_inline_without_a_blocking_policy(self, config):
        pipe = _RecordingPipe()
        state = _WorkerState(71, pipe, config)
        try:
            assert _submit_threads(71) == []
            state.handle_submit(m.Submit(rid=1, spec=BurstSpec(width=1)))
            # admitted on the calling (recv) thread before it returned
            assert any(isinstance(x, m.Accepted) and x.rid == 1 for x in pipe.sent)
        finally:
            state.executor.shutdown(wait=True)

    def test_blocking_policy_keeps_the_submit_thread_and_drain_waits(self):
        pipe = _RecordingPipe()
        config = WorkerConfig(threads=1, gpus=0, max_topologies=1, policy="block")
        state = _WorkerState(72, pipe, config)
        try:
            assert len(_submit_threads(72)) == 1
            rids = range(1, 5)
            for rid in rids:
                state.handle_submit(
                    m.Submit(rid=rid, spec=BurstSpec(width=1, sleep_s=0.02))
                )
            state.handle_drain(m.Drain(rid=99, timeout=10.0))
            drained = next(i for i, x in enumerate(pipe.sent) if isinstance(x, m.Drained))
            assert pipe.sent[drained].ok
            settled = {x.rid: x.outcome for x in pipe.sent[:drained] if isinstance(x, m.Settled)}
            # every Submit queued before the Drain was admitted and settled
            assert settled == {rid: "completed" for rid in rids}
        finally:
            state._submit_q.put(None)
            state.executor.shutdown(wait=True)


class TestDrainShutdown:
    def test_drain_under_load_settles_everything(self):
        """Mirror of the in-process drain guarantee: drain() with live
        submissions settles every awaitable, then refuses new work."""

        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                subs = [
                    gw.submit(BurstSpec(width=3, sleep_s=0.1))
                    for _ in range(6)
                ]
                ok = await gw.drain(timeout=30.0)
                assert ok
                assert all(s.done() for s in subs)
                outcomes = {(await s).outcome for s in subs}
                assert outcomes == {"completed"}
                with pytest.raises(GatewayError):
                    gw.submit(BurstSpec(width=1))

        _run(main())

    def test_shutdown_is_idempotent_and_strands_nothing(self):
        async def main():
            gw = Gateway(2, worker=_CONFIG)
            await gw.start()
            subs = [
                gw.submit(BurstSpec(width=2, sleep_s=0.05))
                for _ in range(4)
            ]
            await gw.shutdown(drain_timeout=30.0)
            assert all(s.done() for s in subs)
            await gw.shutdown()  # second call is a no-op
            assert gw._workers_alive() == 0

        _run(main())


class TestCancelAndMetrics:
    def test_cancel_and_exact_metric_counts(self):
        """gateway.* counters track the harness's view exactly, the
        replay.* pattern one tier up (docs/observability.md)."""

        async def main():
            async with Gateway(2, worker=_CONFIG) as gw:
                fh = await gw.freeze(BurstSpec(width=4))
                oks = [gw.submit(fh) for _ in range(5)]
                await asyncio.gather(*(s.future for s in oks))
                # a long multi-pass run leaves passes to cancel
                victim = gw.submit(
                    gw.instance(BurstSpec(width=3, sleep_s=0.2)),
                    repeats=10,
                )
                await asyncio.sleep(0.05)
                assert gw.cancel(victim) is True
                res = await asyncio.wait_for(victim.future, 30.0)
                assert res.outcome == "cancelled"
                # cancelling a settled submission reports False
                assert gw.cancel(oks[0]) is False

                snap = gw.snapshot()
                assert snap["gateway.submits"] == 6
                assert snap["gateway.settled"] == 6
                assert snap["gateway.cancels"] == 1
                assert snap["gateway.worker_deaths"] == 0
                assert snap["gateway.respawns"] == 0
                assert snap["gateway.replans"] == 0
                assert snap["gateway.workers_alive"] == 2
                assert snap["gateway.inflight"] == 0
                hist = snap["gateway.round_trip_seconds"]
                assert hist["count"] == 6
                assert hist["sum"] > 0

        _run(main())


class TestGatewaySoakSmoke:
    def test_tiny_sweep_reconciles(self, verify_run):
        code, doc = verify_run("gateway")
        assert code == 0, doc["violations"]
        assert [s["kind"] for s in doc["scenarios"]] == ["serve", "kill"]
        totals = doc["totals"]
        assert totals["kills"] == 1
        assert totals["failed"] == 0
        settled = sum(
            totals[k]
            for k in (
                "completed",
                "rejected",
                "shed",
                "deadline_exceeded",
                "cancelled",
                "failed",
                "worker_lost",
            )
        )
        assert settled == totals["submitted"]
        assert doc["detail"]["throughput"]["errors"] == 0
        assert doc["cpu_count"] == os.cpu_count()
