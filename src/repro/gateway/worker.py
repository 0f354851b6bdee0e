"""Gateway worker process: one full executor behind a control pipe.

:func:`worker_main` is the ``spawn`` entry point of every gateway
worker.  Each worker hosts a complete :class:`repro.core.Executor` —
its own CPU worker threads, simulated device group, admission
controller, resilience machinery, and metrics registry — so everything
the single-process stack guarantees (PR 4 recovery, PR 5 drain/settle,
PR 6 frozen replay) holds *inside* each worker unchanged; the gateway
composes those guarantees across processes (docs/gateway.md).

The main loop is intentionally tiny: it blocks on ``conn.recv()``,
dispatches one message, and returns to the pipe.  Submissions are
admitted inline, on that loop, in arrival order — except under a
*blocking* admission policy (``block`` at capacity), where they hop to
a dedicated submitter thread so a submission waiting for capacity
never starves the loop and heartbeats keep flowing.  Terminal outcomes
are sent from future done-callbacks, which run on executor threads —
the single shared ``send`` lock keeps the pipe's frame stream intact.

Outcome classification mirrors the in-process soak harness exactly
(``completed``/``rejected``/``shed``/``deadline_exceeded``/
``cancelled``/``failed``), so gateway-level reconciliation can reuse
the same algebra: ``submitted == rejected + admitted`` and
``admitted == sum(settled outcomes)``.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from concurrent.futures import CancelledError, Future
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import AdmissionRejectedError
from repro.gateway import messages as m
from repro.gateway.chaos import ChaosProfile


@dataclass(frozen=True)
class WorkerConfig:
    """Per-worker executor shape, pickled into the spawned process."""

    threads: int = 2
    gpus: int = 1
    gpu_memory_bytes: int = 1 << 22
    max_topologies: Optional[int] = None
    policy: str = "block"
    block_timeout: Optional[float] = 30.0
    seed: int = 0
    #: optional protocol-chaos recipe (docs/gateway.md, "Chaos")
    chaos: Optional[ChaosProfile] = None


class _Inflight:
    """Worker-side record of one outstanding submission."""

    __slots__ = ("future", "deadline", "iid", "repeats", "cancelled", "t0")

    def __init__(self, future: Future, deadline, iid, repeats) -> None:
        self.future = future
        self.deadline = deadline
        self.iid = iid
        self.repeats = repeats
        self.cancelled = False
        self.t0 = time.monotonic()


class _WorkerState:
    """Everything the dispatch loop mutates, bundled for testability."""

    def __init__(self, wid: int, conn, config: WorkerConfig) -> None:
        from repro.core.executor import Executor
        from repro.service.admission import AdmissionController

        self.wid = wid
        self.conn = conn
        self.config = config
        admission = None
        if config.max_topologies is not None:
            admission = AdmissionController(
                max_topologies=config.max_topologies,
                policy=config.policy,
                block_timeout=config.block_timeout,
            )
        self.executor = Executor(
            num_workers=config.threads,
            num_gpus=config.gpus,
            gpu_memory_bytes=config.gpu_memory_bytes,
            seed=config.seed,
            admission=admission,
        )
        self._send_lock = threading.Lock()
        self.chaos = (
            config.chaos.state(wid)
            if config.chaos is not None and config.chaos.active
            else None
        )
        #: iid -> (spec, graph, GeneratedGraph|None, completed passes)
        self.instances: Dict[int, list] = {}
        #: fid -> FrozenTopology
        self.frozen: Dict[int, object] = {}
        self.inflight: Dict[int, _Inflight] = {}
        self._inflight_lock = threading.Lock()
        #: Cancel messages that raced ahead of their Submit's admission
        self._precancelled: set = set()
        # only a blocking admission policy ("block" at capacity) can
        # park a submission; then submissions run on a dedicated thread
        # so the recv loop keeps answering heartbeats meanwhile.  Every
        # other worker admits inline, on the recv loop
        self._submit_q: "Optional[queue.Queue[Optional[m.Submit]]]" = None
        if admission is not None and config.policy == "block":
            self._submit_q = queue.Queue()
            threading.Thread(
                target=self._submit_loop, name=f"gw{wid}-submit", daemon=True
            ).start()

    # -- plumbing ------------------------------------------------------
    def send(self, msg) -> None:
        """Pickle-frame one message onto the pipe (any thread)."""
        with self._send_lock:
            # chaos runs under the lock on purpose: a delay pauses the
            # whole frame stream (reorder-safe), and drops only touch
            # loss-tolerant kinds (Pong/EventMsg — see chaos.DROPPABLE)
            if self.chaos is not None and not self.chaos.allow_send(msg):
                return
            try:
                self.conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                # the gateway went away; nothing useful left to do with
                # this message — the monitor will reap us
                pass

    # -- graph resolution ---------------------------------------------
    def _resolve(self, req: m.Submit):
        """Graph object for a Submit: frozen by fid, else a (possibly
        cached) instance built from the spec."""
        if req.fid is not None:
            frozen = self.frozen.get(req.fid)
            if frozen is None:
                raise KeyError(f"unknown frozen fid {req.fid}")
            return frozen
        assert req.spec is not None
        if req.iid is None:
            graph, _gen = req.spec.build()
            return graph
        entry = self.instances.get(req.iid)
        if entry is None:
            graph, gen = req.spec.build()
            entry = [req.spec, graph, gen, 0]
            self.instances[req.iid] = entry
        return entry[1]

    # -- request handlers ---------------------------------------------
    def handle_submit(self, req: m.Submit) -> None:
        if self._submit_q is None:
            self._submit_one(req)
        else:
            self._submit_q.put(req)

    def _submit_loop(self) -> None:
        while True:
            req = self._submit_q.get()
            try:
                if req is None:
                    return
                self._submit_one(req)
            finally:
                self._submit_q.task_done()

    def _submit_one(self, req: m.Submit) -> None:
        try:
            graph = self._resolve(req)
            fut = self.executor.run_n(
                graph,
                req.repeats,
                priority=req.priority,
                deadline=req.deadline,
            )
        except AdmissionRejectedError as exc:
            self.send(
                m.Settled(
                    rid=req.rid,
                    outcome="rejected",
                    error=repr(exc),
                    reason=exc.reason,
                )
            )
            return
        except BaseException as exc:  # noqa: BLE001 - protocol boundary
            self.send(
                m.Settled(rid=req.rid, outcome="failed", error=repr(exc))
            )
            return
        entry = _Inflight(fut, req.deadline, req.iid, req.repeats)
        with self._inflight_lock:
            self.inflight[req.rid] = entry
            pre = req.rid in self._precancelled
            self._precancelled.discard(req.rid)
            if pre:
                entry.cancelled = True
        self.send(m.Accepted(rid=req.rid, wid=self.wid))
        if pre:
            self.executor.cancel(fut)
        fut.add_done_callback(lambda f, rid=req.rid: self._settle(rid, f))

    def _settle(self, rid: int, fut: Future) -> None:
        """Classify one resolved future and report it (executor thread)."""
        with self._inflight_lock:
            entry = self.inflight.pop(rid, None)
        if entry is None:  # pragma: no cover - double callback guard
            return
        wall = time.monotonic() - entry.t0
        outcome, passes, error, reason = "completed", 0, "", ""
        try:
            passes = fut.result(timeout=0)
        except AdmissionRejectedError as exc:
            outcome, error, reason = "shed", repr(exc), exc.reason
        except CancelledError:
            if entry.cancelled:
                outcome = "cancelled"
            elif entry.deadline is not None:
                outcome = "deadline_exceeded"
            else:
                outcome = "cancelled"
        except BaseException as exc:  # noqa: BLE001 - protocol boundary
            outcome, error = "failed", repr(exc)
        if outcome == "completed" and entry.iid is not None:
            inst = self.instances.get(entry.iid)
            if inst is not None:
                inst[3] += passes
        self.send(
            m.Settled(
                rid=rid,
                outcome=outcome,
                passes=passes,
                error=error,
                reason=reason,
                wall_s=wall,
            )
        )

    def handle_freeze(self, req: m.Freeze) -> None:
        try:
            graph, _gen = req.spec.build()
            self.frozen[req.fid] = graph.freeze()
        except BaseException as exc:  # noqa: BLE001 - protocol boundary
            self.send(
                m.Frozen(rid=req.rid, fid=req.fid, ok=False, error=repr(exc))
            )
            return
        self.send(m.Frozen(rid=req.rid, fid=req.fid, ok=True))

    def handle_cancel(self, req: m.Cancel) -> None:
        with self._inflight_lock:
            entry = self.inflight.get(req.rid)
            if entry is not None:
                entry.cancelled = True
            else:
                # the Submit is still queued (or blocked in admission);
                # remember the cancel and apply it at admission time
                self._precancelled.add(req.rid)
        if entry is not None:
            self.executor.cancel(entry.future)

    def handle_drain(self, req: m.Drain) -> None:
        self.send(m.EventMsg(rid=None, kind="worker_draining", fields={"wid": self.wid}))
        # every Submit the gateway sent before this Drain must reach
        # the executor before admission closes — drain never rejects
        # work the gateway already accepted.  Inline admission already
        # ran each of them, in arrival order; queued ones are awaited
        if self._submit_q is not None:
            self._submit_q.join()
        ok = self.executor.drain(timeout=req.timeout)
        self.send(m.Drained(rid=req.rid, ok=ok))

    def handle_ping(self, req: m.Ping) -> None:
        with self._inflight_lock:
            n = len(self.inflight)
        self.send(m.Pong(seq=req.seq, wid=self.wid, inflight=n))

    def handle_metrics(self, req: m.MetricsPull) -> None:
        snap = dict(self.executor.metrics.snapshot())
        snap["worker.instances"] = len(self.instances)
        snap["worker.frozen"] = len(self.frozen)
        if self.chaos is not None:
            for kind, n in self.chaos.injected.items():
                snap[f"worker.chaos.{kind}"] = n
        self.send(m.MetricsReply(rid=req.rid, wid=self.wid, snapshot=snap))

    def handle_chaos(self, req: m.ChaosInject) -> None:
        """One-shot injected gray failure: wedge the recv loop itself.

        Runs on the recv-loop thread by design — while we sleep or spin
        here, Pings pile up unanswered, which is exactly the signature
        of a stalled-but-alive worker the gateway must detect."""
        if req.stall_s > 0:
            time.sleep(req.stall_s)
        if req.spin_s > 0:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < req.spin_s:
                pass

    def handle_verify(self, req: m.Verify) -> None:
        entry = self.instances.get(req.iid)
        if entry is None:
            violations = (f"verify: unknown instance {req.iid}",)
        elif entry[2] is None:
            violations = ()  # no oracle for this spec kind
        elif entry[3] != req.passes:
            violations = (
                f"verify: instance {req.iid} completed {entry[3]} "
                f"pass(es) worker-side, gateway expected {req.passes}",
            )
        else:
            violations = tuple(entry[2].verify(passes=req.passes))
        self.send(m.Verified(rid=req.rid, iid=req.iid, violations=violations))


def worker_main(wid: int, conn, config: WorkerConfig) -> None:
    """Process entry point: serve the control pipe until Shutdown/EOF."""
    # The gateway owns this process's lifecycle through the protocol
    # (Shutdown / pipe EOF).  Operator signals — a SIGTERM to the
    # process group from systemd, a terminal Ctrl-C — must reach the
    # *gateway*, which drains gracefully and flushes its journal; a
    # worker that died to the same signal would turn every graceful
    # drain into a worker_lost storm.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    state = _WorkerState(wid, conn, config)
    state.send(m.Ready(wid=wid, pid=os.getpid()))
    handlers = {
        m.Submit: state.handle_submit,
        m.Freeze: state.handle_freeze,
        m.Cancel: state.handle_cancel,
        m.Drain: state.handle_drain,
        m.Ping: state.handle_ping,
        m.MetricsPull: state.handle_metrics,
        m.Verify: state.handle_verify,
        m.ChaosInject: state.handle_chaos,
    }
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                # the gateway died or closed the pipe: settle what we
                # can locally and exit
                break
            if isinstance(msg, m.Shutdown):
                break
            if state.chaos is not None:
                state.chaos.before_handle(msg)
            handler = handlers.get(type(msg))
            if handler is not None:
                handler(msg)
    finally:
        if state._submit_q is not None:
            state._submit_q.put(None)
        # wait=False never strands a future; anything unresolved
        # resolves with CancelledError before teardown returns
        state.executor.shutdown(wait=False)
        try:
            conn.close()
        except OSError:  # pragma: no cover - already gone
            pass


__all__ = ["WorkerConfig", "worker_main"]
