"""Asyncio multiprocess gateway: submission front-end + worker pool.

The tier above the single-process service layer (docs/gateway.md).  A
:class:`Gateway` owns N **spawned worker processes** — each hosting a
full :class:`repro.core.Executor` with its own simulated device group,
admission controller, and metrics registry — and multiplexes an
asyncio submission API over a pickle-framed pipe per worker:

- :meth:`Gateway.submit` routes a :class:`~repro.gateway.spec.WorkSpec`
  (or a pinned instance / frozen handle) to a worker and returns an
  awaitable :class:`Submission` whose ``async for`` side streams
  structured progress events;
- :meth:`Gateway.freeze` ships a spec to every worker once; later
  submissions replay by ``fid``, so the compiled-plan fast path
  survives the process boundary;
- a **monitor task** heartbeats every worker, respawns dead or silent
  ones into the same slot and replays their in-flight work once; a
  worker that is alive but stalled is ejected from routing by its
  circuit breaker instead, and ``hedge_after=`` races a duplicate of a
  slow frozen submission on another worker (docs/gateway.md, "Failure
  handling" and "Gray failures");
- with a **durable journal** attached, every acceptance is written
  before the client sees the Submission, and the settlement's fsync
  makes both durable before the Result resolves;
  :meth:`Gateway.recover` replays the log after a gateway crash
  (docs/durability.md).

All routing state lives in two tables (docs/gateway.md, "Legs and
control calls").  The **leg table** maps each worker-side run of a
submission — its primary, a reroute, a hedge, a death replay — to the
submission and the worker running it; the first leg to settle wins and
the rest are cancelled.  The **control-call table** holds each pending
Freeze / Verify / MetricsPull / Drain with the worker it waits on, so a
worker death resolves every call waiting on it.

The architecture follows vLLM's multiprocess executor and StarPU's
driver-per-device worker model: an asyncio front-end that fans control
messages out to per-device worker processes.  Every worker pipe is
read and written on the event loop itself (``add_reader`` /
``add_writer``), so a completion reaches its future without a thread
hop and a full pipe never blocks the loop.  The ``gateway.*`` metrics
are cataloged in docs/observability.md.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Dict, Iterable, List, Optional, Tuple, Union

from repro.durability.journal import Journal, JournalEntry
from repro.errors import GatewayError, JournalError, WorkerDiedError
from repro.gateway import messages as m
from repro.gateway.health import WorkerHealth
from repro.gateway.spec import WorkSpec
from repro.gateway.worker import WorkerConfig, worker_main
from repro.metrics.registry import MetricsRegistry
from repro.resilience import CircuitBreaker, RetryBudget

#: how long Gateway.start waits for every worker's Ready
_READY_TIMEOUT = 60.0
#: default grace period after drain for straggler Settled messages
_DRAIN_GRACE = 5.0
#: default missed-heartbeat budget before a silent worker is declared
#: dead (the *death* budget; the stall window is much smaller)
_HEARTBEAT_MISSES = 20
#: default missed-heartbeat budget before a worker is considered
#: *stalled* (alive but wedged) — must be < the death budget
_STALL_MISSES = 4
#: multiprocessing.Connection's frame header, the payload length.  Its
#: form for payloads over 2 GiB (-1, then a 64-bit length) never occurs
#: here: a control message is at most a few KiB
_LEN = struct.Struct("!i")
#: most bytes one readable callback reads from a worker pipe
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class Result:
    """Terminal outcome of one gateway submission.

    Every submission settles with exactly one Result — the gateway
    never strands an awaitable.  ``outcome`` is one of
    :data:`repro.gateway.messages.OUTCOMES`; ``ok`` is sugar for
    ``outcome == "completed"``.
    """

    outcome: str
    passes: int = 0
    error: str = ""
    reason: str = ""
    wall_s: float = 0.0
    wid: int = -1
    replans: int = 0

    @property
    def ok(self) -> bool:
        return self.outcome == "completed"


class Submission:
    """Awaitable handle for one gateway submission.

    ``await sub`` yields the :class:`Result`; ``async for ev in
    sub.events()`` streams structured progress dicts (``submitted``,
    ``accepted``, ``replanned``, ``rerouted``, ``hedged``,
    ``settled``) and terminates once the submission settles.

    One submission may fan out into several worker-side **legs**
    (reroutes off a breaker-opened worker, hedges): each leg has its
    own rid in the gateway's leg table, and exactly one leg's Settled
    becomes the Result — the rest are cancelled and their settles
    dropped.
    """

    def __init__(
        self, rid: int, wid: int, tenant: str, request: Optional[m.Submit], loop
    ) -> None:
        self.rid = rid
        self.wid = wid
        self.tenant = tenant
        self.request = request
        self.replans = 0
        self.cancel_requested = False
        #: durable journal id (0 = unjournaled) and the client's key
        self.jid = 0
        self.idempotency_key = ""
        #: set once the settlement has been journaled (exactly once)
        self.journal_settled = False
        self.t0 = time.monotonic()
        self.future: asyncio.Future = loop.create_future()
        self._events: asyncio.Queue = asyncio.Queue()

    def __await__(self):
        return self.future.__await__()

    def done(self) -> bool:
        return self.future.done()

    async def events(self) -> AsyncIterator[dict]:
        """Async iterator over this submission's progress events."""
        while True:
            ev = await self._events.get()
            if ev is None:
                return
            yield ev

    def _push(self, kind: str, **fields) -> None:
        ev = {"kind": kind, "rid": self.rid}
        ev.update(fields)
        self._events.put_nowait(ev)

    def _close_events(self) -> None:
        self._events.put_nowait(None)


@dataclass
class GraphHandle:
    """A spec pinned to one worker slot: repeated submissions reuse the
    worker-local graph instance (join counters and spans live there).
    A worker death re-materializes the instance on the replacement and
    marks the handle *tainted* — oracle verification across the death
    would be meaningless."""

    iid: int
    spec: WorkSpec
    wid: int
    tainted: bool = False


@dataclass(frozen=True)
class FrozenHandle:
    """A spec frozen on every worker under one gateway-wide ``fid``."""

    fid: int
    spec: WorkSpec


@dataclass
class RecoveryReport:
    """What :meth:`Gateway.recover` replayed out of the journal.

    ``submissions`` holds the live handles for the resubmitted entries
    (awaitable like any other Submission); ``not_replayable`` counts
    pinned-instance entries settled ``worker_lost`` /
    ``reason="not_replayable"`` — their worker-local graph state died
    with the old process, so re-running them would be a lie."""

    frozen_reshipped: int = 0
    resubmitted: int = 0
    not_replayable: int = 0
    jids: List[int] = field(default_factory=list)
    submissions: List[Submission] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "frozen_reshipped": self.frozen_reshipped,
            "resubmitted": self.resubmitted,
            "not_replayable": self.not_replayable,
            "jids": list(self.jids),
        }


class _Leg:
    """One worker-side run of a submission: the primary, a reroute, a
    hedge or a death replay.  *suppressed* marks a leg rerouted away,
    whose own ``cancelled`` settle is dropped."""

    __slots__ = ("sub", "worker", "hedge", "suppressed")

    def __init__(self, sub: Submission, worker: "_WorkerHandle", hedge: bool) -> None:
        self.sub = sub
        self.worker = worker
        self.hedge = hedge
        self.suppressed = False


class _WorkerHandle:
    """Gateway-side state for one worker slot occupant."""

    __slots__ = (
        "wid", "proc", "conn", "fd", "inbuf", "outbuf",
        "ready", "ready_event", "dead", "last_pong", "pings",
    )

    def __init__(self, wid: int, proc, conn) -> None:
        self.wid = wid
        self.proc = proc
        self.conn = conn
        #: the pipe's descriptor, kept past conn.close() so the loop
        #: can stop watching it; non-blocking, read and written on the
        #: event loop only
        self.fd = conn.fileno()
        os.set_blocking(self.fd, False)
        #: bytes read but not yet a whole frame / framed but not yet sent
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.ready = False
        self.ready_event = asyncio.Event()
        self.dead = False
        self.last_pong = time.monotonic()
        #: ping seq -> send timestamp (round-trip measurement)
        self.pings: Dict[int, float] = {}


class Gateway:
    """Asyncio front-end over a pool of executor worker processes."""

    def __init__(
        self,
        num_workers: int = 2,
        *,
        worker: Optional[WorkerConfig] = None,
        heartbeat_interval: float = 0.25,
        max_replans: int = 1,
        heartbeat_misses: int = _HEARTBEAT_MISSES,
        stall_misses: int = _STALL_MISSES,
        drain_grace: float = _DRAIN_GRACE,
        retry_budget: Optional[RetryBudget] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
        breaker_probe_successes: int = 2,
        journal: Optional[Union[str, Journal]] = None,
        seed: int = 0,
        name: str = "gateway",
    ) -> None:
        if num_workers < 1:
            raise GatewayError("gateway needs at least one worker")
        if heartbeat_misses < 1:
            raise GatewayError("gateway needs heartbeat_misses >= 1")
        if not 0 < stall_misses < heartbeat_misses:
            raise GatewayError(
                "gateway needs 0 < stall_misses < heartbeat_misses "
                "(a stall must be detectable before death)"
            )
        if drain_grace < 0:
            raise GatewayError("gateway needs drain_grace >= 0")
        self.name = name
        self.num_workers = num_workers
        self.worker_config = worker or WorkerConfig()
        self.heartbeat_interval = heartbeat_interval
        self.max_replans = max_replans
        self.heartbeat_misses = heartbeat_misses
        self.stall_misses = stall_misses
        self.drain_grace = drain_grace
        self.seed = seed
        self._stall_after_s = stall_misses * heartbeat_interval
        self._retry_budget = retry_budget or RetryBudget()
        self._ctx = multiprocessing.get_context("spawn")
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: List[Optional[_WorkerHandle]] = [None] * num_workers
        self._health: List[WorkerHealth] = [
            self._new_health(wid) for wid in range(num_workers)
        ]
        # breakers persist across respawns (reset(), not replaced):
        # the *slot* carries the trip history, not the process
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                probe_successes=breaker_probe_successes,
                seed=seed,
                name=f"{name}-w{wid}",
            )
            for wid in range(num_workers)
        ]
        #: the leg table, rid -> _Leg: written by _launch_leg and
        #: _retire_leg only
        self._legs: Dict[int, _Leg] = {}
        #: pending control calls, rid -> (worker, reply future): written
        #: by _rpc only, resolved by replies and by _worker_died
        self._calls: Dict[int, Tuple[_WorkerHandle, asyncio.Future]] = {}
        self._frozen: Dict[int, WorkSpec] = {}
        self._instances: Dict[int, GraphHandle] = {}
        #: durable journal (opened in start()); jid -> live Submission
        self._journal_src = journal
        self.journal: Optional[Journal] = None
        self._jid_subs: Dict[int, Submission] = {}
        self._rids = itertools.count(1)
        self._fids = itertools.count(1)
        self._iids = itertools.count(1)
        self._rr = itertools.count()
        self._ping_seq = itertools.count(1)
        self._draining = False
        self._closing = False
        self._started = False
        self._monitor_task: Optional[asyncio.Task] = None

        # gateway.* metrics (docs/observability.md, "Gateway counters")
        self.metrics = MetricsRegistry()
        self._m_submits = self.metrics.counter("gateway.submits")
        self._m_cancels = self.metrics.counter("gateway.cancels")
        self._m_settled = self.metrics.counter("gateway.settled")
        self._m_deaths = self.metrics.counter("gateway.worker_deaths")
        self._m_respawns = self.metrics.counter("gateway.respawns")
        self._m_replans = self.metrics.counter("gateway.replans")
        self._m_rt = self.metrics.histogram("gateway.round_trip_seconds")
        self._m_stalls = self.metrics.counter("gateway.health.stalls")
        self._m_health_score = self.metrics.histogram("gateway.health.score")
        self._m_breaker_opened = self.metrics.counter("gateway.breaker.opened")
        self._m_breaker_closed = self.metrics.counter("gateway.breaker.closed")
        self._m_rerouted = self.metrics.counter("gateway.breaker.rerouted")
        self._m_hedge_launched = self.metrics.counter("gateway.hedge.launched")
        self._m_hedge_wins = self.metrics.counter("gateway.hedge.wins")
        self._m_hedge_losses = self.metrics.counter("gateway.hedge.losses")
        self._m_hedge_dropped = self.metrics.counter("gateway.hedge.dropped")
        self._m_hedge_no_target = self.metrics.counter("gateway.hedge.no_target")
        self._m_budget_spent = self.metrics.counter("gateway.retry_budget.spent")
        self._m_budget_exhausted = self.metrics.counter("gateway.retry_budget.exhausted")
        self._m_dedup = self.metrics.counter("journal.dedup_hits")
        self._m_recover_frozen = self.metrics.counter("gateway.recover.frozen_reshipped")
        self._m_recover_resubmitted = self.metrics.counter("gateway.recover.resubmitted")
        self._m_recover_not_replayable = self.metrics.counter("gateway.recover.not_replayable")
        self.metrics.register_callback("gateway.workers_alive", self._workers_alive)
        self.metrics.register_callback("gateway.inflight", lambda: len(self._live_subs()))
        self.metrics.register_callback(
            "gateway.health.stalled",
            lambda: sum(1 for h in self._health if h.state == "stalled"),
        )
        self.metrics.register_callback(
            "gateway.breaker.open",
            lambda: sum(1 for b in self._breakers if not b.routable),
        )
        self.metrics.register_callback(
            "gateway.retry_budget.tokens", lambda: self._retry_budget.tokens
        )

    def _new_health(self, wid: int) -> WorkerHealth:
        return WorkerHealth(wid, stall_after_s=self._stall_after_s)

    # -- lifecycle -----------------------------------------------------
    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.shutdown()

    async def start(self) -> None:
        """Spawn the worker pool and wait for every Ready."""
        if self._started:
            raise GatewayError("gateway already started")
        self._started = True
        self._loop = asyncio.get_running_loop()
        # open the journal before any worker spawns: a corrupt or
        # unwritable log must fail the start, not strand a half-pool
        if self._journal_src is not None and self.journal is None:
            if isinstance(self._journal_src, Journal):
                self.journal = self._journal_src
            else:
                self.journal = Journal(
                    str(self._journal_src), metrics=self.metrics
                )
            self.journal.open()
            # journaled fids survive the restart; new freezes must not
            # collide with them
            self._fids = itertools.count(self.journal.next_fid)
        for wid in range(self.num_workers):
            self._workers[wid] = self._spawn(wid)
        await self._wait_ready()
        self._monitor_task = asyncio.create_task(
            self._monitor(), name=f"{self.name}-monitor"
        )

    def _spawn(self, wid: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=worker_main,
            args=(wid, child_conn, self.worker_config),
            name=f"{self.name}-worker{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        handle = _WorkerHandle(wid, proc, parent_conn)
        self._loop.add_reader(handle.fd, self._on_readable, handle)
        return handle

    async def _wait_ready(self) -> None:
        waits = [
            h.ready_event.wait() for h in self._workers if h is not None
        ]
        try:
            await asyncio.wait_for(asyncio.gather(*waits), _READY_TIMEOUT)
        except asyncio.TimeoutError:
            raise GatewayError(
                "gateway workers did not come up within "
                f"{_READY_TIMEOUT:.0f}s"
            ) from None

    def _live_handles(self) -> List[_WorkerHandle]:
        return [h for h in self._workers if h is not None and not h.dead]

    def _workers_alive(self) -> int:
        return sum(1 for h in self._live_handles() if h.proc.is_alive())

    # -- pipe plumbing -------------------------------------------------
    # The worker side speaks multiprocessing.Connection (send / recv);
    # the gateway side reads and writes the same length-prefixed pickle
    # frames itself, without blocking, on the event loop.  Neither side
    # can wedge the other: the loop never blocks in a send, and it
    # reads whenever the worker writes.
    def _on_readable(self, handle: _WorkerHandle) -> None:
        """Read what the pipe holds and dispatch every whole frame."""
        try:
            chunk = os.read(handle.fd, _READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:  # EOF: the worker exited or closed its end
            if self._closing:
                self._loop.remove_reader(handle.fd)
            else:
                self._worker_died(handle, "pipe")
            return
        buf = handle.inbuf
        buf += chunk
        pos, end = 0, len(buf)
        while not handle.dead and end - pos >= _LEN.size:
            (size,) = _LEN.unpack_from(buf, pos)
            start = pos + _LEN.size
            if end - start < size:
                break
            pos = start + size
            self._on_message(handle, pickle.loads(buf[start:pos]))
        del buf[:pos]

    def _send(self, handle: _WorkerHandle, msg) -> None:
        """Frame *msg* onto *handle*'s pipe without blocking: what the
        pipe cannot take now waits in the handle's outbound buffer,
        which an ``add_writer`` callback flushes in order."""
        if handle.dead:
            return
        payload = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        frame = _LEN.pack(len(payload)) + payload
        if handle.outbuf:  # earlier frames still queued: keep FIFO
            handle.outbuf += frame
            return
        try:
            sent = os.write(handle.fd, frame)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._worker_died(handle, "pipe")
            return
        if sent < len(frame):
            handle.outbuf += frame[sent:]
            self._loop.add_writer(handle.fd, self._on_writable, handle)

    def _on_writable(self, handle: _WorkerHandle) -> None:
        try:
            sent = os.write(handle.fd, handle.outbuf)
        except BlockingIOError:
            return
        except OSError:
            self._worker_died(handle, "pipe")
            return
        del handle.outbuf[:sent]
        if not handle.outbuf:
            self._loop.remove_writer(handle.fd)

    def _close_pipe(self, handle: _WorkerHandle) -> None:
        """Stop watching *handle*'s pipe, then close it (in that order:
        a closed descriptor's number is reused by the next pipe)."""
        self._loop.remove_reader(handle.fd)
        self._loop.remove_writer(handle.fd)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass

    async def _rpc(self, handle: _WorkerHandle, kind, **fields):
        """Send one control request (``kind(rid=..., **fields)``) and
        await its reply; None when the worker dies first.  The call is
        registered before the send, so a send that kills the worker
        still resolves it."""
        rid = next(self._rids)
        fut = self._loop.create_future()
        self._calls[rid] = (handle, fut)
        try:
            self._send(handle, kind(rid=rid, **fields))
            return await fut
        finally:
            del self._calls[rid]

    def _on_message(self, handle: _WorkerHandle, msg) -> None:
        if isinstance(msg, m.Settled):
            self._on_settled(handle, msg)
        elif isinstance(msg, m.Accepted):
            leg = self._legs.get(msg.rid)
            if leg is not None:
                leg.sub._push("accepted", wid=msg.wid)
        elif isinstance(msg, m.Pong):
            self._on_pong(handle, msg)
        elif isinstance(msg, m.Ready):
            if msg.protocol != m.PROTOCOL_VERSION:  # pragma: no cover
                self._worker_died(handle, "protocol")
                return
            handle.ready = True
            handle.ready_event.set()
        elif isinstance(msg, (m.Frozen, m.Drained, m.MetricsReply, m.Verified)):
            call = self._calls.get(msg.rid)
            if call is not None and not call[1].done():
                call[1].set_result(msg)
        elif isinstance(msg, m.EventMsg):
            leg = self._legs.get(msg.rid)
            if leg is not None:
                leg.sub._push(msg.kind, **msg.fields)

    def _on_pong(self, handle: _WorkerHandle, msg: m.Pong) -> None:
        now = time.monotonic()
        handle.last_pong = now
        sent = handle.pings.pop(msg.seq, None)
        # earlier pings were either answered already or dropped by
        # chaos; the pipe is FIFO, so nothing older can still arrive
        for seq in [s for s in handle.pings if s < msg.seq]:
            handle.pings.pop(seq, None)
        health = self._health[handle.wid]
        if sent is not None:
            health.on_pong(now - sent, now)
        else:  # dropped-ping echo raced a respawn; freshness only
            health.last_pong = now
        # a pong clears the stall flag; the breaker gates re-admission
        health.mark_stalled(False)
        self._breaker_success(handle, now)

    # -- breaker transitions -------------------------------------------
    def _breaker_success(self, handle: _WorkerHandle, now: float) -> None:
        b = self._breakers[handle.wid]
        closed_before = b.closed_total
        b.record_success(now)
        if b.closed_total != closed_before:
            # half-open probes passed: the slot is routable again
            self._m_breaker_closed.inc()

    def _breaker_failure(self, handle: _WorkerHandle, now: float) -> None:
        b = self._breakers[handle.wid]
        opened_before = b.opened_total
        b.record_failure(now)
        if b.opened_total != opened_before:
            self._on_breaker_open(handle)

    def _on_breaker_open(self, handle: _WorkerHandle) -> None:
        """The slot's breaker tripped: it leaves the routing set (the
        worker stays alive — its in-flight work may still settle) and
        its reroutable legs move to healthy workers, budget allowing."""
        self._m_breaker_opened.inc()
        if self._closing or self._draining:
            return
        for rid in self._worker_legs(handle):
            leg = self._legs.get(rid)
            if (
                leg is None
                or leg.sub.future.done()
                or leg.sub.cancel_requested
                or len(self._legs_of(leg.sub)) > 1  # already redundant
                or leg.sub.request.iid is not None  # pinned to this worker
            ):
                continue
            self._reroute_leg(leg.sub, rid, handle)

    def _reroute_leg(self, sub: Submission, old_rid: int, old_handle: _WorkerHandle) -> None:
        """Duplicate one leg onto the healthiest other worker and
        suppress the old leg's eventual cancel-settle.  The old leg is
        *not* force-settled: if the sick worker finishes first anyway,
        first-settle-wins still yields exactly one Result."""
        target = self._healthiest(exclude={old_handle.wid})
        if target is None:
            return
        if not self._retry_budget.try_spend():
            self._m_budget_exhausted.inc()
            return
        self._m_budget_spent.inc()
        self._m_rerouted.inc()
        sub._push("rerouted", from_wid=old_handle.wid, to_wid=target.wid)
        self._launch_leg(sub, target, next(self._rids), supersedes=old_rid)
        self._send(old_handle, m.Cancel(rid=old_rid))

    # -- the leg table -------------------------------------------------
    def _launch_leg(
        self,
        sub: Submission,
        handle: _WorkerHandle,
        rid: int,
        *,
        hedge: bool = False,
        supersedes: Optional[int] = None,
    ) -> None:
        """Enter leg *rid* of *sub* in the leg table and send its Submit
        to *handle*.  *supersedes* names the leg this one reroutes away
        from: its eventual ``cancelled`` settle is suppressed."""
        if supersedes is not None:
            self._legs[supersedes].suppressed = True
        self._legs[rid] = _Leg(sub, handle, hedge)
        request = sub.request
        self._send(handle, request if request.rid == rid else replace(request, rid=rid))

    def _retire_leg(self, rid: int) -> None:
        """Remove leg *rid* from the leg table (a no-op once gone)."""
        self._legs.pop(rid, None)

    def _legs_of(self, sub: Submission) -> List[Tuple[int, _Leg]]:
        return [(rid, leg) for rid, leg in self._legs.items() if leg.sub is sub]

    def _worker_legs(self, handle: _WorkerHandle) -> List[int]:
        return sorted(rid for rid, leg in self._legs.items() if leg.worker is handle)

    def _live_subs(self) -> List[Submission]:
        """Every unsettled submission, once each (a sub may own several legs)."""
        return list({id(leg.sub): leg.sub for leg in self._legs.values()}.values())

    # -- settlement ----------------------------------------------------
    def _drop_legs(self, sub: Submission, winner_rid: Optional[int]) -> None:
        """Retire every leg of *sub*; cancel the losers on their (live)
        workers and account hedge wins and losses.  Every leg leaves the
        table before any Cancel is sent: a send that finds its worker
        dead must not replay or settle a leg of this submission."""
        legs = self._legs_of(sub)
        for rid, _leg in legs:
            self._retire_leg(rid)
        for rid, leg in legs:
            if rid == winner_rid:
                if leg.hedge:
                    self._m_hedge_wins.inc()
                continue
            if not leg.worker.dead and not self._closing:
                self._send(leg.worker, m.Cancel(rid=rid))
            if leg.hedge:
                self._m_hedge_losses.inc()

    def _on_settled(self, handle: _WorkerHandle, msg: m.Settled) -> None:
        leg = self._legs.get(msg.rid)
        if leg is None:
            return
        sub = leg.sub
        if sub.future.done():  # stale leg of an already-settled sub
            self._retire_leg(msg.rid)
            return
        self._health[handle.wid].on_settle(msg.wall_s)
        if (
            leg.suppressed
            and msg.outcome == "cancelled"
            and not sub.cancel_requested
            and len(self._legs_of(sub)) > 1
        ):
            # a rerouted-away leg acknowledging its gateway-issued
            # Cancel: drop it silently — the live leg will settle
            self._retire_leg(msg.rid)
            return
        # first Settled wins; every other leg is cancelled and its
        # settle dropped — the caller observes exactly one Result
        result = Result(
            outcome=msg.outcome, passes=msg.passes, error=msg.error, reason=msg.reason,
            wall_s=msg.wall_s, wid=handle.wid, replans=sub.replans,
        )
        self._settle(sub, result, winner_rid=msg.rid)

    def _force_settle(self, sub: Submission, outcome: str, error: str, reason: str = "") -> None:
        """Settle a submission gateway-side (worker loss, shutdown)."""
        result = Result(
            outcome=outcome, error=error, reason=reason, wall_s=time.monotonic() - sub.t0,
            wid=sub.wid, replans=sub.replans,
        )
        self._settle(sub, result)

    def _settle(
        self,
        sub: Submission,
        result: Result,
        *,
        winner_rid: Optional[int] = None,
        replayed: bool = False,
    ) -> None:
        """The one settle tail: retire *sub*'s legs, count, journal the
        settlement *before* the client's Result resolves (an outcome the
        client observed is never re-run after a crash), and resolve.
        A *replayed* settlement is the journal's own: nothing to retire,
        count or journal."""
        event = {"outcome": result.outcome, "wid": result.wid}
        if replayed:
            event["replayed"] = True
        else:
            self._drop_legs(sub, winner_rid)
            if sub.future.done():
                return
            self._m_settled.inc()
            self._m_rt.observe(time.monotonic() - sub.t0)
            if result.outcome == "completed":
                self._retry_budget.record_success()
            self._journal_settle(sub, result)
        sub._push("settled", **event)
        sub._close_events()
        sub.future.set_result(result)

    def _journal_settle(self, sub: Submission, result: Result) -> None:
        """Journal *sub*'s terminal outcome exactly once.

        A journal write failure here is counted (``journal.errors``)
        and swallowed: the settlement already happened worker-side, so
        blocking the client would strand a completed awaitable.  The
        degradation is honest — a crash before the next successful
        append replays the entry at-least-once, and since this append's
        fsync is the one that makes the acceptance durable, a power cut
        may lose the acceptance as well (docs/durability.md,
        "Exactly-once matrix")."""
        if self.journal is None or not sub.jid or sub.journal_settled:
            return
        sub.journal_settled = True
        self._jid_subs.pop(sub.jid, None)
        try:
            self.journal.append_settled(
                sub.jid,
                outcome=result.outcome,
                passes=result.passes,
                error=result.error,
                reason=result.reason,
                wall_s=result.wall_s,
                replans=result.replans,
                wid=result.wid,
            )
        except JournalError:
            pass

    # -- worker failure handling (docs/gateway.md) ---------------------
    def _worker_died(self, handle: _WorkerHandle, reason: str) -> None:
        """Reap one dead/silent worker: resolve its pending control
        calls, respawn a replacement into the slot, replay its in-flight
        legs once (budget allowing), settle the rest with structured
        ``worker_lost`` results."""
        if handle.dead:
            return
        handle.dead = True
        self._m_deaths.inc()
        self._health[handle.wid].mark_dead()
        self._close_pipe(handle)
        if handle.proc.is_alive():
            # workers ignore SIGTERM (operator signals): a silent or
            # cut-off worker left running would never exit
            handle.proc.kill()
        for h, fut in self._calls.values():
            if h is handle and not fut.done():
                fut.set_result(None)
        casualties = self._worker_legs(handle)

        replacement: Optional[_WorkerHandle] = None
        if not self._closing:
            replacement = self._spawn(handle.wid)
            self._workers[handle.wid] = replacement
            self._m_respawns.inc()
            # a fresh process gets a clean health history and a
            # force-closed breaker — the slot's sickness died with it
            self._health[handle.wid] = self._new_health(handle.wid)
            self._breakers[handle.wid].reset()
            # frozen topologies ship to the replacement before any
            # replayed submission (pipe FIFO preserves the order)
            for fid, spec in self._frozen.items():
                self._send(
                    replacement, m.Freeze(rid=next(self._rids), fid=fid, spec=spec)
                )
            # worker-local graph instances died with the process: the
            # replacement rebuilds them on first use, but their oracle
            # state is gone — taint them for verification purposes
            for gh in self._instances.values():
                if gh.wid == handle.wid:
                    gh.tainted = True

        for rid in casualties:
            leg = self._legs.get(rid)
            if leg is None:  # retired meanwhile with its submission
                continue
            sub = leg.sub
            if sub.future.done():
                self._retire_leg(rid)
                continue
            # a redundant leg (hedge or reroute twin) died with the
            # worker while a sibling is still live: drop just the leg
            if any(not other.worker.dead for _rid, other in self._legs_of(sub)):
                self._retire_leg(rid)
                if leg.hedge:
                    self._m_hedge_dropped.inc()
                continue
            exc = WorkerDiedError(handle.wid, reason)
            if (
                replacement is None
                or sub.cancel_requested
                or sub.replans >= self.max_replans
            ):
                self._force_settle(
                    sub,
                    outcome="cancelled" if sub.cancel_requested else "worker_lost",
                    error=repr(exc),
                    reason=reason,
                )
                continue
            if not self._retry_budget.try_spend():
                # over budget: fail fast with a structured reason
                # instead of amplifying a correlated failure
                self._m_budget_exhausted.inc()
                self._force_settle(
                    sub,
                    outcome="worker_lost",
                    error=repr(exc),
                    reason="retry_budget",
                )
                continue
            self._m_budget_spent.inc()
            # the resilience replan path, one tier up: re-materialize
            # the idempotent spec on the replacement and resubmit
            sub.replans += 1
            self._m_replans.inc()
            sub._push("replanned", wid=handle.wid, reason=reason)
            self._launch_leg(sub, replacement, rid, hedge=leg.hedge)

    async def _monitor(self) -> None:
        """Heartbeat every worker; reap the dead and the silent, mark
        the stalled, and feed the per-slot breakers."""
        while not self._closing:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for handle in list(self._workers):
                if handle is None or handle.dead:
                    continue
                if not handle.proc.is_alive():
                    self._worker_died(handle, "exited")
                    continue
                # a draining worker legitimately blocks in drain();
                # only liveness (is_alive) applies then
                if not self._draining:
                    silence = now - handle.last_pong
                    if silence > self.heartbeat_misses * self.heartbeat_interval:
                        self._worker_died(handle, "heartbeat")
                        continue
                    health = self._health[handle.wid]
                    stalled = silence > self._stall_after_s
                    if health.mark_stalled(stalled) and stalled:
                        self._m_stalls.inc()
                    if stalled:
                        # each stalled tick is one breaker failure;
                        # threshold consecutive ticks trip it open
                        self._breaker_failure(handle, now)
                    self._m_health_score.observe(health.score(now))
                # pings flow unconditionally — against an open breaker
                # they are exactly the half-open probes that re-admit
                seq = next(self._ping_seq)
                handle.pings[seq] = now
                if len(handle.pings) > 4 * self.heartbeat_misses:
                    for s in sorted(handle.pings)[: -2 * self.heartbeat_misses]:
                        handle.pings.pop(s, None)
                self._send(handle, m.Ping(seq=seq))

    # -- routing -------------------------------------------------------
    def _slot(self, wid: int) -> _WorkerHandle:
        handle = self._workers[wid]
        if handle is None:  # pragma: no cover - slots filled at start
            raise GatewayError(f"worker slot {wid} is empty")
        return handle

    def _routable(self, wid: int) -> bool:
        h = self._workers[wid]
        return h is not None and not h.dead and self._breakers[wid].routable

    def _route(self, tenant: str) -> _WorkerHandle:
        if tenant:
            base = zlib.crc32(tenant.encode()) % self.num_workers
        else:
            base = next(self._rr) % self.num_workers
        # walk forward from the affinity slot past breaker-opened /
        # dead workers; if every slot is sick, keep the deterministic
        # affinity choice (routing must never fail outright)
        for k in range(self.num_workers):
            wid = (base + k) % self.num_workers
            if self._routable(wid):
                return self._slot(wid)
        return self._slot(base)

    def _healthiest(
        self, exclude: Iterable[int] = ()
    ) -> Optional[_WorkerHandle]:
        """The routable worker with the best health score, or None."""
        skip = set(exclude)
        now = time.monotonic()
        best: Optional[_WorkerHandle] = None
        best_score = -1.0
        for wid in range(self.num_workers):
            if wid in skip or not self._routable(wid):
                continue
            s = self._health[wid].score(now)
            if s > best_score:
                best, best_score = self._workers[wid], s
        return best

    # -- public API ----------------------------------------------------
    def instance(self, spec: WorkSpec, *, tenant: str = "") -> GraphHandle:
        """Pin *spec* to one worker: repeated submissions of the handle
        share the worker-local graph (the stacking/verification shape
        of the soak harness)."""
        self._check_open()
        handle = self._route(tenant)
        gh = GraphHandle(iid=next(self._iids), spec=spec, wid=handle.wid)
        self._instances[gh.iid] = gh
        return gh

    async def freeze(self, spec: WorkSpec) -> FrozenHandle:
        """Freeze *spec* on every worker; returns the replay handle.
        Raises :class:`GatewayError` when a worker fails the freeze or
        dies before acknowledging it."""
        self._check_open()
        fid = next(self._fids)
        await self._freeze_everywhere(fid, spec, "freeze")
        # journal the fid so a recovering gateway can re-ship it and
        # replay journaled fid-submissions against the same handle
        if self.journal is not None and fid not in self.journal.frozen_specs:
            self.journal.append_frozen(fid, spec)
        return FrozenHandle(fid=fid, spec=spec)

    async def _freeze_everywhere(self, fid: int, spec: WorkSpec, what: str) -> None:
        """Ship ``Freeze(fid, spec)`` to every live worker and wait for
        every ack; *fid* is live only once all of them succeeded."""
        handles = self._live_handles()
        replies = await asyncio.gather(
            *(self._rpc(h, m.Freeze, fid=fid, spec=spec) for h in handles)
        )
        errors = [
            f"worker {h.wid} died" if r is None else r.error
            for h, r in zip(handles, replies)
            if r is None or not r.ok
        ]
        if errors:
            raise GatewayError(f"{what} failed on {len(errors)} worker(s): {errors[0]}")
        self._frozen[fid] = spec

    def frozen_handles(self) -> Dict[int, FrozenHandle]:
        """Live :class:`FrozenHandle` for every shipped fid — after
        :meth:`recover` this is how clients re-acquire their handles."""
        return {
            fid: FrozenHandle(fid=fid, spec=spec)
            for fid, spec in self._frozen.items()
        }

    def submit(
        self,
        target: Union[WorkSpec, GraphHandle, FrozenHandle],
        *,
        tenant: str = "",
        priority: int = 0,
        deadline: Optional[float] = None,
        repeats: int = 1,
        hedge_after: Optional[Union[float, str]] = None,
        idempotency_key: str = "",
    ) -> Submission:
        """Submit one workload; returns the awaitable handle.

        *target* is a :class:`~repro.gateway.spec.WorkSpec` (one-shot,
        routed by *tenant* hash or round-robin), a
        :class:`GraphHandle` (pinned to its worker), or a
        :class:`FrozenHandle` (replayed by ``fid`` on any worker).
        *priority* and *deadline* pass through to the worker-side
        executor unchanged (docs/runtime.md, "Submission lifecycle").

        *hedge_after* (frozen targets only — they are the only shape
        every worker can replay) arms a tail-latency hedge: if the
        primary has not settled after that many seconds (or the
        primary worker's settle-latency quantile, for ``"p95"``), a
        duplicate leg launches on the healthiest other worker; the
        first Settled wins and the loser is cancelled.

        *idempotency_key* (requires an attached journal) makes the
        submission safe to replay across a gateway crash: a key the
        journal already settled returns the journaled Result without
        re-running; a key still in flight returns the live handle; a
        key journaled but orphaned by a crash (restart without
        :meth:`recover`) is resubmitted from the **journaled** entry
        under its original jid, the caller's payload ignored; a fresh
        key is written to the journal **before** this method returns,
        so the acceptance survives a gateway crash, and is durable
        before its Result resolves (docs/durability.md).

        Every argument is validated before anything is journaled or
        sent: a refused call leaves no trace.
        """
        self._check_open()
        if hedge_after is not None:
            if not isinstance(target, FrozenHandle):
                raise GatewayError(
                    "hedge_after requires a FrozenHandle: only frozen "
                    "topologies are replayable on every worker"
                )
            if hedge_after != "p95" and not isinstance(hedge_after, (int, float)):
                raise GatewayError(
                    f"hedge_after={hedge_after!r}: expected a float "
                    "delay or 'p95'"
                )
        if idempotency_key and self.journal is None:
            raise GatewayError(
                "idempotency_key requires a journal "
                "(Gateway(journal=...) / repro serve --journal)"
            )
        if isinstance(target, FrozenHandle):
            kind, spec, fid, iid = "frozen", None, target.fid, None
        elif isinstance(target, GraphHandle):
            kind, spec, fid, iid = "instance", target.spec, None, target.iid
        elif isinstance(target, WorkSpec):
            kind, spec, fid, iid = "spec", target, None, None
        else:
            raise GatewayError(
                f"cannot submit {type(target).__name__}: expected a "
                "WorkSpec, GraphHandle, or FrozenHandle"
            )
        jid: Optional[int] = None
        if idempotency_key:
            jid = self.journal.lookup(idempotency_key)
            if jid is not None:
                entry = self.journal.get(jid)
                if entry is not None and entry.is_settled:
                    # the journal already holds this key's outcome:
                    # return it without re-running anything
                    self._m_dedup.inc()
                    return self._replayed_submission(jid, entry)
                live = self._jid_subs.get(jid)
                if live is not None and not live.future.done():
                    self._m_dedup.inc()
                    return live
                if entry is not None:
                    # journaled but unsettled with no live handle
                    # (restart without recover()): resubmit from the
                    # *journaled* entry under the same jid.  The
                    # caller's payload is ignored — the same rule as
                    # the settled row of the dedupe matrix — so what
                    # re-runs (and what recovery would replay after
                    # another crash) is exactly what was journaled.
                    if entry.target == "instance":
                        # the pinned instance died with the journaling
                        # gateway: settle it like recover() does
                        self._settle_not_replayable(entry)
                        return self._replayed_submission(jid, entry)
                    return self._resubmit_entry(entry)
        handle = self._slot(target.wid) if kind == "instance" else self._route(tenant)
        if self.journal is not None and jid is None:
            # written *before* any state mutates or bytes hit the pipe:
            # a JournalWriteError propagates to the caller with nothing
            # accepted — structured refusal, never silent loss.  No
            # fsync here: the settle's fsync covers this record, so the
            # Result still waits for both (docs/durability.md)
            jid = self.journal.append_accepted(
                key=idempotency_key,
                target=kind,
                spec=spec,
                fid=fid,
                iid=iid,
                priority=priority,
                deadline=deadline,
                repeats=repeats,
                tenant=tenant,
                sync=False,
            )
        sub = self._open_submission(
            handle, idempotency_key, "submitted",
            spec=spec, fid=fid, iid=iid, repeats=repeats, priority=priority,
            deadline=deadline, tenant=tenant, jid=jid or 0,
        )
        if hedge_after is not None:
            if hedge_after == "p95":
                delay = self._health[handle.wid].settle_quantile(0.95)
            else:
                delay = float(hedge_after)
            self._loop.call_later(max(0.0, delay), self._maybe_hedge, sub)
        return sub

    def _open_submission(
        self, handle: _WorkerHandle, key: str, event: str, **fields
    ) -> Submission:
        """Build a new submission's ``Submit`` from *fields* and launch
        its primary leg on *handle*; *event* (``submitted`` or
        ``resubmitted``) opens its event stream."""
        rid = next(self._rids)
        request = m.Submit(rid=rid, **fields)
        sub = Submission(rid, handle.wid, request.tenant, request, self._loop)
        if request.jid:
            sub.jid = request.jid
            sub.idempotency_key = key
            self._jid_subs[request.jid] = sub
        self._m_submits.inc()
        if event == "resubmitted":
            sub._push(event, wid=handle.wid, jid=request.jid)
        else:
            sub._push(event, wid=handle.wid)
        self._launch_leg(sub, handle, rid)
        return sub

    def _maybe_hedge(self, sub: Submission) -> None:
        """The hedge timer fired: if the primary is still out, launch
        a duplicate leg on the healthiest *other* routable worker."""
        legs = self._legs_of(sub)
        if (
            sub.future.done()
            or sub.cancel_requested
            or self._draining
            or self._closing
            or len(legs) != 1  # already hedged or rerouted
        ):
            return
        target = self._healthiest(exclude={legs[0][1].worker.wid})
        if target is None:
            self._m_hedge_no_target.inc()
            return
        self._m_hedge_launched.inc()
        sub._push("hedged", wid=target.wid)
        self._launch_leg(sub, target, next(self._rids), hedge=True)

    def _replayed_submission(self, jid: int, entry: JournalEntry) -> Submission:
        """An already-resolved Submission carrying *entry*'s journaled
        settlement — what a deduped idempotency key returns."""
        # a settled entry carries every settled field of the journal's
        # record schema, which are exactly the Result's
        result = Result(**entry.settled)
        sub = Submission(next(self._rids), result.wid, entry.tenant, None, self._loop)
        sub.jid = jid
        sub.idempotency_key = entry.key
        sub.journal_settled = True
        self._settle(sub, result, replayed=True)
        return sub

    def _settle_not_replayable(self, entry: JournalEntry) -> None:
        """Journal a pinned-instance entry as ``worker_lost`` /
        ``reason="not_replayable"``: its worker-local graph state died
        with the gateway that accepted it."""
        exc = WorkerDiedError(-1, "not_replayable")
        self.journal.append_settled(
            entry.jid, outcome="worker_lost", error=repr(exc), reason="not_replayable"
        )
        self._m_recover_not_replayable.inc()

    async def recover(self) -> RecoveryReport:
        """Replay the journal after a crash: re-ship frozen fids,
        resubmit unsettled spec/frozen entries to the fresh pool, and
        settle pinned-instance entries ``worker_lost`` /
        ``reason="not_replayable"`` (their worker-local graph state
        died with the old process — the cross-process form of the PR 8
        taint rule).  After this returns, every journaled submission is
        either settled or live in flight: exactly one settlement each.

        Call it once, right after :meth:`start`, on a gateway whose
        ``journal=`` points at the crashed instance's log
        (``repro serve --journal PATH`` does both).
        """
        if self.journal is None:
            raise GatewayError("recover() requires a journal (Gateway(journal=...))")
        self._check_open()
        report = RecoveryReport()
        # 1. frozen topologies first: journaled fid-submissions replay
        #    against them, and pipe FIFO guarantees the Freeze lands
        #    before any resubmitted Submit
        for fid in sorted(self.journal.frozen_specs):
            if fid in self._frozen:
                continue
            await self._freeze_everywhere(
                fid, self.journal.frozen_specs[fid], f"recover: re-freeze of fid {fid}"
            )
            report.frozen_reshipped += 1
            self._m_recover_frozen.inc()
        # 2. unsettled entries: resubmit what is replayable, settle
        #    what is not — never leave a journaled acceptance dangling
        for entry in self.journal.unsettled():
            if entry.jid in self._jid_subs:
                continue  # already live (client raced us via its key)
            if entry.target == "instance":
                self._settle_not_replayable(entry)
                report.not_replayable += 1
                continue
            sub = self._resubmit_entry(entry)
            report.resubmitted += 1
            report.jids.append(entry.jid)
            report.submissions.append(sub)
            self._m_recover_resubmitted.inc()
        return report

    def _resubmit_entry(self, entry: JournalEntry) -> Submission:
        """Resubmit one journaled-but-unsettled entry under its
        original jid (a fresh rid, a fresh worker)."""
        return self._open_submission(
            self._route(entry.tenant), entry.key, "resubmitted",
            spec=entry.spec if entry.target == "spec" else None,
            fid=entry.fid if entry.target == "frozen" else None,
            repeats=entry.repeats, priority=entry.priority,
            deadline=entry.deadline, tenant=entry.tenant, jid=entry.jid,
        )

    def cancel(self, sub: Submission) -> bool:
        """Request cooperative cancellation of *sub* (every leg);
        False when it is already settled (or unknown)."""
        legs = self._legs_of(sub)
        if sub.future.done() or not legs:
            return False
        sub.cancel_requested = True
        self._m_cancels.inc()
        for rid, leg in legs:
            if not leg.worker.dead:
                self._send(leg.worker, m.Cancel(rid=rid))
        return True

    async def verify(self, gh: GraphHandle, passes: int):
        """Oracle-check a generated instance on its worker; returns the
        violation tuple (empty = clean).  A tainted handle (its worker
        died, before or during the call) verifies vacuously."""
        handle = self._workers[gh.wid]
        if gh.tainted or handle is None or handle.dead:
            return ()
        reply = await self._rpc(handle, m.Verify, iid=gh.iid, passes=passes)
        return () if reply is None else tuple(reply.violations)

    async def worker_metrics(self) -> Dict[int, dict]:
        """Pull a full metrics snapshot from every live worker; a
        worker that dies (or wedges for 30 s) before replying is left
        out."""

        async def pull(handle: _WorkerHandle):
            try:
                return await asyncio.wait_for(self._rpc(handle, m.MetricsPull), 30.0)
            except asyncio.TimeoutError:  # pragma: no cover - wedged
                return None

        handles = self._live_handles()
        replies = await asyncio.gather(*(pull(h) for h in handles))
        return {
            h.wid: dict(r.snapshot) for h, r in zip(handles, replies) if r is not None
        }

    def snapshot(self) -> dict:
        """The gateway's own ``gateway.*`` metric snapshot."""
        return self.metrics.snapshot()

    def health_snapshot(self) -> Dict[int, dict]:
        """Per-slot health + breaker view (operator surface, soak)."""
        now = time.monotonic()
        out: Dict[int, dict] = {}
        for wid in range(self.num_workers):
            b = self._breakers[wid]
            snap = self._health[wid].snapshot(now)
            snap["breaker"] = b.state
            snap["breaker_cooldown_s"] = round(b.remaining_cooldown(now), 4)
            snap["breaker_opened_total"] = b.opened_total
            snap["breaker_closed_total"] = b.closed_total
            out[wid] = snap
        return out

    def inject_chaos(self, wid: int, *, stall_s: float = 0.0, spin_s: float = 0.0) -> None:
        """Wedge worker *wid*'s recv loop (deterministic gray-failure
        injection — the soak's stall trigger; docs/gateway.md)."""
        handle = self._slot(wid)
        if handle.dead:
            raise GatewayError(f"worker {wid} is dead; nothing to wedge")
        self._send(handle, m.ChaosInject(stall_s=stall_s, spin_s=spin_s))

    @property
    def retry_budget(self) -> RetryBudget:
        """The gateway-wide retry token bucket (read-mostly surface)."""
        return self._retry_budget

    def _check_open(self) -> None:
        if not self._started or self._loop is None:
            raise GatewayError("gateway is not started")
        if self._draining or self._closing:
            raise GatewayError("gateway is draining; submission refused")

    # -- drain / shutdown ---------------------------------------------
    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admission and settle every outstanding awaitable.

        Each worker runs its own ``Executor.drain`` (the PR 5
        guarantee: every worker-side future settles), and the results
        stream back as ordinary Settled messages.  The whole call —
        worker acks *plus* straggler Settled traffic — shares one
        deadline of *timeout* + ``drain_grace``; anything unsettled at
        the deadline (a dead pipe, a wedged worker) is force-settled
        with a structured ``failed`` result.  Returns True when
        everything settled in time.
        """
        self._draining = True
        deadline = (
            None
            if timeout is None
            else time.monotonic() + timeout + self.drain_grace
        )

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return max(0.0, deadline - time.monotonic())

        acks = [
            asyncio.ensure_future(self._rpc(h, m.Drain, timeout=timeout))
            for h in self._live_handles()
        ]
        ok = True
        if acks:
            done, pending = await asyncio.wait(acks, timeout=remaining())
            for t in pending:
                t.cancel()
            # a worker that died before acking (None) did not drain
            ok = not pending and all(
                t.result() is not None and t.result().ok for t in done
            )
        # worker drains settle worker-side futures; wait for the
        # corresponding Settled traffic to land — on the *same*
        # deadline, not a fresh grace on top of the ack wait
        waiters = {sub.future for sub in self._live_subs()}
        if waiters:
            _, unsettled = await asyncio.wait(waiters, timeout=remaining())
            if unsettled:
                ok = False
        for sub in self._live_subs():
            self._force_settle(
                sub,
                outcome="failed",
                error="GatewayError('gateway drain timed out')",
                reason="drain_timeout",
            )
        return ok

    async def shutdown(self, drain_timeout: Optional[float] = 30.0) -> None:
        """Graceful teardown: drain, stop the monitor, stop workers.

        Idempotent; never strands an awaitable — anything unresolved
        after worker teardown settles with a ``worker_lost`` result.
        """
        if self._closing:
            return
        try:
            await self.drain(drain_timeout)
        finally:
            self._closing = True
            if self._monitor_task is not None:
                self._monitor_task.cancel()
            for handle in self._live_handles():
                self._send(handle, m.Shutdown())
            procs = [
                h.proc
                for h in self._workers
                if h is not None and h.proc.is_alive()
            ]

            def _join_all() -> None:
                deadline = time.monotonic() + 10.0
                for p in procs:
                    p.join(max(0.1, deadline - time.monotonic()))
                for p in procs:
                    if p.is_alive():
                        p.kill()
                        p.join(5.0)

            await asyncio.to_thread(_join_all)
            for handle in self._workers:
                if handle is not None and not handle.dead:
                    handle.dead = True
                    self._close_pipe(handle)
            for sub in self._live_subs():
                self._force_settle(
                    sub,
                    outcome="worker_lost",
                    error="GatewayError('gateway shut down')",
                    reason="shutdown",
                )
            for _handle, fut in self._calls.values():
                fut.cancel()
            if self.journal is not None:
                self.journal.close()


__all__ = [
    "Gateway",
    "GraphHandle",
    "FrozenHandle",
    "RecoveryReport",
    "Result",
    "Submission",
]
