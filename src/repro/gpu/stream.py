"""Asynchronous streams and events for the simulated GPU runtime.

**What it models.** A :class:`Stream` is an in-order work queue
serviced by a dedicated dispatcher thread — the analogue of a CUDA
stream.  Operations enqueued on a stream run asynchronously with
respect to the enqueuing (host) thread but strictly in FIFO order with
respect to each other.  An :class:`Event` is a one-shot
synchronization marker: recording it on a stream completes it once
every previously enqueued operation has executed; other streams
(``wait_event``) and host threads (``synchronize``) can wait on it.
This reproduces the ``cudaEventRecord`` / ``cudaStreamWaitEvent``
pattern the executor uses to sequence GPU tasks (paper, Listing 13;
the executor's per-(worker, device) stream discipline is described in
``docs/runtime.md``).

**Threading contract.** Host-side methods (:meth:`enqueue`,
:meth:`record_event`, :meth:`wait_event`, :meth:`synchronize`) are
safe from any thread; each op and its completion callback run on the
stream's single dispatcher thread, in enqueue order.  Callbacks
therefore need no locking against *this* stream's other ops, but they
run concurrently with every other thread in the process — the
executor's completion callback is written for exactly that: it
releases successors into the shared queue and may itself launch
follow-on GPU work, enqueueing onto this or any other stream
(stream-ordered continuation, ``docs/runtime.md``).  An enqueue never
blocks, so a callback that enqueues cannot deadlock two dispatchers.
:meth:`destroy` drains the queue and joins the dispatcher; it must not
be called from the dispatcher thread itself.

**Observability.** The dispatcher maintains :attr:`ops_executed`
(completed ops) and :attr:`busy_seconds` (wall time spent inside op
bodies) — both owned by the dispatcher thread and read, racily but
consistently (single writer), by the metrics layer as the per-device
``gpu<N>.ops_executed`` / ``gpu<N>.busy_seconds`` aggregates
(``docs/observability.md``).
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import DeviceError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device

_event_ids = itertools.count()
_stream_ids = itertools.count()


class Event:
    """One-shot completion marker recordable on a stream."""

    __slots__ = ("eid", "_flag", "_error")

    def __init__(self) -> None:
        self.eid = next(_event_ids)
        self._flag = threading.Event()
        self._error: Optional[BaseException] = None

    def query(self) -> bool:
        """True once the event has completed (non-blocking)."""
        return self._flag.is_set()

    def synchronize(self, timeout: Optional[float] = None) -> None:
        """Block the host until the event completes.

        Re-raises any exception captured by the stream operation that
        preceded the event record.
        """
        if not self._flag.wait(timeout):
            raise DeviceError(f"timed out waiting on event {self.eid}")
        if self._error is not None:
            raise self._error

    def _complete(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        self._flag.set()


class Stream:
    """In-order asynchronous operation queue bound to one device."""

    def __init__(self, device: "Device", name: str = "") -> None:
        self.device = device
        self.sid = next(_stream_ids)
        self.name = name or f"stream{self.sid}"
        self._ops: "queue.SimpleQueue" = queue.SimpleQueue()
        self._destroyed = False
        self._abandoned = False
        self._error: Optional[BaseException] = None
        self._ops_executed = 0
        self._busy_seconds = 0.0
        self._thread = threading.Thread(
            target=self._dispatch_loop,
            name=f"gpu{device.ordinal}-{self.name}",
            daemon=True,
        )
        self._thread.start()

    # -- dispatcher ---------------------------------------------------
    def _dispatch_loop(self) -> None:
        from repro.gpu.device import thread_device  # device.py imports this module

        # the dispatcher runs its device's ops for its whole life: a
        # kernel body sees its own device as current
        device = thread_device.device = self.device
        get = self._ops.get
        clock = time.perf_counter
        err: Optional[BaseException] = None
        while True:
            item = get()
            if item is None:  # shutdown sentinel
                return
            fn, callback = item
            t0 = clock()
            try:
                if self._abandoned:
                    raise DeviceError(
                        f"stream {self.name} quarantined; operation abandoned"
                    )
                # fault-injection / liveness gate, entered only for a
                # dead device or an armed fault profile: a dead device
                # rejects every op, an injected stall blocks here and
                # never runs the payload (docs/resilience.md)
                if device.guarded:
                    device.pre_op()
                fn()
            except BaseException as exc:  # noqa: BLE001 - deferred to sync
                err = exc
                if callback is None:
                    # no callback to consume the failure: keep it sticky
                    # until the next host synchronize
                    self._error = exc
            self._busy_seconds += clock() - t0
            self._ops_executed += 1
            if callback is not None:
                try:
                    callback(err)
                except BaseException:  # pragma: no cover - callback bug
                    pass
            # drop the op before blocking in get(): its body holds the
            # host array and its callback the run's topology
            item = fn = callback = err = None

    # -- host-side API --------------------------------------------------
    @property
    def ops_executed(self) -> int:
        """Operations completed so far (statistics/testing)."""
        return self._ops_executed

    @property
    def busy_seconds(self) -> float:
        """Wall time spent executing op bodies on the dispatcher."""
        return self._busy_seconds

    def enqueue(
        self,
        fn: Callable[[], None],
        callback: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """Append *fn* to the stream; returns immediately.

        *callback*, if given, runs on the dispatcher thread after *fn*
        with the exception raised (or ``None``) — the analogue of
        ``cudaLaunchHostFunc``.
        """
        if self._destroyed:
            raise DeviceError(f"enqueue on destroyed stream {self.name}")
        self._ops.put((fn, callback))

    def record_event(self, event: Optional[Event] = None) -> Event:
        """Record *event* (or a fresh one) at the current stream tail."""
        ev = event if event is not None else Event()

        def mark() -> None:
            pass

        def done(err: Optional[BaseException]) -> None:
            # runs on the dispatcher thread after all previously enqueued
            # ops, so self._error reflects any failure that preceded it
            ev._complete(err if err is not None else self._error)

        self.enqueue(mark, callback=done)
        return ev

    def wait_event(self, event: Event) -> None:
        """Make subsequent stream work wait for *event* to complete."""
        self.enqueue(lambda: event._flag.wait())

    def synchronize(self, timeout: Optional[float] = None) -> None:
        """Block the host until all enqueued work has run.

        Raises the first deferred operation error, if any, and clears
        it (mirroring CUDA's error-returned-on-sync behaviour).
        """
        ev = self.record_event()
        if not ev._flag.wait(timeout):
            raise DeviceError(f"timed out synchronizing stream {self.name}")
        err, self._error = self._error, None
        if err is not None:
            raise err

    def abandon(self) -> None:
        """Quarantine the stream: every op still queued (e.g. stuck
        behind an injected stall) and every later one is skipped — its
        callback receives a :class:`~repro.errors.DeviceError` and the
        payload never runs.  The executor calls this when a timeout
        poisons the stream's FIFO guarantee (docs/resilience.md), so
        abandoned work cannot re-execute when the stall releases."""
        self._abandoned = True

    def destroy(self) -> None:
        """Drain and stop the dispatcher thread (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        self._ops.put(None)
        self._thread.join()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(gpu={self.device.ordinal}, name={self.name!r})"
