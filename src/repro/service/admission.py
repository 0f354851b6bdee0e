"""Bounded admission: the capacity ledger behind overload protection.

The paper's executor (§III-B/C) assumes a single cooperative caller:
``run``/``run_n``/``run_until`` admit unboundedly, so a burst of
submissions grows the outstanding-topology set without limit and the
device pools become the first thing to fall over.  The
:class:`AdmissionController` puts a configurable ceiling in front of the
submission path — a maximum number of outstanding topologies and a
maximum *predicted device-memory footprint* — and decides what happens
at the ceiling via one of three backpressure policies:

- ``"block"`` — the submitting thread waits (optionally bounded by
  ``block_timeout``) until capacity frees; waiters are served strictly
  highest-priority-first, FIFO within a priority;
- ``"reject"`` — ``Executor.run*`` raises a structured
  :class:`~repro.errors.AdmissionRejectedError` immediately;
- ``"shed"`` — the executor evicts the lowest-priority *queued* (not
  yet started) topology to make room for a higher-priority submission;
  the victim's future resolves with ``AdmissionRejectedError``.

The footprint of a submission is predicted **statically**, reusing the
hflint HF020 capacity model (:mod:`repro.analysis.model`): the sum of
buddy-rounded span footprints over the graph's Algorithm-1 placement
groups — exactly the bytes the graph's pull tasks will pin in the
device pools while it runs (see :func:`predicted_footprint_bytes`).

The controller itself is a pure ledger: it never touches the executor.
The executor acquires on submission, releases on finalization (or on
eviction/cancellation of a queued topology), and implements ``shed``
victim selection itself, under its own queue lock, so a victim can
never be concurrently promoted and evicted.  One controller instance
must not be shared between executors (the ledger would conflate their
capacity).  See docs/runtime.md, "Submission lifecycle".
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Optional

from repro.errors import AdmissionRejectedError

# The buddy-rounded static footprint model is owned by the analyzer —
# one definition for lint rule HF020 and for this ledger, so the two
# can never drift.  Re-exported here (the same object) because the
# service layer is the historical import site for user code; inside
# the package, importers use repro.analysis.model, which loads without
# the rest of the analyzer.
from repro.analysis.model import predicted_footprint_bytes  # noqa: F401

#: the three backpressure policies
POLICIES = ("block", "reject", "shed")


class AdmissionController:
    """Capacity ledger + backpressure policy for executor submissions.

    *max_topologies* bounds concurrently outstanding submissions;
    *max_footprint_bytes* bounds the sum of their predicted device
    footprints.  Either may be ``None`` (unbounded on that axis).
    *policy* is one of :data:`POLICIES`; *block_timeout* bounds how
    long a ``block``-policy submitter waits (``None`` = forever).
    """

    def __init__(
        self,
        *,
        max_topologies: Optional[int] = None,
        max_footprint_bytes: Optional[int] = None,
        policy: str = "block",
        block_timeout: Optional[float] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; expected one of "
                f"{', '.join(POLICIES)}"
            )
        if max_topologies is not None and max_topologies < 1:
            raise ValueError("max_topologies must be >= 1")
        if max_footprint_bytes is not None and max_footprint_bytes < 0:
            raise ValueError("max_footprint_bytes must be >= 0")
        self.policy = policy
        self.max_topologies = max_topologies
        self.max_footprint_bytes = max_footprint_bytes
        self.block_timeout = block_timeout
        self._cv = threading.Condition()
        self._in_use = 0
        self._in_use_bytes = 0
        #: blocked submitters: {(neg_priority, seq)} — min() is the
        #: highest-priority, oldest waiter and is served first
        self._waiters: set = set()
        self._seq = itertools.count()

    # -- inspection ---------------------------------------------------
    @property
    def in_use_topologies(self) -> int:
        with self._cv:
            return self._in_use

    @property
    def in_use_bytes(self) -> int:
        with self._cv:
            return self._in_use_bytes

    @property
    def waiting(self) -> int:
        """Submitter threads currently blocked for capacity."""
        with self._cv:
            return len(self._waiters)

    @property
    def saturated(self) -> bool:
        """True when a zero-footprint submission could not be admitted."""
        with self._cv:
            return not self._fits(0)

    # -- ledger -------------------------------------------------------
    def _fits(self, footprint_bytes: int) -> bool:
        if (
            self.max_topologies is not None
            and self._in_use + 1 > self.max_topologies
        ):
            return False
        if (
            self.max_footprint_bytes is not None
            and self._in_use_bytes + footprint_bytes > self.max_footprint_bytes
        ):
            return False
        return True

    def would_ever_fit(self, footprint_bytes: int) -> bool:
        """True when an empty controller could admit this footprint."""
        return (
            self.max_footprint_bytes is None
            or footprint_bytes <= self.max_footprint_bytes
        )

    def try_acquire(self, footprint_bytes: int) -> bool:
        """Admit immediately if capacity allows; never blocks.

        Waiting ``block``-policy submitters have priority over new
        arrivals only via :meth:`acquire`; ``try_acquire`` is the
        building block the executor's shed/reject paths use directly.
        """
        with self._cv:
            if not self._fits(footprint_bytes):
                return False
            self._in_use += 1
            self._in_use_bytes += footprint_bytes
            return True

    def acquire(
        self,
        footprint_bytes: int,
        priority: int = 0,
        timeout: Optional[float] = None,
    ) -> float:
        """Block until admitted; returns seconds waited.

        Among concurrent waiters the highest *priority* is admitted
        first (FIFO within a priority).  Raises
        :class:`~repro.errors.AdmissionRejectedError` (``"timeout"``)
        when *timeout* (or the controller's ``block_timeout``) elapses
        first.
        """
        if timeout is None:
            timeout = self.block_timeout
        t0 = time.monotonic()
        deadline = None if timeout is None else t0 + timeout
        me = (-priority, next(self._seq))
        with self._cv:
            self._waiters.add(me)
            try:
                while True:
                    # admit only the best waiter so releases wake
                    # submitters in priority order, not arrival order
                    if self._fits(footprint_bytes) and min(self._waiters) == me:
                        self._in_use += 1
                        self._in_use_bytes += footprint_bytes
                        return time.monotonic() - t0
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise AdmissionRejectedError(
                                "timeout",
                                policy=self.policy,
                                priority=priority,
                                footprint_bytes=footprint_bytes,
                                in_use_topologies=self._in_use,
                                in_use_bytes=self._in_use_bytes,
                            )
                        self._cv.wait(remaining)
                    else:
                        self._cv.wait()
            finally:
                self._waiters.discard(me)
                # our admission (or departure) may unblock a worse-
                # priority waiter that min() was holding back
                self._cv.notify_all()

    def release(self, footprint_bytes: int) -> None:
        """Return one admitted submission's capacity to the ledger."""
        with self._cv:
            self._in_use -= 1
            self._in_use_bytes -= footprint_bytes
            self._cv.notify_all()

    def rejection(
        self, reason: str, *, priority: int, footprint_bytes: int
    ) -> AdmissionRejectedError:
        """Build a structured rejection carrying a ledger snapshot."""
        with self._cv:
            return AdmissionRejectedError(
                reason,
                policy=self.policy,
                priority=priority,
                footprint_bytes=footprint_bytes,
                in_use_topologies=self._in_use,
                in_use_bytes=self._in_use_bytes,
            )
