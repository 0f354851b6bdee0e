"""Exception hierarchy for the repro (Heteroflow reproduction) library.

Heteroflow's C++ implementation reports user errors through assertions
and exceptions; this module centralizes the Python equivalents so that
callers can catch a single base class, :class:`HeteroflowError`, or the
specific subclass relevant to a subsystem.
"""

from __future__ import annotations


class HeteroflowError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(HeteroflowError):
    """Malformed task graph: cycles, empty placeholders at run time,
    cross-graph dependency links, and similar construction mistakes."""


class CycleError(GraphError):
    """The task dependency graph contains a directed cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        names = " -> ".join(str(n) for n in self.cycle)
        super().__init__(f"task graph contains a cycle: {names}")


class EmptyTaskError(GraphError):
    """A placeholder task reached execution without being assigned work."""


class LintError(GraphError):
    """The hflint static analyzer (:mod:`repro.analysis`) found
    error-severity diagnostics and the caller asked for a hard gate
    (``Executor.run(..., lint=True)`` or ``LintReport.raise_if_errors``).

    The offending report is available as :attr:`report`.
    """

    def __init__(self, report) -> None:
        self.report = report
        findings = "; ".join(str(d) for d in report.errors[:5])
        more = len(report.errors) - 5
        if more > 0:
            findings += f"; ... and {more} more"
        super().__init__(
            f"hflint found {len(report.errors)} error(s) in graph "
            f"{report.graph_name!r}: {findings}"
        )


class FrozenTopologyError(GraphError):
    """A mutation was attempted on a graph after ``Heteroflow.freeze()``.

    Freezing compiles the graph into an immutable
    :class:`~repro.core.topology.FrozenTopology` whose placement plan,
    ready-order slots, and footprint are cached by the executor; any
    later structural or payload mutation would silently invalidate that
    compiled plan, so every mutation entry point (task creation,
    dependency edges, work rebinding, retry/timeout/launch-shape
    configuration, ``clear()``) raises this error instead.

    Structured fields: :attr:`operation` (the refused method, e.g.
    ``"precede"``) and :attr:`target` (the task or graph name).  Use
    ``Executor.run(frozen, bindings=...)`` to swap host callables per
    submission without thawing the graph (docs/runtime.md, "Freeze and
    replay").
    """

    def __init__(self, operation: str, target: str = "") -> None:
        self.operation = operation
        self.target = target
        where = f" on {target!r}" if target else ""
        super().__init__(
            f"cannot {operation}{where}: the graph is frozen "
            f"(Heteroflow.freeze()); rebuild a new graph to mutate, or "
            f"use run(frozen, bindings=...) to swap host callables"
        )


class ExecutorError(HeteroflowError):
    """Executor misuse: invalid worker/GPU counts, running a graph that
    requires GPUs on a GPU-less executor, use after shutdown."""


class AdmissionRejectedError(ExecutorError):
    """The overload-protection layer (:mod:`repro.service`) refused a
    submission.

    Raised synchronously from ``Executor.run``/``run_n``/``run_until``
    when the attached :class:`~repro.service.AdmissionController` is at
    capacity under the ``reject`` policy, when a ``block``-policy
    submitter times out waiting for capacity, or when a ``shed``-policy
    submission cannot find a lower-priority victim to evict.  It also
    resolves the future of a queued topology that was *evicted* by a
    higher-priority ``shed`` admission.

    Structured fields: :attr:`reason` (``"capacity"``, ``"timeout"``,
    ``"shed"``, or ``"never_fits"``), :attr:`policy`, the submission's
    :attr:`priority` and predicted :attr:`footprint_bytes`, and the
    controller's :attr:`in_use_topologies` / :attr:`in_use_bytes` at
    decision time (see docs/runtime.md, "Submission lifecycle").
    """

    def __init__(
        self,
        reason: str,
        *,
        policy: str = "",
        priority: int = 0,
        footprint_bytes: int = 0,
        in_use_topologies: int = 0,
        in_use_bytes: int = 0,
        message: str = "",
    ) -> None:
        self.reason = reason
        self.policy = policy
        self.priority = priority
        self.footprint_bytes = footprint_bytes
        self.in_use_topologies = in_use_topologies
        self.in_use_bytes = in_use_bytes
        super().__init__(
            message
            or f"admission {reason} (policy={policy!r}, priority={priority}, "
            f"footprint={footprint_bytes}B, in use: "
            f"{in_use_topologies} topologies / {in_use_bytes}B)"
        )


class TaskFailedError(ExecutorError):
    """A task exhausted its resilience budget (retries/timeouts/device
    recovery) and failed the topology.

    Raised through the submission future whenever a
    :class:`repro.resilience.RetryPolicy` or timeout was in play, so the
    caller can distinguish "the task function raised" (the raw exception,
    backward-compatible) from "the runtime gave up after trying".  The
    full per-attempt error history is :attr:`attempts` (oldest first);
    the final error is ``attempts[-1]``.

    :attr:`attempt_log` is the structured per-attempt record (one dict
    per attempt, oldest first): the error class, and — for attempts
    the policy retried — the backoff delay actually slept
    (``retry_delay_s``), whether the exponential had saturated at the
    policy's cap (``backoff_saturated``), and the effective
    ``max_delay_s``, so operators can see *when* backoff stopped
    growing.  The terminal attempt has no delay fields.
    """

    def __init__(self, task_name: str, nid: int, attempts, attempt_log=()) -> None:
        self.task_name = task_name
        self.nid = nid
        self.attempts = tuple(attempts)
        self.attempt_log = tuple(dict(entry) for entry in attempt_log)
        last = self.attempts[-1] if self.attempts else None
        saturated = sum(
            1 for entry in self.attempt_log if entry.get("backoff_saturated")
        )
        tail = f"; backoff saturated on {saturated} attempt(s)" if saturated else ""
        super().__init__(
            f"task {task_name!r} failed after {len(self.attempts)} "
            f"attempt(s); last error: {last!r}{tail}"
        )


class TaskTimeoutError(ExecutorError):
    """A task exceeded its per-task or per-run timeout.

    For asynchronous GPU work the watchdog fires mid-flight (the stale
    stream completion is discarded and the stream quarantined); host
    callables cannot be interrupted, so their timeouts are detected when
    the callable returns (see docs/resilience.md).
    """

    def __init__(self, task_name: str, timeout_s: float) -> None:
        self.task_name = task_name
        self.timeout_s = timeout_s
        super().__init__(
            f"task {task_name!r} exceeded its {timeout_s:g}s timeout"
        )


class DeviceError(HeteroflowError):
    """Simulated GPU runtime errors (bad device ordinal, destroyed
    stream, cross-device buffer access)."""


class AllocationError(DeviceError):
    """Device memory pool exhaustion or invalid free."""


class KernelError(DeviceError):
    """Kernel launch failures: bad launch configuration, argument
    conversion failure, or an exception raised inside a kernel."""


class DeviceFailedError(DeviceError):
    """A whole simulated GPU died (or was quarantined).

    Carries the :attr:`ordinal` of the failed device so the executor's
    recovery path can quarantine it, re-place surviving work, and replay
    lost spans (docs/resilience.md).
    """

    def __init__(self, ordinal: int, message: str = "") -> None:
        self.ordinal = ordinal
        super().__init__(message or f"device {ordinal} failed")


class GatewayError(HeteroflowError):
    """Multiprocess gateway misuse or failure (:mod:`repro.gateway`):
    submitting to a draining/closed gateway, an unknown frozen handle,
    or a submission the gateway had to force-settle at shutdown."""


class WorkerDiedError(GatewayError):
    """A gateway worker process died (crash, SIGKILL, or heartbeat
    silence) with this submission in flight and no replan budget left.

    Carries the :attr:`wid` of the dead worker and the detection
    :attr:`reason` (``"exited"``, ``"heartbeat"``, or ``"pipe"``) so
    operators can distinguish a crashed process from a wedged one
    (docs/gateway.md, "Failure handling").
    """

    def __init__(self, wid: int, reason: str = "exited", message: str = "") -> None:
        self.wid = wid
        self.reason = reason
        super().__init__(
            message or f"gateway worker {wid} died ({reason}) mid-submission"
        )


class JournalError(HeteroflowError):
    """Durable submission journal misuse or failure (:mod:`repro.durability`):
    appending to a closed journal, settling an unknown or already-settled
    entry, or recovering against a journal the gateway cannot use."""


class JournalWriteError(JournalError):
    """A journal append could not be made durable.

    Raised from :meth:`repro.durability.Journal.append_accepted` /
    ``append_settled`` / ``append_frozen`` when the underlying write or
    fsync fails — a full disk, a failing device, a short write.  The
    journal rolls the segment back to its pre-append offset (best
    effort) so the torn bytes never masquerade as a committed record,
    and the caller gets a *structured* error instead of silent loss.

    Structured fields: :attr:`reason` (``"write"``, ``"short_write"``,
    ``"fsync"``, ``"enospc"``, ``"rotate"``, or ``"rename"`` — the
    compaction commit), the :attr:`segment` file the append targeted,
    and the original :attr:`errno_code` (0 when the failure carried no
    errno).
    """

    def __init__(
        self,
        reason: str,
        *,
        segment: str = "",
        errno_code: int = 0,
        message: str = "",
    ) -> None:
        self.reason = reason
        self.segment = segment
        self.errno_code = errno_code
        super().__init__(
            message
            or f"journal append failed ({reason}) on segment {segment!r}"
            + (f" [errno {errno_code}]" if errno_code else "")
        )


class JournalCorruptError(JournalError):
    """The journal failed validation where truncation cannot help.

    A torn *tail* (an interrupted final append) is expected after a
    crash and is silently truncated on open; corruption anywhere else —
    a checksum mismatch mid-segment, a bad frame in a non-final
    segment, a sequence regression — means the log can no longer prove
    exactly-once settlement, so open refuses with this error instead
    of guessing, before it removes or truncates any file (``repro
    fsck`` reports the same findings read-only, its first equal to this
    one).

    Structured fields: :attr:`segment`, byte :attr:`offset`, and the
    finding :attr:`kind` (``"checksum"``, ``"frame"``, ``"marker"``,
    ``"pickle"``, ``"sequence"``, ``"duplicate"``, ``"orphan"``,
    ``"field"`` for a record that breaks the journal's record schema,
    or ``"format"`` for a segment written by a newer build).
    """

    def __init__(self, kind: str, segment: str, offset: int, message: str = "") -> None:
        self.kind = kind
        self.segment = segment
        self.offset = offset
        super().__init__(
            message
            or f"journal corrupt ({kind}) in segment {segment!r} at "
            f"byte {offset}"
        )


class ValidationError(HeteroflowError):
    """A whole-execution invariant was violated: a task ran the wrong
    number of times, began before a predecessor ended, broke in-order
    stream semantics, landed on the wrong device, or the allocator
    auditor found an overlap/leak (see :mod:`repro.check`)."""


class SimulationError(HeteroflowError):
    """Virtual-time simulator errors: missing cost annotations, invalid
    machine specifications, or non-quiescent event queues."""
