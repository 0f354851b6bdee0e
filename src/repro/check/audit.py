"""Allocator auditing: record every pool alloc/free and check them.

Attaches to :class:`~repro.gpu.buddy.BuddyAllocator` instances through
their ``trace_hook`` (installed by :mod:`repro.gpu.memory` pools under
every simulated device), records the linearized alloc/free event
stream, and checks the pool invariants *online*:

- **alignment** — every block is a power-of-two multiple of
  ``min_block`` bytes, naturally aligned (``offset % size == 0``), and
  inside the arena;
- **fit** — the block is at least as large as the request;
- **no-overlap** — a new block never intersects a live block;
- **matched frees** — every free names a live block of the recorded
  size (no double free, no foreign free);

and at :meth:`finish` time, *post-mortem*:

- **zero leaks** — no block is live once the run is over;
- **full coalescing** — with nothing allocated, every split block has
  merged back into the single arena-sized root.

Events arrive from worker threads; the allocator invokes hooks inside
its own lock, so the stream is linearized per allocator, and the
auditor adds its own lock to merge streams from multiple pools.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.errors import ValidationError
from repro.gpu.buddy import BuddyAllocator
from repro.gpu.memory import DeviceHeap


@dataclass
class AllocEvent:
    """One recorded pool operation."""

    pool: str
    kind: str  # "alloc" | "free"
    offset: int
    size: int
    requested: int


@dataclass
class AuditReport:
    """Outcome of one audited run."""

    violations: List[str] = field(default_factory=list)
    num_allocs: int = 0
    num_frees: int = 0
    num_pools: int = 0
    peak_bytes: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            lines = "\n  ".join(self.violations[:20])
            more = len(self.violations) - 20
            suffix = f"\n  ... and {more} more" if more > 0 else ""
            raise ValidationError(
                f"{len(self.violations)} allocator invariant violation(s):\n  "
                f"{lines}{suffix}"
            )


class _PoolState:
    __slots__ = ("label", "allocator", "live")

    def __init__(self, label: str, allocator: BuddyAllocator) -> None:
        self.label = label
        self.allocator = allocator
        self.live: Dict[int, int] = {}  # offset -> block size


class AllocatorAuditor:
    """Records and checks alloc/free streams from one or more pools."""

    def __init__(self, keep_events: bool = True) -> None:
        self._lock = threading.Lock()
        self._pools: List[_PoolState] = []
        self._violations: List[str] = []
        self._num_allocs = 0
        self._num_frees = 0
        self.keep_events = keep_events
        self.events: List[AllocEvent] = []

    # -- wiring ------------------------------------------------------
    def attach(
        self, target: Union[BuddyAllocator, DeviceHeap], label: str = ""
    ) -> None:
        """Install the audit hook on a pool (heap or raw allocator)."""
        allocator = target.allocator if isinstance(target, DeviceHeap) else target
        if allocator.trace_hook is not None:
            raise ValidationError(
                "allocator already has a trace hook; detach the other "
                "auditor first"
            )
        state = _PoolState(label or f"pool{len(self._pools)}", allocator)
        with self._lock:
            self._pools.append(state)

        def hook(kind: str, offset: int, size: int, requested: int) -> None:
            self._on_event(state, kind, offset, size, requested)

        allocator.trace_hook = hook

    def attach_runtime(self, runtime) -> None:
        """Attach to every device pool of a :class:`GpuRuntime`."""
        for device in runtime.devices:
            self.attach(device.heap, label=f"gpu{device.ordinal}")

    def detach_all(self) -> None:
        with self._lock:
            pools = list(self._pools)
        for state in pools:
            state.allocator.trace_hook = None

    # -- event recording / online checks -----------------------------
    def _on_event(
        self, state: _PoolState, kind: str, offset: int, size: int, requested: int
    ) -> None:
        with self._lock:
            if self.keep_events:
                self.events.append(
                    AllocEvent(state.label, kind, offset, size, requested)
                )
            if kind == "alloc":
                self._num_allocs += 1
                self._check_alloc(state, offset, size, requested)
                state.live[offset] = size
            elif kind == "free":
                self._num_frees += 1
                known = state.live.pop(offset, None)
                if known is None:
                    self._violations.append(
                        f"{state.label}: free of unknown/already-freed block "
                        f"at offset {offset}"
                    )
                elif known != size:
                    self._violations.append(
                        f"{state.label}: free at offset {offset} returned "
                        f"{size} bytes but the block was {known} bytes"
                    )
            else:  # pragma: no cover - future-proofing
                self._violations.append(
                    f"{state.label}: unknown event kind {kind!r}"
                )

    def _check_alloc(
        self, state: _PoolState, offset: int, size: int, requested: int
    ) -> None:
        alloc = state.allocator
        if size < alloc.min_block or size & (size - 1) != 0:
            self._violations.append(
                f"{state.label}: block of {size} bytes at offset {offset} is "
                f"not a power-of-two multiple of min_block={alloc.min_block}"
            )
        if size and offset % size != 0:
            self._violations.append(
                f"{state.label}: block at offset {offset} is not naturally "
                f"aligned to its size {size}"
            )
        if offset < 0 or offset + size > alloc.capacity:
            self._violations.append(
                f"{state.label}: block [{offset}, {offset + size}) escapes "
                f"the {alloc.capacity}-byte arena"
            )
        if size < requested:
            self._violations.append(
                f"{state.label}: request of {requested} bytes got a "
                f"{size}-byte block"
            )
        if offset in state.live:
            self._violations.append(
                f"{state.label}: offset {offset} allocated twice without a free"
            )
        end = offset + size
        for o, s in state.live.items():
            if o < end and offset < o + s:
                self._violations.append(
                    f"{state.label}: new block [{offset}, {end}) overlaps "
                    f"live block [{o}, {o + s})"
                )

    # -- post-mortem -------------------------------------------------
    def finish(self, detach: bool = True) -> AuditReport:
        """Run teardown checks (leaks, coalescing) and build the report."""
        with self._lock:
            report = AuditReport(
                violations=list(self._violations),
                num_allocs=self._num_allocs,
                num_frees=self._num_frees,
                num_pools=len(self._pools),
            )
            pools = list(self._pools)
        for state in pools:
            report.peak_bytes[state.label] = state.allocator.peak_bytes
            with self._lock:
                leaked = sorted(state.live.items())
            for offset, size in leaked:
                report.violations.append(
                    f"{state.label}: leaked {size}-byte block at offset "
                    f"{offset} (never freed)"
                )
            if state.allocator.bytes_in_use != 0:
                report.violations.append(
                    f"{state.label}: allocator reports "
                    f"{state.allocator.bytes_in_use} bytes still in use at "
                    f"teardown"
                )
            elif not state.allocator.fully_coalesced:
                report.violations.append(
                    f"{state.label}: free blocks failed to coalesce back "
                    f"into the arena root"
                )
            try:
                state.allocator.check_invariants()
            except AssertionError as exc:
                report.violations.append(f"{state.label}: {exc}")
        if detach:
            self.detach_all()
        return report
