"""Devices, the GPU runtime, and scoped device contexts.

:class:`GpuRuntime` owns a fixed set of :class:`Device` objects — the
analogue of the CUDA driver's device enumeration.  Each executor
creates its own runtime so tests and applications are isolated.

:class:`ScopedDeviceContext` reproduces the RAII mechanism the paper
describes for scoping task execution under an assigned GPU (Listing
13): entering the context makes the device "current" for the calling
thread; exiting restores the previous device.  A stream's dispatcher
thread is scoped to the stream's device for its whole life, so a
kernel body sees its own device (:func:`current_device`).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Set

from repro._lazy import np
from repro.errors import DeviceError, DeviceFailedError
from repro.gpu.memory import DeviceBuffer, DeviceHeap
from repro.gpu.stream import Stream
from repro.metrics.registry import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.faults import FaultProfile, FaultState

#: Default simulated global-memory size per device (64 MiB). Small by
#: real-GPU standards but ample for the reproduction workloads; tests
#: exercise pool exhaustion by shrinking it.
DEFAULT_MEMORY_BYTES = 64 * 1024 * 1024


class _ThreadDevice(threading.local):
    #: the calling thread's current device (None outside any scope)
    device: Optional["Device"] = None


#: per-thread current device: ``thread_device.device``; the executor
#: sets and restores it around each GPU launch
thread_device = _ThreadDevice()


def current_device() -> Optional["Device"]:
    """The calling thread's current device, or ``None`` outside a scope."""
    return thread_device.device


class Device:
    """One simulated GPU: an ordinal, a memory heap, and streams."""

    def __init__(
        self,
        ordinal: int,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
        guarded: Optional[Set[int]] = None,
    ) -> None:
        """*guarded*: the owning runtime's set of ordinals whose device
        died or has a fault profile armed (:attr:`GpuRuntime.guarded`)."""
        self.ordinal = ordinal
        # liveness/fault state must exist before the heap: the heap's
        # allocation path consults pre_alloc()
        self._alive = True
        self._fault_state: Optional["FaultState"] = None
        self._runtime_guarded: Set[int] = set() if guarded is None else guarded
        #: True once the device died or while a fault profile is armed:
        #: only then must an op pass :meth:`pre_op` / :meth:`pre_kernel`
        #: (one attribute test on the healthy path)
        self.guarded = False
        self.heap = DeviceHeap(self, memory_bytes)
        self._streams: List[Stream] = []
        self._lock = threading.Lock()
        # traffic counters (docs/observability.md): copy bytes count on
        # the dispatcher thread when the op actually runs; kernel
        # launches count at enqueue.  Sharded counters — safe from any
        # mix of worker and dispatcher threads, no locks.
        self.h2d_bytes = Counter(f"gpu{ordinal}.h2d_bytes")
        self.d2h_bytes = Counter(f"gpu{ordinal}.d2h_bytes")
        self.d2d_bytes = Counter(f"gpu{ordinal}.d2d_bytes")
        self.memset_ops = Counter(f"gpu{ordinal}.memset_ops")
        self.kernel_launches = Counter(f"gpu{ordinal}.kernel_launches")

    def create_stream(self, name: str = "") -> Stream:
        """Create a new in-order stream on this device."""
        s = Stream(self, name=name)
        with self._lock:
            self._streams.append(s)
        return s

    @property
    def streams(self) -> List[Stream]:
        with self._lock:
            return list(self._streams)

    # -- convenience memory ops (synchronous wrappers) --------------
    def allocate(self, nbytes: int, dtype: np.dtype | str = "uint8") -> DeviceBuffer:
        return self.heap.allocate(nbytes, dtype=dtype)

    def synchronize(self) -> None:
        """Wait for every stream on this device to drain.

        A failed device is skipped: its streams only reject work, and
        the executor has already quarantined them.
        """
        if not self._alive:
            return
        for s in self.streams:
            s.synchronize()

    # -- liveness & fault injection (docs/resilience.md) -------------
    @property
    def alive(self) -> bool:
        """False once the device has failed (injected or quarantined)."""
        return self._alive

    def fail(self) -> None:
        """Declare the whole device dead (idempotent).

        Any dispatcher blocked in an injected stall is released so the
        stream can drain and tear down; the released op raises instead
        of running its payload.
        """
        self._alive = False
        self.guarded = True
        self._runtime_guarded.add(self.ordinal)
        fs = self._fault_state
        if fs is not None:
            fs.release()

    def configure_faults(self, profile: "FaultProfile", seed: int = 0) -> "FaultState":
        """Arm a seeded fault profile on this device.

        The profile's triggers draw from a child seed derived per
        ordinal, so one (profile, seed) pair arms a whole runtime with
        distinct but reproducible per-device fault streams.
        """
        from repro.resilience.faults import FaultState
        from repro.utils.rng import derive_seed

        state = FaultState(profile, derive_seed(seed, "gpu", self.ordinal))
        self._fault_state = state
        self.guarded = True
        self._runtime_guarded.add(self.ordinal)
        return state

    def clear_faults(self) -> None:
        """Disarm fault injection (releases any held stall)."""
        fs = self._fault_state
        self._fault_state = None
        self.guarded = not self._alive
        if self._alive:
            self._runtime_guarded.discard(self.ordinal)
        if fs is not None:
            fs.release()

    @property
    def fault_state(self) -> Optional["FaultState"]:
        return self._fault_state

    def pre_op(self) -> None:
        """Dispatcher hook before every stream op payload."""
        if not self._alive:
            raise DeviceFailedError(self.ordinal)
        fs = self._fault_state
        if fs is not None:
            fs.on_op(self)

    def pre_kernel(self) -> None:
        """Hook inside every kernel-launch op body."""
        if not self._alive:
            raise DeviceFailedError(self.ordinal)
        fs = self._fault_state
        if fs is not None:
            fs.on_kernel(self)

    def pre_alloc(self) -> None:
        """Hook before every heap pool allocation."""
        if not self._alive:
            raise DeviceFailedError(self.ordinal)
        fs = self._fault_state
        if fs is not None:
            fs.on_alloc(self)

    def stats(self) -> dict:
        """JSON-ready device statistics snapshot.

        Aggregates stream activity (op counts, busy seconds), transfer
        traffic, kernel launches, and the buddy pool's footprint; this
        is the value of the executor's ``gpu<N>`` metric callback
        (docs/observability.md).
        """
        streams = self.streams
        return {
            "streams": len(streams),
            "ops_executed": sum(s.ops_executed for s in streams),
            "busy_seconds": sum(s.busy_seconds for s in streams),
            "h2d_bytes": self.h2d_bytes.value,
            "d2h_bytes": self.d2h_bytes.value,
            "d2d_bytes": self.d2d_bytes.value,
            "memset_ops": self.memset_ops.value,
            "kernel_launches": self.kernel_launches.value,
            "pool": self.heap.stats(),
        }

    def destroy(self) -> None:
        # release any dispatcher held in an injected stall first, or
        # the sentinel join below would deadlock
        fs = self._fault_state
        if fs is not None:
            fs.release()
        for s in self.streams:
            s.destroy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"Device(ordinal={self.ordinal})"


class ScopedDeviceContext:
    """RAII-style device scoping (``cudaSetDevice`` analogue)."""

    def __init__(self, device: Device) -> None:
        self._device = device
        self._previous: Optional[Device] = None

    def __enter__(self) -> Device:
        self._previous = thread_device.device
        thread_device.device = self._device
        return self._device

    def __exit__(self, *exc) -> None:
        thread_device.device = self._previous


class GpuRuntime:
    """A private enumeration of simulated devices.

    Mirrors the executor-owned GPU state in the paper: per-device
    memory pools and per-(worker, device) streams are all reachable
    from here.
    """

    def __init__(
        self,
        num_devices: int,
        memory_bytes: int = DEFAULT_MEMORY_BYTES,
    ) -> None:
        if num_devices < 0:
            raise DeviceError("device count must be non-negative")
        #: ordinals of the devices that died or have a fault profile
        #: armed; the set object never changes, so a holder reads it
        #: with one attribute test
        self.guarded: Set[int] = set()
        self._devices = [
            Device(i, memory_bytes, self.guarded) for i in range(num_devices)
        ]
        self._destroyed = False

    @property
    def device_count(self) -> int:
        return len(self._devices)

    def device(self, ordinal: int) -> Device:
        if not 0 <= ordinal < len(self._devices):
            raise DeviceError(
                f"invalid device ordinal {ordinal} "
                f"(runtime has {len(self._devices)} devices)"
            )
        return self._devices[ordinal]

    @property
    def devices(self) -> List[Device]:
        return list(self._devices)

    def scoped(self, ordinal: int) -> ScopedDeviceContext:
        """Context manager scoping the caller under device *ordinal*."""
        return ScopedDeviceContext(self.device(ordinal))

    # -- async memory movement (host <-> device) --------------------
    def memcpy_h2d_async(
        self,
        dst: DeviceBuffer,
        src: np.ndarray,
        stream: Stream,
        callback: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """``cudaMemcpyAsync(..., H2D, stream)`` analogue.

        *src* is snapshot-copied on the dispatcher thread when the op
        runs, preserving stream ordering semantics.
        """
        if stream.device is not dst.device:
            raise DeviceError("H2D copy stream must live on the destination device")

        def op() -> None:
            flat = np.ascontiguousarray(src).reshape(-1)
            raw = flat.view(np.uint8)
            n = min(raw.nbytes, dst.nbytes)
            dst.device.heap.raw[dst.offset : dst.offset + n] = raw[:n]
            dst.device.h2d_bytes.inc(n)

        stream.enqueue(op, callback=callback)

    def memcpy_d2h_async(
        self,
        dst: np.ndarray,
        src: DeviceBuffer,
        stream: Stream,
        callback: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """``cudaMemcpyAsync(..., D2H, stream)`` analogue."""
        if stream.device is not src.device:
            raise DeviceError("D2H copy stream must live on the source device")

        def op() -> None:
            raw = src.device.heap.raw[src.offset : src.offset + src.nbytes]
            flat = dst.reshape(-1)
            view = flat.view(np.uint8)
            n = min(raw.nbytes, view.nbytes)
            view[:n] = raw[:n]
            src.device.d2h_bytes.inc(n)

        stream.enqueue(op, callback=callback)

    def memcpy_d2d_async(
        self,
        dst: DeviceBuffer,
        src: DeviceBuffer,
        stream: Stream,
        callback: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """Peer copy between device buffers (same or different GPUs)."""

        def op() -> None:
            raw = src.device.heap.raw[src.offset : src.offset + src.nbytes]
            n = min(src.nbytes, dst.nbytes)
            dst.device.heap.raw[dst.offset : dst.offset + n] = raw[:n]
            dst.device.d2d_bytes.inc(n)

        stream.enqueue(op, callback=callback)

    def memset_async(
        self,
        dst: DeviceBuffer,
        value: int,
        stream: Stream,
        callback: Optional[Callable[[Optional[BaseException]], None]] = None,
    ) -> None:
        """``cudaMemsetAsync`` analogue: fill the buffer's bytes."""
        if not 0 <= int(value) <= 255:
            raise DeviceError("memset value must be a byte (0-255)")
        if stream.device is not dst.device:
            raise DeviceError("memset stream must live on the buffer's device")

        def op() -> None:
            dst.device.heap.raw[dst.offset : dst.offset + dst.nbytes] = int(value)
            dst.device.memset_ops.inc()

        stream.enqueue(op, callback=callback)

    def synchronize(self) -> None:
        """Drain every stream on every device."""
        for d in self._devices:
            d.synchronize()

    def destroy(self) -> None:
        """Stop all dispatcher threads (idempotent)."""
        if self._destroyed:
            return
        self._destroyed = True
        for d in self._devices:
            d.destroy()

    def __enter__(self) -> "GpuRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.destroy()
