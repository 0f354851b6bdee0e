"""Per-device memory: heaps, buffers, and the pooled allocator facade.

A :class:`DeviceHeap` is the device's global memory — one contiguous
numpy byte arena carved up by a :class:`~repro.gpu.buddy.BuddyAllocator`.
A :class:`DeviceBuffer` is the analogue of a raw device pointer: it
records (device, offset, nbytes) and exposes typed numpy views into the
arena.  Buffers are only meaningful on their owning device; the kernel
launcher enforces this, mirroring CUDA's per-context pointers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._lazy import np
from repro.errors import AllocationError, DeviceError
from repro.gpu.buddy import BuddyAllocator, _ceil_pow2

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Device

#: default buddy granularity used by every device heap
DEFAULT_MIN_BLOCK = 256


def pooled_bytes(nbytes: int, min_block: int = DEFAULT_MIN_BLOCK) -> int:
    """Pool bytes a request of *nbytes* actually consumes.

    The static mirror of :meth:`BuddyAllocator.block_size`: requests
    round up to the nearest power-of-two block no smaller than
    *min_block*.  Used by the hflint capacity prediction (HF020) to
    compute placement-group footprints without touching a real pool.
    """
    need = max(int(nbytes), 1)
    return max(_ceil_pow2(need), min_block)


class DeviceBuffer:
    """A device-pointer analogue: a typed slice of a device heap."""

    __slots__ = ("device", "offset", "nbytes", "_dtype", "_view", "_freed")

    def __init__(self, device: "Device", offset: int, nbytes: int, dtype: np.dtype) -> None:
        self.device = device
        self.offset = offset
        self.nbytes = nbytes
        self._dtype = np.dtype(dtype)
        self._view: Optional[np.ndarray] = None
        self._freed = False

    @property
    def dtype(self) -> np.dtype:
        """Element type of the default :meth:`view`; any spelling numpy
        accepts (``np.int32``, ``"f8"``) is stored as a ``np.dtype``."""
        return self._dtype

    @dtype.setter
    def dtype(self, value) -> None:
        self._dtype = np.dtype(value)

    @property
    def size(self) -> int:
        """Number of elements of :attr:`dtype` the buffer holds."""
        return self.nbytes // self._dtype.itemsize

    def view(self, dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Typed numpy view of the device bytes (no copy).

        This is the "dereference" operation kernels use; it is only
        valid while the buffer is live.  The default-dtype view is kept
        until :attr:`dtype` changes: every kernel launch decays its
        pull buffers through here.
        """
        if self._freed:
            raise DeviceError("use of freed device buffer")
        if dtype is None:
            v = self._view
            if v is None or v.dtype is not self._dtype:
                v = self._view = self._typed(self._dtype)
            return v
        return self._typed(np.dtype(dtype))

    def _typed(self, dt: np.dtype) -> np.ndarray:
        raw = self.device.heap.raw[self.offset : self.offset + self.nbytes]
        n = self.nbytes - (self.nbytes % dt.itemsize)
        return raw[:n].view(dt)

    def free(self) -> None:
        """Return the block to the device pool (idempotent)."""
        if not self._freed:
            self.device.heap.free(self)
            self._freed = True

    @property
    def freed(self) -> bool:
        return self._freed

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DeviceBuffer(gpu={self.device.ordinal}, off={self.offset}, "
            f"nbytes={self.nbytes}, dtype={self.dtype})"
        )


class DeviceHeap:
    """A device's global memory arena + pooled buddy allocator."""

    def __init__(
        self, device: "Device", capacity: int, min_block: int = DEFAULT_MIN_BLOCK
    ) -> None:
        self.device = device
        self.allocator = BuddyAllocator(capacity, min_block=min_block)
        self.raw = np.zeros(self.allocator.capacity, dtype=np.uint8)
        self._alloc_count = 0
        self._free_count = 0

    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    @property
    def bytes_in_use(self) -> int:
        return self.allocator.bytes_in_use

    @property
    def alloc_count(self) -> int:
        """Number of successful allocations (pool-hit statistics)."""
        return self._alloc_count

    @property
    def free_count(self) -> int:
        """Number of buffers returned to the pool so far."""
        return self._free_count

    @property
    def outstanding(self) -> int:
        """Live buffer count; nonzero at teardown indicates a leak."""
        return self._alloc_count - self._free_count

    def allocate(self, nbytes: int, dtype: np.dtype | str = "uint8") -> DeviceBuffer:
        """Allocate *nbytes* from the pool and wrap it in a buffer."""
        dt = np.dtype(dtype)
        if nbytes < 0:
            raise AllocationError("allocation size must be non-negative")
        # fault-injection / liveness gate (docs/resilience.md)
        self.device.pre_alloc()
        nbytes = max(int(nbytes), 1)
        offset = self.allocator.allocate(nbytes)
        self._alloc_count += 1
        return DeviceBuffer(self.device, offset, nbytes, dt)

    def allocate_like(self, host_array: np.ndarray) -> DeviceBuffer:
        """Allocate a buffer shaped to hold *host_array*'s bytes."""
        return self.allocate(max(int(host_array.nbytes), 1), dtype=host_array.dtype)

    def stats(self) -> dict:
        """JSON-ready pool snapshot: heap-level buffer accounting on
        top of the allocator's block-level statistics
        (:meth:`BuddyAllocator.stats`)."""
        out = self.allocator.stats()
        out["buffer_allocs"] = self.alloc_count
        out["buffer_frees"] = self.free_count
        out["outstanding"] = self.outstanding
        return out

    def free(self, buffer: DeviceBuffer) -> None:
        if buffer.device is not self.device:
            raise DeviceError(
                f"buffer belongs to GPU {buffer.device.ordinal}, "
                f"not GPU {self.device.ordinal}"
            )
        self.allocator.free(buffer.offset)
        self._free_count += 1
