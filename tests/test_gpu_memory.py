"""Tests for device heaps and buffers."""

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceError


class TestDeviceBuffer:
    def test_view_roundtrip(self, gpu2):
        d = gpu2.device(0)
        buf = d.allocate(8 * 4, dtype=np.float32)
        buf.view()[:] = np.arange(8, dtype=np.float32)
        assert list(buf.view()) == list(range(8))

    def test_view_is_zero_copy(self, gpu2):
        d = gpu2.device(0)
        buf = d.allocate(16, dtype=np.uint8)
        buf.view()[0] = 42
        assert d.heap.raw[buf.offset] == 42

    def test_typed_reinterpret(self, gpu2):
        buf = gpu2.device(0).allocate(8, dtype=np.uint8)
        buf.view()[:8] = 0
        as_i64 = buf.view(np.int64)
        assert as_i64.size == 1 and as_i64[0] == 0

    def test_size_in_elements(self, gpu2):
        buf = gpu2.device(0).allocate(64, dtype=np.float64)
        assert buf.size == 8

    @pytest.mark.parametrize("spelling", [np.int32, "i4", np.dtype(np.int32)])
    def test_assigned_dtype_is_normalized(self, gpu2, spelling):
        buf = gpu2.device(0).allocate(64, dtype=np.float64)
        buf.view()  # caches the float64 view
        buf.dtype = spelling
        assert buf.dtype == np.dtype(np.int32) and isinstance(buf.dtype, np.dtype)
        assert buf.view().dtype == np.int32 and buf.view().size == buf.size == 16

    def test_use_after_free_raises(self, gpu2):
        buf = gpu2.device(0).allocate(16)
        buf.free()
        with pytest.raises(DeviceError):
            buf.view()

    def test_free_is_idempotent(self, gpu2):
        buf = gpu2.device(0).allocate(16)
        buf.free()
        buf.free()
        assert buf.freed


class TestDeviceHeap:
    def test_allocate_like(self, gpu2):
        arr = np.arange(10, dtype=np.int64)
        buf = gpu2.device(0).heap.allocate_like(arr)
        assert buf.nbytes >= arr.nbytes
        assert buf.dtype == np.int64

    def test_cross_device_free_rejected(self, gpu2):
        buf = gpu2.device(0).allocate(16)
        with pytest.raises(DeviceError):
            gpu2.device(1).heap.free(buf)

    def test_negative_allocation_rejected(self, gpu2):
        with pytest.raises(AllocationError):
            gpu2.device(0).heap.allocate(-1)

    def test_zero_byte_allocation_ok(self, gpu2):
        buf = gpu2.device(0).heap.allocate(0)
        assert buf.nbytes >= 1

    def test_accounting(self, gpu2):
        heap = gpu2.device(0).heap
        before = heap.bytes_in_use
        buf = heap.allocate(100)
        assert heap.bytes_in_use > before
        buf.free()
        assert heap.bytes_in_use == before

    def test_alloc_count_statistics(self, gpu2):
        heap = gpu2.device(0).heap
        start = heap.alloc_count
        heap.allocate(8)
        heap.allocate(8)
        assert heap.alloc_count == start + 2

    def test_exhaustion_raises(self, gpu2):
        heap = gpu2.device(0).heap
        with pytest.raises(AllocationError):
            heap.allocate(heap.capacity * 2)

    def test_isolation_between_devices(self, gpu2):
        b0 = gpu2.device(0).allocate(32, dtype=np.uint8)
        b1 = gpu2.device(1).allocate(32, dtype=np.uint8)
        b0.view()[:] = 1
        b1.view()[:] = 2
        assert set(b0.view()) == {1}
        assert set(b1.view()) == {2}
