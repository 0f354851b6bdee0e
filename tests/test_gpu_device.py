"""Tests for devices, scoped contexts, and async memcpy."""

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.gpu.device import GpuRuntime, ScopedDeviceContext, current_device
from repro.gpu.stream import Event


class TestRuntime:
    def test_device_count(self, gpu2):
        assert gpu2.device_count == 2

    def test_invalid_ordinal(self, gpu2):
        with pytest.raises(DeviceError):
            gpu2.device(2)
        with pytest.raises(DeviceError):
            gpu2.device(-1)

    def test_negative_count_rejected(self):
        with pytest.raises(DeviceError):
            GpuRuntime(-1)

    def test_zero_gpu_runtime(self):
        rt = GpuRuntime(0)
        assert rt.device_count == 0
        rt.destroy()

    def test_context_manager_destroys(self):
        with GpuRuntime(1) as rt:
            s = rt.device(0).create_stream()
        # streams are down; enqueue must fail
        with pytest.raises(DeviceError):
            s.enqueue(lambda: None)


class TestScopedContext:
    def test_scope_sets_and_restores(self, gpu2):
        assert current_device() is None
        with ScopedDeviceContext(gpu2.device(1)) as d:
            assert current_device() is d
            with ScopedDeviceContext(gpu2.device(0)):
                assert current_device().ordinal == 0
            assert current_device().ordinal == 1
        assert current_device() is None

    def test_scope_restores_on_exception(self, gpu2):
        with pytest.raises(RuntimeError):
            with ScopedDeviceContext(gpu2.device(0)):
                raise RuntimeError("boom")
        assert current_device() is None


class TestMemcpy:
    def test_h2d_then_d2h_roundtrip(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        src = np.arange(100, dtype=np.float64)
        buf = d.allocate(src.nbytes, dtype=src.dtype)
        gpu2.memcpy_h2d_async(buf, src, s)
        out = np.zeros_like(src)
        gpu2.memcpy_d2h_async(out, buf, s)
        s.synchronize()
        assert np.array_equal(out, src)

    def test_h2d_wrong_device_stream_rejected(self, gpu2):
        buf = gpu2.device(0).allocate(16)
        s1 = gpu2.device(1).create_stream()
        with pytest.raises(DeviceError):
            gpu2.memcpy_h2d_async(buf, np.zeros(4, dtype=np.float32), s1)

    def test_d2d_peer_copy(self, gpu2):
        d0, d1 = gpu2.device(0), gpu2.device(1)
        s = d1.create_stream()
        a = d0.allocate(16, dtype=np.uint8)
        b = d1.allocate(16, dtype=np.uint8)
        a.view()[:] = 9
        gpu2.memcpy_d2d_async(b, a, s)
        s.synchronize()
        assert set(b.view()) == {9}

    def test_copy_respects_stream_order(self, gpu2):
        """An H2D copy snapshots the host buffer when the op runs, so a
        prior enqueued mutation is visible (stream ordering)."""
        d = gpu2.device(0)
        s = d.create_stream()
        host = np.zeros(8, dtype=np.int64)
        buf = d.allocate(host.nbytes, dtype=host.dtype)
        s.enqueue(lambda: host.__setitem__(slice(None), 5))
        gpu2.memcpy_h2d_async(buf, host, s)
        s.synchronize()
        assert set(buf.view()) == {5}

    def test_runtime_synchronize_drains_all(self, gpu2):
        flags = []
        for i in range(2):
            gpu2.device(i).create_stream().enqueue(lambda i=i: flags.append(i))
        gpu2.synchronize()
        assert sorted(flags) == [0, 1]


class TestRoundTrip:
    def test_cuda_style_roundtrip(self, gpu2):
        """The cudaMalloc / cudaMemcpyAsync / cudaEventRecord round trip
        of the paper's listings, through the object API."""
        s = gpu2.device(0).create_stream()
        buf = gpu2.device(0).allocate(32, dtype=np.float32)
        src = np.arange(8, dtype=np.float32)
        gpu2.memcpy_h2d_async(buf, src, s)
        ev = Event()
        s.record_event(ev)
        ev.synchronize()
        out = np.zeros(8, dtype=np.float32)
        gpu2.memcpy_d2h_async(out, buf, s)
        s.synchronize()
        assert np.array_equal(out, src)
        buf.free()
        assert gpu2.device_count == 2


class TestMemset:
    def test_memset_fills_bytes(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        buf = d.allocate(64, dtype=np.uint8)
        gpu2.memset_async(buf, 7, s)
        s.synchronize()
        assert set(buf.view()) == {7}

    def test_memset_zero_for_floats(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        buf = d.allocate(8 * 8, dtype=np.float64)
        buf.view()[:] = 3.5
        gpu2.memset_async(buf, 0, s)
        s.synchronize()
        assert set(buf.view()) == {0.0}

    def test_memset_rejects_bad_value(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        buf = d.allocate(8)
        with pytest.raises(DeviceError):
            gpu2.memset_async(buf, 300, s)

    def test_memset_rejects_wrong_stream(self, gpu2):
        buf = gpu2.device(0).allocate(8)
        s1 = gpu2.device(1).create_stream()
        with pytest.raises(DeviceError):
            gpu2.memset_async(buf, 0, s1)
