"""Tests for launch configs, kernel contexts, and argument conversion."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import KernelError
from repro.gpu.kernel import (
    KernelContext,
    LaunchConfig,
    PointerCaster,
    config_for,
    convert_argument,
    launch_sync,
)
from repro.utils.span import Late


class TestLaunchConfig:
    def test_defaults(self):
        c = LaunchConfig()
        assert c.total_threads == 1

    def test_thread_accounting(self):
        c = LaunchConfig(grid=(4, 2, 1), block=(32, 2, 1))
        assert c.threads_per_block == 64
        assert c.num_blocks == 8
        assert c.total_threads == 512

    def test_rejects_oversized_block(self):
        with pytest.raises(KernelError):
            LaunchConfig(block=(2048, 1, 1))

    def test_rejects_zero_dim(self):
        with pytest.raises(KernelError):
            LaunchConfig(grid=(0, 1, 1))

    def test_rejects_negative_shm(self):
        with pytest.raises(KernelError):
            LaunchConfig(shm=-1)

    def test_rejects_non_3tuple(self):
        with pytest.raises(KernelError):
            LaunchConfig(grid=(1, 1))

    def test_with_x_builder(self):
        c = LaunchConfig().with_x(grid_x=7, block_x=128)
        assert c.grid == (7, 1, 1)
        assert c.block == (128, 1, 1)

    def test_config_for_covers_n(self):
        c = config_for(1000, block_x=256)
        assert c.total_threads >= 1000
        assert c.grid == (4, 1, 1)

    def test_config_for_zero(self):
        assert config_for(0).total_threads >= 1

    def test_config_for_negative(self):
        with pytest.raises(KernelError):
            config_for(-1)

    @given(st.integers(0, 10**6), st.sampled_from([32, 64, 128, 256, 1024]))
    def test_config_for_minimal_cover(self, n, bx):
        c = config_for(n, bx)
        assert c.total_threads >= n
        assert c.total_threads - n < bx or n == 0


class TestKernelContext:
    def test_flat_indices_cover_all_threads(self):
        ctx = KernelContext(LaunchConfig(grid=(3, 1, 1), block=(4, 1, 1)), 0)
        assert list(ctx.flat_indices()) == list(range(12))

    def test_block_thread_decomposition(self):
        ctx = KernelContext(LaunchConfig(grid=(2, 1, 1), block=(4, 1, 1)), 0)
        i = ctx.flat_indices()
        assert np.array_equal(
            ctx.block_indices_x() * 4 + ctx.thread_indices_x(), i
        )


class TestConversion:
    def test_buffer_decays_to_view(self, gpu2):
        buf = gpu2.device(0).allocate(16, dtype=np.float32)
        out = convert_argument(buf)
        assert isinstance(out, np.ndarray)
        assert out.dtype == np.float32

    def test_pointer_caster_reinterprets(self, gpu2):
        buf = gpu2.device(0).allocate(8, dtype=np.uint8)
        view = PointerCaster(buf).cast(np.int64)
        assert view.dtype == np.int64 and view.size == 1

    def test_late_resolution(self):
        assert convert_argument(Late(lambda: 99)) == 99

    def test_plain_args_forwarded(self):
        marker = object()
        assert convert_argument(marker) is marker


class TestLaunch:
    def test_guarded_index_kernel(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        n = 100
        buf = d.allocate(n * 8, dtype=np.float64)
        buf.view()[:] = 0

        def fill(ctx, n, out):
            i = ctx.flat_indices()
            i = i[i < n]
            out[i] = i

        launch_sync(s, config_for(n), fill, n, buf)
        assert np.array_equal(buf.view()[:n], np.arange(n, dtype=np.float64))

    def test_whole_array_kernel_without_ctx(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        buf = d.allocate(4 * 8, dtype=np.float64)
        buf.view()[:] = 2.0

        def double(arr):
            arr *= 2

        launch_sync(s, LaunchConfig(), double, buf)
        assert set(buf.view()) == {4.0}

    def test_cross_device_argument_rejected_eagerly(self, gpu2):
        buf0 = gpu2.device(0).allocate(16)
        s1 = gpu2.device(1).create_stream()
        with pytest.raises(KernelError):
            launch_sync(s1, LaunchConfig(), lambda a: None, buf0)
        # nothing was enqueued: the stream ran only the synchronize marker
        s1.synchronize()
        assert s1.ops_executed == 1
        assert gpu2.device(1).kernel_launches.value == 0

    def test_kernel_exception_propagates(self, gpu2):
        s = gpu2.device(0).create_stream()

        def bad():
            raise ValueError("kernel bug")

        with pytest.raises(ValueError):
            launch_sync(s, LaunchConfig(), bad)


class TestContext2D:
    def test_grid_indices_2d_cover_tile(self):
        ctx = KernelContext(LaunchConfig(grid=(2, 2, 1), block=(4, 2, 1)), 0)
        ix, iy = ctx.grid_indices_2d()
        # 8 columns x 4 rows
        assert ix.size == iy.size == 32
        assert ix.max() == 7 and iy.max() == 3
        pairs = set(zip(ix.tolist(), iy.tolist()))
        assert len(pairs) == 32  # every (x, y) exactly once

    def test_2d_kernel_transposes(self, gpu2):
        d = gpu2.device(0)
        s = d.create_stream()
        h, w = 3, 5
        src = d.allocate(h * w * 8, dtype=np.float64)
        dst = d.allocate(h * w * 8, dtype=np.float64)
        src.view()[: h * w] = np.arange(h * w, dtype=np.float64)

        def transpose(ctx, w, h, a, b):
            ix, iy = ctx.grid_indices_2d()
            keep = (ix < w) & (iy < h)
            ix, iy = ix[keep], iy[keep]
            b[ix * h + iy] = a[iy * w + ix]

        cfg = LaunchConfig(grid=(1, 1, 1), block=(8, 4, 1))
        launch_sync(s, cfg, transpose, w, h, src, dst)
        a = src.view()[: h * w].reshape(h, w)
        b = dst.view()[: h * w].reshape(w, h)
        assert np.array_equal(b, a.T)
