"""Kernel launches: grid/block configs, contexts, argument conversion.

Heteroflow launches *native* CUDA kernels (``f<<<grid, block, shm,
stream>>>(convert(args)...)``).  The Python analogue launches ordinary
callables onto a device stream:

- a :class:`LaunchConfig` carries the grid/block/shared-memory shape —
  it parameterizes the cost model and the vectorized thread-index
  helpers;
- :class:`PointerCaster` reproduces the paper's argument conversion
  (Listing 9): device buffers become typed numpy views of device
  memory, everything else is forwarded untouched;
- kernels whose first parameter is named ``ctx`` receive a
  :class:`KernelContext` exposing vectorized ``blockIdx``/``threadIdx``
  index arrays, so classic guarded-index CUDA kernels port directly::

      def saxpy(ctx, n, a, x, y):
          i = ctx.flat_indices()          # one entry per CUDA thread
          i = i[i < n]                    # the `if (i < n)` guard
          y[i] = a * x[i] + y[i]

  Kernels without a ``ctx`` parameter are treated as whole-array
  (numpy-vectorized) kernels and simply invoked on the views.
"""

from __future__ import annotations

import inspect
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple

from repro._lazy import np
from repro.errors import KernelError
from repro.gpu.memory import DeviceBuffer
from repro.gpu.stream import Stream
from repro.utils.span import Late

#: Hardware-style cap on threads per block (matches CUDA's 1024).
MAX_THREADS_PER_BLOCK = 1024


@dataclass
class LaunchConfig:
    """Grid/block geometry and dynamic shared memory for a launch."""

    grid: Tuple[int, int, int] = (1, 1, 1)
    block: Tuple[int, int, int] = (1, 1, 1)
    shm: int = 0

    def __post_init__(self) -> None:
        self.grid = tuple(int(v) for v in self.grid)  # type: ignore[assignment]
        self.block = tuple(int(v) for v in self.block)  # type: ignore[assignment]
        if len(self.grid) != 3 or len(self.block) != 3:
            raise KernelError("grid and block must be 3-tuples")
        if any(v <= 0 for v in self.grid) or any(v <= 0 for v in self.block):
            raise KernelError("grid/block dimensions must be positive")
        if self.threads_per_block > MAX_THREADS_PER_BLOCK:
            raise KernelError(
                f"block of {self.threads_per_block} threads exceeds the "
                f"{MAX_THREADS_PER_BLOCK}-thread limit"
            )
        if self.shm < 0:
            raise KernelError("shared memory size must be non-negative")

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    @property
    def num_blocks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.threads_per_block

    def with_x(self, grid_x: Optional[int] = None, block_x: Optional[int] = None) -> "LaunchConfig":
        """Copy with updated x dimensions (builder-style helper)."""
        g = list(self.grid)
        b = list(self.block)
        if grid_x is not None:
            g[0] = grid_x
        if block_x is not None:
            b[0] = block_x
        return LaunchConfig(tuple(g), tuple(b), self.shm)


class KernelContext:
    """Vectorized thread-index helpers for one kernel launch."""

    __slots__ = ("config", "device_ordinal")

    def __init__(self, config: LaunchConfig, device_ordinal: int) -> None:
        self.config = config
        self.device_ordinal = device_ordinal

    @property
    def grid(self) -> Tuple[int, int, int]:
        return self.config.grid

    @property
    def block(self) -> Tuple[int, int, int]:
        return self.config.block

    @property
    def total_threads(self) -> int:
        return self.config.total_threads

    def flat_indices(self) -> np.ndarray:
        """Global linear thread index, one entry per launched thread.

        Equivalent to ``blockIdx.x * blockDim.x + threadIdx.x`` for a
        1-D launch, generalized to the flattened 3-D geometry.
        """
        return np.arange(self.config.total_threads, dtype=np.int64)

    def block_indices_x(self) -> np.ndarray:
        """``blockIdx.x`` per thread (1-D geometry helpers)."""
        return self.flat_indices() // self.config.threads_per_block

    def thread_indices_x(self) -> np.ndarray:
        """``threadIdx.x`` per thread (1-D geometry helpers)."""
        return self.flat_indices() % self.config.threads_per_block

    def grid_indices_2d(self) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized 2-D global indices ``(ix, iy)``.

        Covers ``grid.x * block.x`` columns by ``grid.y * block.y``
        rows — one (ix, iy) pair per launched thread of a 2-D launch,
        flattened row-major.  The standard tiled-matrix idiom::

            ix, iy = ctx.grid_indices_2d()
            keep = (ix < w) & (iy < h)
            out[iy[keep] * w + ix[keep]] = ...
        """
        gx, gy, _ = self.config.grid
        bx, by, _ = self.config.block
        nx, ny = gx * bx, gy * by
        iy, ix = np.divmod(np.arange(nx * ny, dtype=np.int64), nx)
        return ix, iy


class PointerCaster:
    """Argument conversion from a device buffer to a kernel pointer.

    The paper's ``PointerCaster`` casts a raw ``void*`` to whatever
    pointer type the kernel parameter declares.  Here the "pointer" is
    a typed numpy view of device memory; :meth:`cast` reinterprets the
    underlying bytes just as a C pointer cast would.
    """

    __slots__ = ("buffer",)

    def __init__(self, buffer: DeviceBuffer) -> None:
        self.buffer = buffer

    def cast(self, dtype: Optional[np.dtype] = None) -> np.ndarray:
        return self.buffer.view(dtype)


def convert_argument(arg: Any) -> Any:
    """Paper Listing 9: device buffers decay to views, :class:`Late`
    arguments resolve, everything else is forwarded untouched."""
    if isinstance(arg, DeviceBuffer):
        return arg.view()
    if isinstance(arg, PointerCaster):
        return arg.cast()
    if isinstance(arg, Late):
        return arg.resolve()
    return arg


def _signature_wants_context(fn: Callable) -> bool:
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return False
    return bool(params) and params[0] == "ctx"


#: callable -> wants_context(callable).  Weak keys: an entry lives only
#: as long as its kernel (a graph node holds its kernel for the graph's
#: lifetime), so per-run wrappers such as the sanitizer's shims and the
#: data their closures capture are never kept alive by the cache.
_WANTS_CONTEXT: "weakref.WeakKeyDictionary[Callable, bool]" = (
    weakref.WeakKeyDictionary()
)


def wants_context(fn: Callable) -> bool:
    """Does kernel *fn* take a :class:`KernelContext` first?

    True when the first parameter of ``inspect.signature(fn)`` is named
    ``ctx`` — so a bound method ``def k(self, ctx, v)``, a
    ``functools.partial`` over a ctx kernel and a callable instance
    whose ``__call__`` takes ``ctx`` all qualify.  The answer is cached
    per callable (``inspect.signature`` costs tens of microseconds, paid
    once instead of once per launch); callables that are unhashable or
    cannot be weakly referenced are checked on every call.
    """
    try:
        return _WANTS_CONTEXT[fn]
    except KeyError:
        pass
    except TypeError:  # unhashable, or not weakly referenceable
        return _signature_wants_context(fn)
    wants = _signature_wants_context(fn)
    _WANTS_CONTEXT[fn] = wants
    return wants


class KernelLaunch:
    """A kernel launch compiled once: *fn* under *config* over *args*,
    each argument sorted by what a launch must do to it.

    *pulls* are ``(position, pull)`` pairs: that argument is the buffer
    ``pull.buffer`` holds at each launch.  Other device buffers,
    :class:`PointerCaster` and :class:`Late` arguments are converted
    when the op runs; the rest pass through.  The executor compiles one
    per kernel slot per graph lowering; :func:`launch_async` one per call.
    """

    __slots__ = ("name", "config", "fn", "args", "pulls", "convert", "devptrs", "wants_ctx")

    def __init__(
        self,
        config: LaunchConfig,
        fn: Callable,
        args: Sequence[Any],
        pulls: Sequence[Tuple[int, Any]] = (),
        name: str = "kernel",
    ) -> None:
        self.name = name
        self.config = config
        self.fn = fn
        self.args = tuple(args)
        self.pulls = tuple(pulls)
        taken = [i for i, _ in self.pulls]
        kinds = (DeviceBuffer, PointerCaster, Late)
        self.convert = tuple(
            i for i, a in enumerate(self.args) if i not in taken and isinstance(a, kinds)
        )
        #: positions of the other device buffers: device-checked at
        #: each launch like the pulls' buffers
        self.devptrs = tuple(
            i for i in self.convert if isinstance(self.args[i], DeviceBuffer)
        )
        self.wants_ctx = wants_context(fn)

    def enqueue(self, stream: Stream, callback=None, fn=None) -> None:
        """Enqueue the op on *stream* (non-blocking), each pull's buffer
        in place of its handle; *fn* replaces the kernel (the
        sanitizer's shim, same leading parameters).  Every device
        buffer must live on the stream's device (CUDA's
        unified-addressing check), else :class:`KernelError` — before
        anything is enqueued."""
        device = stream.device
        args = list(self.args)
        for i, pull in self.pulls:
            buf = args[i] = pull.buffer
            if buf is None:
                raise KernelError(
                    f"kernel {self.name!r} ran before pull task "
                    f"{pull.name!r}; add the missing dependency"
                )
            if buf.device is not device:
                self._foreign(buf, device)
        if self.devptrs:  # usually empty: skip the loop set-up
            for i in self.devptrs:
                if args[i].device is not device:
                    self._foreign(args[i], device)
        device.kernel_launches.inc()
        stream.enqueue(partial(self.run, device, args, self.fn if fn is None else fn), callback)

    @staticmethod
    def _foreign(buf: DeviceBuffer, device) -> None:
        raise KernelError(
            f"kernel argument lives on GPU {buf.device.ordinal} "
            f"but the launch targets GPU {device.ordinal}"
        )

    def run(self, device, args: list, fn: Callable) -> None:
        """The op body, on the dispatcher: pull buffers decay to views,
        the other arguments convert (:class:`Late` ones resolve) on
        every launch, then *fn* runs."""
        if device.guarded:
            # kernel-level fault-injection gate (docs/resilience.md)
            device.pre_kernel()
        for i, _ in self.pulls:
            args[i] = args[i].view()
        if self.convert:  # usually empty: skip the loop set-up
            for i in self.convert:
                args[i] = convert_argument(args[i])
        if self.wants_ctx:
            fn(KernelContext(self.config, device.ordinal), *args)
        else:
            fn(*args)

    def call(self, fn: Callable, args: list, ordinal: int, wants_ctx: bool) -> None:
        """Invoke *fn* as :meth:`run` does, given a
        :class:`KernelContext` first when *wants_ctx* (a host fallback
        passes its own answer, ordinal -1)."""
        if wants_ctx:
            fn(KernelContext(self.config, ordinal), *args)
        else:
            fn(*args)


def launch_async(
    stream: Stream,
    config: LaunchConfig,
    fn: Callable,
    *args: Any,
    callback: Optional[Callable[[Optional[BaseException]], None]] = None,
) -> None:
    """Enqueue kernel *fn* on *stream* with *config* (non-blocking).
    A device buffer argument on another device raises
    :class:`KernelError` before anything is enqueued."""
    KernelLaunch(config, fn, args).enqueue(stream, callback)


def launch_sync(stream: Stream, config: LaunchConfig, fn: Callable, *args: Any) -> None:
    """Launch and wait; convenience for tests and simple examples."""
    launch_async(stream, config, fn, *args)
    stream.synchronize()


def config_for(n: int, block_x: int = 256) -> LaunchConfig:
    """1-D launch covering *n* elements: the ``(N+255)/256`` idiom."""
    if n < 0:
        raise KernelError("element count must be non-negative")
    blocks = max((n + block_x - 1) // block_x, 1)
    return LaunchConfig(grid=(blocks, 1, 1), block=(block_x, 1, 1))
