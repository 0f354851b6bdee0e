"""Stateful span: the Python analogue of Heteroflow's ``std::span`` use.

Heteroflow's pull/push tasks capture their arguments in a *stateful
tuple*: the span over the host data is constructed when the task
**executes**, not when it is created, so mutations made by upstream host
tasks (e.g. ``vector::resize``) are visible (paper, Listing 4).

:class:`Span` reproduces that late binding.  It stores the constructor
arguments and materializes a concrete numpy view only when
:meth:`host_array` is called.  Accepted argument forms::

    Span(ndarray)            # contiguous numpy array (zero copy)
    Span(ndarray, count)     # leading `count` elements
    Span(list_of_numbers)    # copied in, written back element-wise
    Span(list, count)
    Span(bytearray)          # raw byte block, viewed as uint8
    Span(callable)           # zero-arg factory resolved at execution
                             # time; may return any of the above

The ``callable`` form is the most faithful match for C++ lambdas that
capture by reference; the container forms are stateful because Python
containers are reference types.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from repro._lazy import np
from repro.errors import HeteroflowError


class SpanError(HeteroflowError):
    """Arguments do not describe a contiguous data block."""


def _as_array(obj: Any, count: Optional[int]) -> Tuple[np.ndarray, bool]:
    """Return ``(array, writeback_needed)`` for a host object.

    ``writeback_needed`` is True when the array is a *copy* of the host
    object (lists), so D2H pushes must copy element-wise back into the
    original container.
    """
    if isinstance(obj, np.ndarray):
        if not obj.flags["C_CONTIGUOUS"]:
            raise SpanError("span requires a C-contiguous array")
        arr = obj if count is None else obj.reshape(-1)[:count]
        return arr, False
    if isinstance(obj, (bytearray, memoryview)):
        arr = np.frombuffer(obj, dtype=np.uint8)
        if count is not None:
            arr = arr[:count]
        return arr, False
    if isinstance(obj, (list, tuple)):
        seq: Sequence = obj if count is None else obj[:count]
        if len(seq) == 0:
            return np.empty(0, dtype=np.float64), True
        if all(isinstance(v, (int, np.integer)) for v in seq):
            return np.asarray(seq, dtype=np.int64), True
        return np.asarray(seq, dtype=np.float64), True
    raise SpanError(f"cannot form a span over {type(obj).__name__}")


class Late:
    """A deferred scalar/array argument, resolved at task execution.

    Kernel tasks capture their arguments when the graph is *built*, but
    stateful flows often compute argument values (sample counts, sizes)
    in upstream host tasks.  Wrapping a zero-arg callable in ``Late``
    tells the kernel launcher to call it at launch time — the same
    late-binding the paper's stateful tuple provides for spans.
    """

    __slots__ = ("fn",)

    def __init__(self, fn) -> None:
        if not callable(fn):
            raise SpanError("Late requires a zero-argument callable")
        self.fn = fn

    def resolve(self) -> Any:
        return self.fn()


class Span:
    """Late-bound view over a contiguous block of host data."""

    __slots__ = ("_args",)

    def __init__(self, *args: Any) -> None:
        if not args:
            raise SpanError("span requires at least one argument")
        if len(args) > 2:
            raise SpanError("span takes (object) or (object, count)")
        if len(args) == 2 and not isinstance(args[1], (int, np.integer)):
            raise SpanError("span count must be an integer")
        if len(args) == 2 and args[1] < 0:
            raise SpanError("span count must be non-negative")
        self._args = args

    # -- resolution -------------------------------------------------
    def _resolve(self) -> Tuple[Any, Optional[int]]:
        obj = self._args[0]
        count = self._args[1] if len(self._args) == 2 else None
        if callable(obj) and not isinstance(obj, np.ndarray):
            obj = obj()
            if isinstance(obj, tuple) and len(obj) == 2:
                obj, count = obj
        return obj, count

    def host_array(self) -> np.ndarray:
        """Materialize the current host view as a 1-D numpy array."""
        obj, count = self._resolve()
        arr, _ = _as_array(obj, None if count is None else int(count))
        return arr.reshape(-1)

    def size_bytes(self) -> int:
        """Size of the span in bytes, evaluated against current state."""
        return int(self.host_array().nbytes)

    def __len__(self) -> int:
        return int(self.host_array().size)

    @property
    def dtype(self) -> np.dtype:
        return self.host_array().dtype

    def write_back(self, data: np.ndarray) -> None:
        """Copy *data* (a device-side result) back into the host object.

        For numpy/buffer targets this is an in-place ``copyto``; for
        list targets the elements are written back one by one so the
        caller's container object keeps its identity (matching the
        stateful semantics of push tasks in the paper, Listing 6).
        """
        obj, count = self._resolve()
        arr, needs_copy = _as_array(obj, None if count is None else int(count))
        flat = arr.reshape(-1)
        n = min(flat.size, data.size)
        if needs_copy:
            # list/tuple target: mutate the original container
            if isinstance(obj, tuple):
                raise SpanError("cannot write back into an immutable tuple")
            src = data.reshape(-1)[:n]
            py = src.tolist()
            for i in range(n):
                obj[i] = py[i]
        else:
            np.copyto(flat[:n], data.reshape(-1)[:n].astype(flat.dtype, copy=False))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span(args={self._args!r})"


def make_span(*args: Any) -> Span:
    """Construct a :class:`Span`; mirrors ``make_span_from_tuple``."""
    if len(args) == 1 and isinstance(args[0], Span):
        return args[0]
    return Span(*args)
