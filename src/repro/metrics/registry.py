"""Lock-cheap metric primitives and the registry that names them.

Hot-path design: the executor increments counters on every task, steal
attempt, and sleep transition, so an instrument must cost roughly one
dict/list store — never a shared lock.  Two sharding strategies keep
updates contention-free under CPython:

- **per-thread shards** (:class:`Counter`, :class:`MaxGauge`,
  :class:`Histogram`): each updating thread writes only its own cell
  (keyed by ``threading.get_ident()``); readers aggregate across
  cells.  Distinct-key dict stores are atomic under the GIL, so
  updates need no lock and never contend;
- **per-lane slots** (:class:`LaneCounter`): a fixed list indexed by
  worker id, where lane *i* is only ever written by worker *i* — the
  natural shape for the executor's per-worker statistics, and the
  per-lane breakdown is itself the interesting output.  A thread that
  counts on another thread's behalf (a GPU stream dispatcher launching
  work for a worker) adds to per-thread shards of the lanes instead.

Reads (``value`` / ``snapshot``) are taken while writers may still be
running; they are *eventually consistent* — each cell is read
atomically, but the aggregate may straddle concurrent updates.  That
is the standard monitoring trade-off; quiesce the executor (e.g.
``wait_for_all``) for exact numbers.

A :class:`MetricsRegistry` names instruments (dotted, e.g.
``executor.tasks_executed``) and also accepts **callback gauges** —
zero-cost "pull" metrics read from live objects (stream op counts,
buddy-pool footprints) only when a snapshot is taken.  The full metric
catalog lives in ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from threading import get_ident
from typing import Callable, Dict, List, Sequence, Union

MetricValue = Union[int, float, List[int], List[float], Dict[str, float]]


class Counter:
    """Monotonic counter; per-thread shards, no lock on increment."""

    __slots__ = ("name", "_cells")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._cells: Dict[int, float] = {}

    def inc(self, n: Union[int, float] = 1) -> None:
        """Add *n* (>= 0); safe to call from any thread."""
        tid = get_ident()
        cells = self._cells
        cells[tid] = cells.get(tid, 0) + n

    @property
    def value(self) -> Union[int, float]:
        """Sum across all updating threads."""
        return sum(self._cells.values())


class LaneCounter:
    """Per-lane counter where lane *i* is owned by one thread.

    The executor's shape: ``lanes == num_workers`` and worker *i*
    increments only lane *i* through :meth:`inc`, so updates are plain
    list stores with no sharing at all.  Any other thread counting for
    a lane uses :meth:`inc_sharded`, which writes a per-thread copy of
    the lanes (the :class:`Counter` scheme), so no increment is lost.
    :meth:`per_lane` sums both per lane (the steal/imbalance statistics
    of the report); ``value`` sums the lanes.
    """

    __slots__ = ("name", "_cells", "_shards")

    def __init__(self, lanes: int, name: str = "") -> None:
        self.name = name
        self._cells: List[int] = [0] * lanes
        #: thread ident -> that thread's increments, per lane
        self._shards: Dict[int, List[int]] = {}

    def inc(self, lane: int, n: int = 1) -> None:
        """Add *n* to *lane*; only the lane's owner thread may call."""
        self._cells[lane] += n

    def inc_sharded(self, lane: int, n: int = 1) -> None:
        """Add *n* to *lane* from any thread."""
        self.cells(False)[lane] += n

    def cells(self, owner: bool) -> List[int]:
        """The per-lane list the calling thread adds to directly
        (``cells[lane] += n``): the lanes' own cells when the thread
        owns the lanes it will count (the :meth:`inc` store), else this
        thread's shard (the :meth:`inc_sharded` store).  Either list
        stays the thread's for the counter's life, so a thread may look
        it up once and keep it: a loop that counts many times saves a
        call per increment."""
        if owner:
            return self._cells
        tid = get_ident()
        cells = self._shards.get(tid)
        if cells is None:
            cells = self._shards[tid] = [0] * len(self._cells)
        return cells

    @property
    def value(self) -> int:
        return sum(self.per_lane())

    def per_lane(self) -> List[int]:
        out = list(self._cells)
        for cells in list(self._shards.values()):
            for lane, n in enumerate(cells):
                out[lane] += n
        return out


class Gauge:
    """Last-write-wins scalar (a single store; atomic under the GIL)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str = "", initial: float = 0) -> None:
        self.name = name
        self._value: Union[int, float] = initial

    def set(self, v: Union[int, float]) -> None:
        self._value = v

    @property
    def value(self) -> Union[int, float]:
        return self._value


class MaxGauge:
    """High-water-mark gauge; per-thread shards, no lock on observe."""

    __slots__ = ("name", "_cells")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._cells: Dict[int, float] = {}

    def observe(self, v: Union[int, float]) -> None:
        tid = get_ident()
        cells = self._cells
        prev = cells.get(tid)
        if prev is None or v > prev:
            cells[tid] = v

    @property
    def value(self) -> Union[int, float]:
        return max(self._cells.values(), default=0)


#: default histogram bucket upper bounds (seconds): 1us .. 10s, log-ish
DEFAULT_BOUNDS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram; per-thread shards, no lock on observe.

    Each thread owns a ``[count, sum, min, max, b0, b1, ...]`` cell
    (one bucket per bound, plus a final overflow bucket); a snapshot
    merges the cells.  Bounds are upper-inclusive.
    """

    __slots__ = ("name", "bounds", "_cells")

    def __init__(self, name: str = "", bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds: List[float] = sorted(float(b) for b in bounds)
        self._cells: Dict[int, List[float]] = {}

    def observe(self, v: float) -> None:
        tid = get_ident()
        cell = self._cells.get(tid)
        if cell is None:
            cell = [0, 0.0, float("inf"), float("-inf")] + [0] * (len(self.bounds) + 1)
            self._cells[tid] = cell
        cell[0] += 1
        cell[1] += v
        if v < cell[2]:
            cell[2] = v
        if v > cell[3]:
            cell[3] = v
        # bucket index: first bound >= v (upper-inclusive), else overflow
        idx = bisect_right(self.bounds, v)
        if idx > 0 and self.bounds[idx - 1] == v:
            idx -= 1
        cell[4 + idx] += 1

    def snapshot(self) -> Dict[str, float]:
        """Merged ``{count, sum, min, max, buckets}`` view."""
        count = 0
        total = 0.0
        vmin, vmax = float("inf"), float("-inf")
        buckets = [0] * (len(self.bounds) + 1)
        for cell in list(self._cells.values()):
            count += int(cell[0])
            total += cell[1]
            vmin = min(vmin, cell[2])
            vmax = max(vmax, cell[3])
            for i, b in enumerate(cell[4:]):
                buckets[i] += int(b)
        return {
            "count": count,
            "sum": total,
            "min": vmin if count else 0.0,
            "max": vmax if count else 0.0,
            "buckets": buckets,  # type: ignore[dict-item]
        }


class MetricsRegistry:
    """Named instruments + pull-style callbacks, snapshotted together.

    Creation methods are idempotent on the name (the existing
    instrument is returned), so layers can grab a handle without
    coordinating.  Registration takes a lock; updates never do.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, object] = {}
        self._callbacks: Dict[str, Callable[[], MetricValue]] = {}

    # -- instrument factories ---------------------------------------
    def counter(self, name: str) -> Counter:
        return self._get_or_make(name, lambda: Counter(name), Counter)

    def lane_counter(self, name: str, lanes: int) -> LaneCounter:
        return self._get_or_make(name, lambda: LaneCounter(lanes, name), LaneCounter)

    def gauge(self, name: str, initial: float = 0) -> Gauge:
        return self._get_or_make(name, lambda: Gauge(name, initial), Gauge)

    def max_gauge(self, name: str) -> MaxGauge:
        return self._get_or_make(name, lambda: MaxGauge(name), MaxGauge)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BOUNDS) -> Histogram:
        return self._get_or_make(name, lambda: Histogram(name, bounds), Histogram)

    def register_callback(self, name: str, fn: Callable[[], MetricValue]) -> None:
        """Register a pull metric evaluated only at snapshot time."""
        with self._lock:
            self._callbacks[name] = fn

    def _get_or_make(self, name, factory, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    # -- reading -----------------------------------------------------
    def snapshot(self) -> Dict[str, MetricValue]:
        """Flat ``name -> value`` dict of every instrument + callback.

        Lane counters snapshot as their per-lane list (sum it for the
        total); histograms as their merged summary dict.  Callback
        failures surface as the exception — a broken pull metric is a
        bug, not a gap in the data.
        """
        with self._lock:
            instruments = dict(self._instruments)
            callbacks = dict(self._callbacks)
        out: Dict[str, MetricValue] = {}
        for name, inst in instruments.items():
            if isinstance(inst, LaneCounter):
                out[name] = inst.per_lane()
            elif isinstance(inst, Histogram):
                out[name] = inst.snapshot()
            else:
                out[name] = inst.value  # type: ignore[union-attr]
        for name, fn in callbacks.items():
            out[name] = fn()
        return out
