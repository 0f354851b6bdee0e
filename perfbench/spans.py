"""In-memory spans for the traced run.

A span is ``(name, start, end, parent, op)``: times are
``time.perf_counter()`` seconds, *parent* is the index of the span
that caused it (or -1), and every span of one benchmark operation
carries that operation's id.  Spans stay in memory while the run
measures and are written once, at exit, by :meth:`Tracer.write`.

The current span is tracked in a :mod:`contextvars` variable, so
nesting works per thread and per asyncio task; appends take one lock.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional

from measure import median

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=(-1, -1))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; computes durations and self times by name."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()

    def record(self, name: str, start: float, end: float, parent: int = -1, op: int = -1) -> int:
        """Append a finished span; returns its index."""
        with self._lock:
            self.spans.append(Span(name, start, end, parent, op))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, op: Optional[int] = None, parent: Optional[int] = None) -> Iterator[None]:
        """Time the ``with`` body as a child of *parent* (default: the
        current span).  *op* defaults to the enclosing span's op id."""
        current, current_op = _current.get()
        parent = current if parent is None else parent
        op = current_op if op is None else op
        # reserve the slot now so children can name it as their parent
        idx = self.record(name, 0.0, 0.0, parent, op)
        token = _current.set((idx, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = Span(name, start, time.perf_counter(), parent, op)
            _current.reset(token)

    @staticmethod
    def current() -> "tuple[int, int]":
        """``(span index, op id)`` of the innermost open span."""
        return _current.get()

    def wrap(self, name: str, fn):
        """Return *fn* with every call recorded as span *name*."""

        def timed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    # -- analysis ------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: its duration minus the part of its interval that
        its child spans cover (overlapping children counted once)."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        out = []
        for idx, s in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(idx, ()), key=lambda c: c.start):
                lo, hi = max(c.start, s.start), min(c.end, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append(s.duration - covered)
        return out

    def median_ms(self, name: str) -> Optional[float]:
        """Median duration of spans called *name*, in ms (None if none)."""
        d = [s.duration for s in self.spans if s.name == name]
        return median(d) * 1e3 if d else None

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, median duration and median self time (ms)."""
        selfs = self.self_times()
        by_name: Dict[str, List[int]] = defaultdict(list)
        for idx, s in enumerate(self.spans):
            by_name[s.name].append(idx)
        return {
            name: {
                "count": len(idxs),
                "median_ms": median([self.spans[i].duration for i in idxs]) * 1e3,
                "median_self_ms": median([selfs[i] for i in idxs]) * 1e3,
            }
            for name, idxs in sorted(by_name.items())
        }

    def write(self, path: str) -> None:
        """Write every span plus the per-name summary as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": list(Span._fields),
                    "spans": [list(s) for s in self.spans],
                    "summary": self.summary(),
                },
                fh,
            )
