"""hfsan: the dynamic half of effect checking (docs/analysis.md).

The static engine (:mod:`repro.analysis.effects`) *predicts* what a
host or kernel callable touches; this module *observes* what it
actually touches during a real run and cross-checks the two.  An
``Executor.run(graph, sanitize=True)`` submission attaches a
:class:`SanitizerSession` to the topology:

- every kernel's device-span arguments are replaced by
  :class:`RecordingArray` views (same memory, zero copies) so element
  reads, writes, and in-place ufuncs are attributed to the
  (kernel, pull) pair they hit;
- mutable objects captured by host callables (closure cells and
  default arguments; lists, dicts, sets, bytearrays, and numpy arrays)
  are swapped for recording proxies that delegate every operation to
  the original object while attributing the access to whichever task
  is running on the current worker thread;
- when the run settles, :meth:`SanitizerSession.finish` restores the
  originals and produces a :class:`SanitizeReport`: every access the
  run *observed* that the inference engine — where it claimed
  confidence — failed to predict is a **divergence** (an inference
  soundness bug), and a kernel write to a span its ``reads()``
  declaration marks read-only is reported as a runtime ``HF014``
  confirmation.

Scope: module-level globals are checked statically only (swapping a
module attribute would leak the proxy to unrelated code), and degraded
host-fallback kernel shims run unsanitized.  The proxies serialize
recording through one session lock — sanitize mode is a debugging
harness, not a production fast path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.effects import (
    _PURE,
    RootEffect,
    TaskEffects,
    _analyzable,
    infer_task_effects,
)
from repro.core.node import Node, TaskType
from repro.core.task import PullTask
from repro.gpu.kernel import wants_context

#: report schema identifier; bump only with a documented migration
SCHEMA = "repro.sanitize-report/1"

#: captured types the session knows how to proxy (the same set the
#: static engine tracks as mutable roots, see effects._MUTABLE_TYPES)
_PROXYABLE = (list, dict, set, bytearray)


class _Observed:
    """Runtime access record for one (task, root) pair."""

    __slots__ = ("reads", "writes", "details")

    def __init__(self) -> None:
        self.reads = False
        self.writes = False
        #: operation names seen (method names, "getitem", "setitem", ...)
        self.details: set = set()

    def note(self, kind: str, detail: str) -> None:
        if kind == "write":
            self.writes = True
        else:
            self.reads = True
        self.details.add(detail)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "details": sorted(self.details),
        }


class RecordingArray(np.ndarray):
    """An ndarray view that reports element access to the session.

    Views share the parent's memory, so kernels operate on the real
    device bytes; slicing produces further recording views (the
    callback propagates through ``__array_finalize__``), which keeps
    writes through derived views — ``yv[i] = ...`` after ``v = yv[i:]``
    — attributed to the root span.
    """

    _san_cb: Optional[Callable[[str, str], None]]

    def __array_finalize__(self, obj) -> None:
        self._san_cb = getattr(obj, "_san_cb", None)

    def _note(self, kind: str, detail: str) -> None:
        cb = self._san_cb
        if cb is not None:
            cb(kind, detail)

    def __getitem__(self, key):
        self._note("read", "getitem")
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        self._note("write", "setitem")
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out", ())
        for x in inputs:
            if isinstance(x, RecordingArray):
                x._note("read", ufunc.__name__)
        for x in out:
            if isinstance(x, RecordingArray):
                x._note("write", ufunc.__name__)
        conv = [
            x.view(np.ndarray) if isinstance(x, RecordingArray) else x
            for x in inputs
        ]
        if out:
            kwargs["out"] = tuple(
                x.view(np.ndarray) if isinstance(x, RecordingArray) else x
                for x in out
            )
        return getattr(ufunc, method)(*conv, **kwargs)


class _RecordingProxy:
    """Delegating wrapper around one captured mutable object.

    The proxy *is not* the target — it forwards every operation to the
    original object (so shared state stays shared with code holding a
    direct reference, e.g. the pull task bound to the same list) and
    records each access.  Method calls are classified with the same
    tables the static engine uses, so runtime and inference agree on
    what counts as a write; an unknown method records a write, the
    conservative direction (the engine marks such roots unconfident,
    which exempts them from the cross-check).
    """

    __slots__ = ("_san_target", "_san_note")

    def __init__(self, target, note: Callable[[str, str], None]) -> None:
        object.__setattr__(self, "_san_target", target)
        object.__setattr__(self, "_san_note", note)

    # -- attribute / method access ------------------------------------
    def __getattr__(self, name: str):
        target = object.__getattribute__(self, "_san_target")
        note = object.__getattribute__(self, "_san_note")
        attr = getattr(target, name)
        if not callable(attr):
            note("read", name)
            return attr
        kind = "read" if name in _PURE else "write"

        def call(*args, **kwargs):
            note(kind, name)
            return attr(*args, **kwargs)

        return call

    # -- container protocol -------------------------------------------
    def __getitem__(self, key):
        self._san_note("read", "getitem")
        return self._san_target[key]

    def __setitem__(self, key, value) -> None:
        self._san_note("write", "setitem")
        self._san_target[key] = value

    def __delitem__(self, key) -> None:
        self._san_note("write", "delitem")
        del self._san_target[key]

    def __iter__(self):
        self._san_note("read", "iter")
        return iter(self._san_target)

    def __len__(self) -> int:
        self._san_note("read", "len")
        return len(self._san_target)

    def __contains__(self, key) -> bool:
        self._san_note("read", "contains")
        return key in self._san_target

    def __bool__(self) -> bool:
        self._san_note("read", "bool")
        return bool(self._san_target)

    def __eq__(self, other) -> bool:
        self._san_note("read", "eq")
        if isinstance(other, _RecordingProxy):
            other = other._san_target
        return self._san_target == other

    def __iadd__(self, other):
        self._san_note("write", "iadd")
        target = self._san_target
        target += other
        return self

    def __repr__(self) -> str:
        return f"<sanitized {self._san_target!r}>"


@dataclass
class Divergence:
    """One access the static engine failed to predict (or a runtime
    confirmation of an undeclared span write)."""

    kind: str  # "unpredicted-write" | "unpredicted-read" |
    #            "untracked-access" | "undeclared-span-write"
    task: str
    root: str
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "task": self.task,
            "root": self.root,
            "detail": self.detail,
        }


@dataclass
class SanitizeReport:
    """Cross-check outcome of one sanitized submission."""

    graph_name: str
    tasks: List[Dict[str, Any]] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    #: tasks whose inference was confident (the checkable population)
    confident_tasks: int = 0
    checked_tasks: int = 0
    proxied_objects: int = 0

    @property
    def ok(self) -> bool:
        """No divergence: every observed access was predicted."""
        return not self.divergences

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA,
            "graph": self.graph_name,
            "ok": self.ok,
            "checked_tasks": self.checked_tasks,
            "confident_tasks": self.confident_tasks,
            "proxied_objects": self.proxied_objects,
            "divergences": [d.as_dict() for d in self.divergences],
            "tasks": self.tasks,
        }

    def to_json(self, *, indent: int = 2) -> str:
        import json

        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)


class SanitizerSession:
    """One sanitized submission: proxy installation, runtime access
    recording, and the final static/dynamic cross-check.

    The session is created *before* submission (inference must see the
    original captured objects), installed into the graph's host
    closures, consulted by the executor on every host/kernel
    invocation, and finished exactly once when the run settles.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        #: node -> inferred TaskEffects (host + kernel tasks)
        self.effects: Dict[Node, TaskEffects] = {}
        for node in graph.nodes:
            te = infer_task_effects(node)
            if te is not None:
                self.effects[node] = te
        self._lock = threading.Lock()
        self._tls = threading.local()
        #: (nid, root key) -> observed record; root key is
        #: ("span", pull_nid) or ("obj", id(original))
        self.observed: Dict[Tuple[int, Tuple[str, int]], _Observed] = {}
        #: id(original) -> proxy (shared objects share one proxy, so
        #: cross-task aliasing is observed on the same record key)
        self._proxies: Dict[int, Any] = {}
        #: restore plan: ("cell", cell, original) / ("defaults", fn, original)
        self._restores: List[Tuple] = []
        self._kernel_cache: Dict[int, Callable] = {}
        self._finished = False
        self._install()

    # -- proxy installation -------------------------------------------
    def _proxy_for(self, obj) -> Optional[Any]:
        key = id(obj)
        proxy = self._proxies.get(key)
        if proxy is not None:
            return proxy
        if isinstance(obj, np.ndarray):
            view = obj.view(RecordingArray)
            view._san_cb = self._obj_callback(key)
            proxy = view
        elif isinstance(obj, _PROXYABLE):
            proxy = _RecordingProxy(obj, self._obj_callback(key))
        else:
            return None
        self._proxies[key] = proxy
        return proxy

    def _install(self) -> None:
        """Swap proxyable captured objects into host-callable closure
        cells and default tuples.  Only objects the inference tracked
        as captured roots are swapped — the cross-check can only match
        observations against inferred roots."""
        for node, te in self.effects.items():
            if node.type is not TaskType.HOST:
                continue
            fn = _analyzable(node.callable)
            if fn is None:
                continue
            tracked = te.effects.captured  # keyed by id(original)
            if fn.__closure__:
                for cell in fn.__closure__:
                    try:
                        obj = cell.cell_contents
                    except ValueError:  # pragma: no cover - empty cell
                        continue
                    if id(obj) not in tracked:
                        continue
                    proxy = self._proxy_for(obj)
                    if proxy is None:
                        continue
                    already = any(r[1] is cell for r in self._restores)
                    if not already:
                        self._restores.append(("cell", cell, obj))
                        cell.cell_contents = proxy
            if fn.__defaults__:
                new = []
                swapped = False
                for obj in fn.__defaults__:
                    proxy = (
                        self._proxy_for(obj) if id(obj) in tracked else None
                    )
                    new.append(obj if proxy is None else proxy)
                    swapped = swapped or proxy is not None
                if swapped:
                    already = any(
                        r[0] == "defaults" and r[1] is fn
                        for r in self._restores
                    )
                    if not already:
                        self._restores.append(
                            ("defaults", fn, fn.__defaults__)
                        )
                        fn.__defaults__ = tuple(new)

    def uninstall(self) -> None:
        """Restore the original captured objects (idempotent).  A cell
        or default the host rebound mid-run is left alone."""
        for kind, site, original in self._restores:
            if kind == "cell":
                try:
                    current = site.cell_contents
                except ValueError:  # pragma: no cover
                    continue
                if current is self._proxies.get(id(original)):
                    site.cell_contents = original
            else:  # defaults
                site.__defaults__ = original
        self._restores = []

    # -- runtime recording --------------------------------------------
    def _note(self, nid: int, root: Tuple[str, int], kind: str, detail: str) -> None:
        if self._finished:
            return
        with self._lock:
            rec = self.observed.get((nid, root))
            if rec is None:
                rec = self.observed[(nid, root)] = _Observed()
            rec.note(kind, detail)

    def _obj_callback(self, oid: int) -> Callable[[str, str], None]:
        def note(kind: str, detail: str) -> None:
            node = getattr(self._tls, "node", None)
            if node is None:
                return  # accessed outside any sanitized task
            self._note(node.nid, ("obj", oid), kind, detail)

        return note

    def _span_callback(
        self, kernel: Node, pull: Node
    ) -> Callable[[str, str], None]:
        knid, pnid = kernel.nid, pull.nid

        def note(kind: str, detail: str) -> None:
            self._note(knid, ("span", pnid), kind, detail)

        return note

    def wrap_host(self, node: Node, fn: Callable) -> Callable:
        """Attribute the callable's proxy accesses to *node* for the
        duration of the call (worker-thread-local)."""

        def wrapped():
            prev = getattr(self._tls, "node", None)
            self._tls.node = node
            try:
                return fn()
            finally:
                self._tls.node = prev

        return wrapped

    def wrap_kernel(self, node: Node) -> Callable:
        """A kernel shim that substitutes :class:`RecordingArray` views
        for the span arguments (positional alignment with
        ``kernel_args``); cached per node, so replay passes reuse it."""
        cached = self._kernel_cache.get(node.nid)
        if cached is not None:
            return cached
        fn = node.kernel_fn
        pulls: Dict[int, Node] = {
            i: a.node
            for i, a in enumerate(node.kernel_args)
            if isinstance(a, PullTask)
        }
        callbacks = {
            i: self._span_callback(node, pn) for i, pn in pulls.items()
        }

        def substitute(args: Tuple) -> List:
            out = list(args)
            for i, cb in callbacks.items():
                if i < len(out) and isinstance(out[i], np.ndarray):
                    view = out[i].view(RecordingArray)
                    view._san_cb = cb
                    out[i] = view
            return out

        if wants_context(fn):
            def kernel(ctx, *args):
                return fn(ctx, *substitute(args))
        else:
            def kernel(*args):
                return fn(*substitute(args))

        self._kernel_cache[node.nid] = kernel
        return kernel

    # -- cross-check ---------------------------------------------------
    def finish(self) -> SanitizeReport:
        """Uninstall the proxies and cross-check observed vs inferred
        accesses.  Divergences are only charged where the engine claimed
        confidence — an unconfident root already admits any behavior."""
        self._finished = True
        self.uninstall()
        report = SanitizeReport(graph_name=self.graph.name)
        report.proxied_objects = len(self._proxies)
        by_nid: Dict[int, Dict[Tuple[str, int], _Observed]] = {}
        with self._lock:
            for (nid, root), rec in self.observed.items():
                by_nid.setdefault(nid, {})[root] = rec

        for node, te in self.effects.items():
            report.checked_tasks += 1
            if te.effects.confident:
                report.confident_tasks += 1
            roots = by_nid.get(node.nid, {})
            entry: Dict[str, Any] = {
                "task": node.name,
                "nid": node.nid,
                "type": node.type.name.lower(),
                "observed": {},
            }
            span_by_nid = {p.nid: (p, r) for p, r in te.span.items()}
            captured = te.effects.captured
            for root, rec in sorted(roots.items()):
                kind, key = root
                if kind == "span":
                    pull, inferred = span_by_nid.get(key, (None, None))
                    label = f"span:{pull.name}" if pull is not None else f"span:{key}"
                else:
                    inferred = captured.get(key)
                    label = (
                        f"captured:{inferred.name}"
                        if inferred is not None
                        else f"captured:{key}"
                    )
                    pull = None
                entry["observed"][label] = rec.as_dict()
                self._check_root(report, node, te, label, rec, inferred)
                if kind == "span" and pull is not None and rec.writes:
                    # runtime confirmation of HF014: the span was
                    # declared but not as a write target
                    if (
                        pull in node.kernel_reads
                        and pull not in node.kernel_writes
                    ):
                        report.divergences.append(
                            Divergence(
                                kind="undeclared-span-write",
                                task=node.name,
                                root=label,
                                detail=(
                                    "kernel wrote a span declared "
                                    "read-only via reads()"
                                ),
                            )
                        )
            report.tasks.append(entry)
        report.tasks.sort(key=lambda t: t["nid"])
        return report

    def _check_root(
        self,
        report: SanitizeReport,
        node: Node,
        te: TaskEffects,
        label: str,
        rec: _Observed,
        inferred: Optional[RootEffect],
    ) -> None:
        if inferred is None:
            if te.effects.confident:
                report.divergences.append(
                    Divergence(
                        kind="untracked-access",
                        task=node.name,
                        root=label,
                        detail="runtime access on a root inference never saw",
                    )
                )
            return
        if not inferred.confident:
            return
        if rec.writes and not inferred.writes:
            report.divergences.append(
                Divergence(
                    kind="unpredicted-write",
                    task=node.name,
                    root=label,
                    detail=", ".join(sorted(rec.details)),
                )
            )
        elif rec.reads and not inferred.accessed:
            report.divergences.append(
                Divergence(
                    kind="unpredicted-read",
                    task=node.name,
                    root=label,
                    detail=", ".join(sorted(rec.details)),
                )
            )
