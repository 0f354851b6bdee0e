"""Static effect inference over task callables ("what does it touch?").

hflint's span rules (HF010-HF012) trust what users *declare* via
:meth:`~repro.core.task.KernelTask.reads` / ``writes()``.  This module
closes the loop: it symbolically executes the **bytecode** of host and
kernel callables (CPython 3.11 opcode set) and computes each task's
memory effects without running it:

- **span parameters** — for a kernel, which pull-bound arguments the
  body reads, writes (direct subscript stores, in-place operators,
  mutating methods), or lets *escape* into opaque calls;
- **captured state** — closure cells, default arguments, and globals
  holding mutable objects (lists, dicts, sets, arrays, plain objects),
  with the concrete mutations applied to them and the lock guards held
  (``with lock:``) at each access site;
- **nondeterminism** — calls into ``random``/``time``/``secrets``/
  ``uuid`` (incl. ``numpy.random``) and iteration over unordered sets.

The engine is a worklist walk over the instruction graph: every
reachable instruction is interpreted once against an abstract stack
(CPython guarantees a static stack depth per offset), branches fork the
walk, and called *captured* Python callables are analyzed recursively
(bounded depth, cycle-guarded, stdlib callables stay opaque) so effects
compose through helper chains.  Anything the engine cannot prove —
unknown opcodes, ``*args`` forwarding, values escaping into opaque
calls — degrades **confidence** instead of guessing: rules only fire on
confident facts, and the runtime sanitizer (:mod:`repro.analysis.sanitize`)
treats unconfident roots as "anything allowed".

Consumed by lint rules HF014-HF017 (:mod:`repro.analysis.rules`) and by
the sanitizer's static/dynamic cross-check.  See docs/analysis.md,
"Effect inference".
"""

from __future__ import annotations

import dis
import sys
import threading
import types
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.node import Node, TaskType

#: sentinel for a subscript key that is not a static constant
UNKNOWN = object()

#: modules whose callables make a task nondeterministic (HF016)
NONDET_MODULES = ("random", "secrets", "uuid", "time", "numpy.random")

#: maximum depth of recursion into called captured callables
MAX_CALL_DEPTH = 8

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))

#: container methods that mutate the receiver in place
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "clear", "pop", "popitem",
    "setdefault", "update", "add", "discard", "sort", "reverse",
    "appendleft", "popleft", "rotate", "fill", "sort", "put", "itemset",
    "resize", "setflags", "partition_inplace", "__setitem__", "__delitem__",
})

#: methods known to leave the receiver unchanged
_PURE = frozenset({
    "copy", "count", "index", "get", "keys", "values", "items", "tolist",
    "sum", "mean", "std", "min", "max", "all", "any", "argmax", "argmin",
    "astype", "nonzero", "cumsum", "dot", "flatten", "round", "item",
    "tobytes", "union", "intersection", "difference", "isdisjoint",
    "issubset", "issuperset", "startswith", "endswith", "join", "split",
    "strip", "format", "encode", "decode", "most_common", "byteswap",
})

#: ndarray methods returning a view that writes through to the base
_VIEW_METHODS = frozenset({
    "reshape", "ravel", "view", "transpose", "swapaxes", "squeeze",
})

#: builtins that read their arguments without capturing them
_SAFE_BUILTINS = frozenset({
    "len", "range", "enumerate", "zip", "min", "max", "abs", "sum",
    "sorted", "isinstance", "issubclass", "repr", "str", "int", "float",
    "bool", "print", "hash", "id", "iter", "next", "divmod", "round",
    "all", "any", "ord", "chr", "format", "getattr", "hasattr", "callable",
})

#: types tracked as captured mutable state
_MUTABLE_TYPES = (list, dict, set, bytearray, np.ndarray)

_IMMUTABLE_TYPES = (
    int, float, complex, bool, str, bytes, frozenset, type(None),
    tuple, slice, range, types.CodeType,
)


def _is_stdlib(module: Optional[str]) -> bool:
    if not module:
        return False
    top = module.split(".", 1)[0]
    return top in sys.stdlib_module_names


def _nondet_module(module: Optional[str]) -> Optional[str]:
    if not module:
        return None
    for m in NONDET_MODULES:
        if module == m or module.startswith(m + "."):
            return m
    return None


def _callable_module(obj) -> Optional[str]:
    """Best-effort defining module of a callable.

    ``__module__`` alone misses bound builtin methods: ``random.random``
    is a method of a hidden ``Random`` instance and reports ``None``, so
    fall back to the bound receiver's class (or the receiver itself when
    it is a module, as for ``math.sin``-style builtins).
    """
    module = getattr(obj, "__module__", None)
    if module:
        return module
    owner = getattr(obj, "__self__", None)
    if owner is None:
        return None
    if isinstance(owner, types.ModuleType):
        return owner.__name__
    return getattr(type(owner), "__module__", None)


@dataclass
class Mutation:
    """One direct mutation of a tracked root."""

    kind: str  # "rebind" | "setattr" | "setitem" | "method" | "inplace"
    detail: str = ""  # attribute/method name, or a key repr
    key: Any = UNKNOWN  # constant subscript key, or :data:`UNKNOWN`
    whole: bool = False  # touches the whole object (slice/inplace/...)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "key": None if self.key is UNKNOWN else repr(self.key),
            "whole": self.whole,
        }


@dataclass
class RootEffect:
    """Inferred effects on one tracked object (a param or a capture)."""

    name: str
    source: str  # "param" | "cell" | "default" | "global"
    index: Optional[int] = None  # positional argument index (params)
    obj_id: Optional[int] = None  # id() of the live captured object
    obj_type: str = ""
    reads: bool = False
    writes: bool = False  # at least one *direct* mutation was proven
    escapes: bool = False  # aliased / passed to an opaque call / returned
    confident: bool = True
    mutations: List[Mutation] = field(default_factory=list)
    #: lock ids held at *every* access site (intersection); None until
    #: the first access is recorded
    guards: Optional[frozenset] = None

    def touch_guards(self, held: frozenset) -> None:
        self.guards = held if self.guards is None else (self.guards & held)

    @property
    def accessed(self) -> bool:
        return self.reads or self.writes or self.escapes

    @property
    def guarded(self) -> frozenset:
        return self.guards if self.guards else frozenset()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "reads": self.reads,
            "writes": self.writes,
            "escapes": self.escapes,
            "confident": self.confident,
            "guarded": bool(self.guards),
            "mutations": [m.as_dict() for m in self.mutations],
        }


@dataclass
class CallableEffects:
    """The full inferred effect set of one callable."""

    params: Dict[str, RootEffect] = field(default_factory=dict)
    captured: Dict[Any, RootEffect] = field(default_factory=dict)
    nondet: List[str] = field(default_factory=list)
    confident: bool = True
    opaque: bool = False  # not analyzable at all (builtin, C callable)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "confident": self.confident,
            "opaque": self.opaque,
            "nondet": sorted(set(self.nondet)),
            "params": {k: v.as_dict() for k, v in sorted(self.params.items())},
            "captured": sorted(
                (v.as_dict() for v in self.captured.values()),
                key=lambda d: (d["name"], d["source"]),
            ),
        }


@dataclass
class TaskEffects:
    """Effects of one graph node's callable, bound to its arguments."""

    node: Node
    effects: CallableEffects
    #: pull node -> effect on the span-bound parameter (kernels only)
    span: Dict[Node, RootEffect] = field(default_factory=dict)

    @property
    def nondet(self) -> List[str]:
        return self.effects.nondet


# -- abstract values ---------------------------------------------------

class _V:
    """One abstract stack/local slot."""

    __slots__ = (
        "root", "direct", "through", "arr",
        "obj", "has_obj", "elems", "meth", "target", "code", "free", "cellname",
    )

    def __init__(
        self, root=None, direct=False, through=False, arr=False,
        obj=None, has_obj=False, elems=None, meth=None, target=None,
        code=None, free=None, cellname=None,
    ):
        self.root = root
        self.direct = direct
        self.through = through
        self.arr = arr
        self.obj = obj
        self.has_obj = has_obj
        self.elems = elems
        self.meth = meth
        self.target = target
        self.code = code
        self.free = free
        self.cellname = cellname

    @property
    def writes_root(self) -> bool:
        return self.root is not None and (self.direct or self.through)


_NULL = _V()  # the PUSH_NULL marker
_ANY = None  # untracked


def _untracked() -> Optional[_V]:
    return None


# -- the engine --------------------------------------------------------

class _Engine:
    def __init__(self) -> None:
        self.params: Dict[str, RootEffect] = {}
        self.captured: Dict[Any, RootEffect] = {}
        self.nondet: List[str] = []
        self.confident = True
        self._active: set = set()  # code ids on the recursion stack

    # -- root bookkeeping ---------------------------------------------
    def param_root(self, name: str, index: Optional[int], arr: bool) -> _V:
        eff = self.params.get(name)
        if eff is None:
            eff = RootEffect(name=name, source="param", index=index)
            self.params[name] = eff
        return _V(root=eff, direct=True, through=True, arr=arr)

    def capture_root(self, name: str, source: str, obj: Any) -> _V:
        key = id(obj)
        eff = self.captured.get(key)
        if eff is None:
            eff = RootEffect(
                name=name, source=source, obj_id=key,
                obj_type=type(obj).__name__,
            )
            self.captured[key] = eff
        return _V(
            root=eff, direct=True, through=True,
            arr=isinstance(obj, np.ndarray), obj=obj, has_obj=True,
        )

    def give_up(self, why: str = "") -> None:
        self.confident = False

    # -- access recording ---------------------------------------------
    def read(self, v: Optional[_V], guards: frozenset) -> None:
        if v is not None and v.root is not None:
            v.root.reads = True
            v.root.touch_guards(guards)

    def write(self, v: Optional[_V], mut: Mutation, guards: frozenset) -> None:
        if v is None or v.root is None:
            return
        if v.direct or v.through:
            v.root.writes = True
            v.root.mutations.append(mut)
        else:
            v.root.reads = True  # derived object mutated, not the root
        v.root.touch_guards(guards)

    def escape(self, v: Optional[_V], guards: frozenset) -> None:
        if v is None:
            return
        if v.root is not None:
            v.root.escapes = True
            v.root.reads = True
            v.root.confident = False
            v.root.touch_guards(guards)
        if v.elems:
            for e in v.elems:
                self.escape(e, guards)

    def finish(self) -> CallableEffects:
        eff = CallableEffects(
            params=self.params, captured=self.captured,
            nondet=self.nondet, confident=self.confident,
        )
        if not self.confident:
            for r in list(self.params.values()) + list(self.captured.values()):
                r.confident = False
        return eff


def _analyzable(fn) -> Optional[types.FunctionType]:
    """The plain function behind *fn*, or None when opaque."""
    if isinstance(fn, types.MethodType):
        fn = fn.__func__
    if not isinstance(fn, types.FunctionType):
        return None
    if _is_stdlib(getattr(fn, "__module__", None)):
        return None
    return fn


#: code object -> (its instructions, offset -> instruction index).
#: Both are read-only, so every frame over one code object shares one
#: decoding; weak keys let code that is no longer loaded go.
_DECODED: "weakref.WeakKeyDictionary[types.CodeType, Tuple[List[dis.Instruction], Dict[int, int]]]" = (
    weakref.WeakKeyDictionary()
)


def _decode(code: types.CodeType) -> Tuple[List[dis.Instruction], Dict[int, int]]:
    decoded = _DECODED.get(code)
    if decoded is None:
        instrs = list(dis.get_instructions(code))
        decoded = (instrs, {ins.offset: i for i, ins in enumerate(instrs)})
        _DECODED[code] = decoded
    return decoded


class _Frame:
    """One symbolic walk over one code object."""

    def __init__(
        self,
        engine: _Engine,
        code: types.CodeType,
        fn: Optional[types.FunctionType],
        init_locals: Dict[str, Optional[_V]],
        free_map: Dict[str, Optional[_V]],
        guards: frozenset,
        depth: int,
    ) -> None:
        self.e = engine
        self.code = code
        self.fn = fn
        self.locals: Dict[str, Optional[_V]] = dict(init_locals)
        self.derefs: Dict[str, Optional[_V]] = {}
        self.free_map = free_map
        self.guards = set(guards)
        self.depth = depth
        self.instrs, self.by_offset = _decode(code)

    # -- deref resolution ---------------------------------------------
    def _load_deref(self, name: str) -> Optional[_V]:
        if name in self.code.co_cellvars:
            return self.derefs.get(name)
        if name in self.free_map:
            return self.free_map[name]
        if self.fn is not None and self.fn.__closure__:
            try:
                idx = self.code.co_freevars.index(name)
                cell = self.fn.__closure__[idx]
                obj = cell.cell_contents
            except (ValueError, IndexError):
                return _untracked()
            return self._bind_object(name, "cell", obj)
        return _untracked()

    def _bind_object(self, name: str, source: str, obj: Any) -> Optional[_V]:
        """Classify a live captured object into an abstract value."""
        if isinstance(obj, _IMMUTABLE_TYPES):
            return _V(obj=obj, has_obj=True)
        if isinstance(obj, types.ModuleType):
            return _V(obj=obj, has_obj=True)
        if isinstance(obj, _LOCK_TYPES):
            return _V(obj=obj, has_obj=True)
        if callable(obj) and not isinstance(obj, _MUTABLE_TYPES):
            return _V(obj=obj, has_obj=True)
        return self.e.capture_root(name, source, obj)

    def _store_deref(self, name: str, v: Optional[_V]) -> None:
        if name in self.code.co_cellvars:
            self.derefs[name] = v
            return
        # nonlocal rebinding of a captured cell is shared-state mutation
        target = None
        if name in self.free_map:
            target = self.free_map[name]
        elif self.fn is not None and self.fn.__closure__:
            target = self._load_deref(name)
        if target is not None and target.root is not None:
            self.e.write(
                target, Mutation("rebind", name, whole=True),
                frozenset(self.guards),
            )

    # -- global resolution --------------------------------------------
    def _load_global(self, name: str) -> Optional[_V]:
        if self.fn is not None:
            g = self.fn.__globals__
            if name in g:
                obj = g[name]
            else:
                import builtins

                obj = getattr(builtins, name, _V)  # _V as missing marker
                if obj is _V:
                    return _untracked()
            return self._bind_object(name, "global", obj)
        return _untracked()

    # -- call handling -------------------------------------------------
    def _call(self, callee: Optional[_V], args: List[Optional[_V]]) -> Optional[_V]:
        held = frozenset(self.guards)
        if callee is None:
            for a in args:
                self.e.escape(a, held)
            return _untracked()

        # method call on a tracked or known object
        if callee.meth is not None:
            name = callee.meth
            target = callee.target
            resolved = callee.obj if callee.has_obj else None
            if resolved is not None:
                return self._call(
                    _V(obj=resolved, has_obj=True), args[1:] if args else []
                )
            rest = args[1:] if args else []
            if target is not None and target.root is not None:
                if target.direct or target.through:
                    if name in _MUTATORS:
                        self.e.write(
                            target, Mutation("method", name, whole=True), held
                        )
                        for a in rest:
                            self.e.escape(a, held)
                        return _untracked()
                    if name in _PURE:
                        self.e.read(target, held)
                        for a in rest:
                            self.e.read(a, held)
                        return _untracked()
                    if name in _VIEW_METHODS and target.arr:
                        self.e.read(target, held)
                        for a in rest:
                            self.e.read(a, held)
                        return _V(
                            root=target.root, through=True, arr=True
                        )
                    # unknown method: may mutate, may capture
                    self.e.escape(target, held)
                else:
                    self.e.read(target, held)
            for a in rest:
                self.e.escape(a, held)
            return _untracked()

        # call of a locally-defined function (comprehension, nested def)
        if callee.code is not None:
            self._recurse_code(callee.code, callee.free or {}, args)
            return _untracked()

        if callee.has_obj:
            obj = callee.obj
            nd = _nondet_module(_callable_module(obj))
            if nd is None and isinstance(obj, types.ModuleType):
                nd = _nondet_module(obj.__name__)
            if nd is not None:
                qual = getattr(obj, "__qualname__", type(obj).__name__)
                self.e.nondet.append(f"{nd}: call of {qual}")
                for a in args:
                    self.e.read(a, held)
                return _untracked()
            fn = _analyzable(obj)
            if fn is not None and self.depth < MAX_CALL_DEPTH:
                self._recurse_fn(obj, fn, args)
                return _untracked()
            name = getattr(obj, "__name__", "")
            if (
                name in _SAFE_BUILTINS
                and getattr(obj, "__module__", None) == "builtins"
            ):
                for a in args:
                    self.e.read(a, held)
                return _untracked()

        for a in args:
            self.e.escape(a, held)
        return _untracked()

    def _bind_params(
        self, code: types.CodeType, fn, args: List[Optional[_V]]
    ) -> Dict[str, Optional[_V]]:
        names = code.co_varnames[: code.co_argcount]
        init: Dict[str, Optional[_V]] = {}
        for i, name in enumerate(names):
            if i < len(args):
                init[name] = args[i]
            elif fn is not None and fn.__defaults__:
                # trailing params fall back to default objects
                off = i - (code.co_argcount - len(fn.__defaults__))
                if 0 <= off < len(fn.__defaults__):
                    init[name] = self._bind_object(
                        name, "default", fn.__defaults__[off]
                    )
        if code.co_flags & 0x04:  # CO_VARARGS
            vname = code.co_varnames[code.co_argcount]
            extra = args[code.co_argcount:]
            init[vname] = _V(elems=tuple(extra)) if extra else _untracked()
        return init

    def _recurse_fn(self, obj, fn: types.FunctionType, args) -> None:
        key = id(fn.__code__)
        if key in self.e._active:
            return  # recursion cycle: effects already being collected
        if fn.__code__.co_flags & 0x220:  # generator / coroutine
            self.e.give_up("generator callee")
            return
        init = self._bind_params(fn.__code__, fn, args)
        self.e._active.add(key)
        try:
            _Frame(
                self.e, fn.__code__, fn, init, {}, frozenset(self.guards),
                self.depth + 1,
            ).run()
        finally:
            self.e._active.discard(key)

    def _recurse_code(self, code: types.CodeType, free, args) -> None:
        key = id(code)
        if key in self.e._active or self.depth >= MAX_CALL_DEPTH:
            return
        if code.co_flags & 0x220:
            self.e.give_up("generator comprehension")
            return
        init = self._bind_params(code, None, args)
        self.e._active.add(key)
        try:
            _Frame(
                self.e, code, self.fn, init, free, frozenset(self.guards),
                self.depth + 1,
            ).run()
        finally:
            self.e._active.discard(key)

    # -- the walk ------------------------------------------------------
    def run(self) -> None:
        if not self.instrs:
            return
        visited: set = set()
        work: List[Tuple[int, List[Optional[_V]]]] = [(0, [])]
        while work:
            idx, stack = work.pop()
            while 0 <= idx < len(self.instrs):
                if idx in visited:
                    break
                visited.add(idx)
                ins = self.instrs[idx]
                nxt = self._step(ins, stack, work, visited)
                if nxt is False:
                    break
                idx += 1

    def _jump_idx(self, ins) -> Optional[int]:
        tgt = ins.argval
        return self.by_offset.get(tgt)

    def _enqueue(self, work, visited, idx, stack) -> None:
        if idx is not None and idx not in visited:
            work.append((idx, list(stack)))

    def _pop(self, stack, n=1):
        out = []
        for _ in range(n):
            if not stack:
                self.e.give_up("stack underflow")
                out.append(_untracked())
            else:
                out.append(stack.pop())
        return out  # out[0] is TOS

    def _step(self, ins, stack, work, visited):
        """Interpret one instruction; False ends the current path."""
        op = ins.opname
        e = self.e
        held = frozenset(self.guards)

        if op in (
            "RESUME", "NOP", "CACHE", "PRECALL", "COPY_FREE_VARS",
            "KW_NAMES", "EXTENDED_ARG",
            "JUMP_BACKWARD_NO_INTERRUPT",
        ):
            return True
        if op == "MAKE_CELL":
            # a parameter (or local) promoted to a closure cell:
            # subsequent accesses use LOAD_DEREF/STORE_DEREF, so its
            # abstract value must migrate into the deref namespace or
            # nested-closure effects on it are silently lost
            name = ins.argval
            if name in self.locals:
                self.derefs[name] = self.locals[name]
            return True
        if op == "POP_TOP":
            self._pop(stack)
            return True
        if op == "PUSH_NULL":
            stack.append(_NULL)
            return True
        if op == "COPY":
            n = ins.arg
            stack.append(stack[-n] if len(stack) >= n else _untracked())
            return True
        if op == "SWAP":
            n = ins.arg
            if len(stack) >= n:
                stack[-1], stack[-n] = stack[-n], stack[-1]
            return True

        if op == "LOAD_CONST":
            val = ins.argval
            if isinstance(val, types.CodeType):
                stack.append(_V(code=val))
            else:
                stack.append(_V(obj=val, has_obj=True))
            return True
        if op == "LOAD_FAST":
            stack.append(self.locals.get(ins.argval))
            return True
        if op == "STORE_FAST":
            (v,) = self._pop(stack)
            self.locals[ins.argval] = v
            return True
        if op == "DELETE_FAST":
            self.locals.pop(ins.argval, None)
            return True
        if op in ("LOAD_DEREF", "LOAD_CLASSDEREF"):
            stack.append(self._load_deref(ins.argval))
            return True
        if op == "STORE_DEREF":
            (v,) = self._pop(stack)
            self._store_deref(ins.argval, v)
            return True
        if op == "LOAD_CLOSURE":
            stack.append(_V(cellname=ins.argval))
            return True
        if op == "LOAD_GLOBAL":
            if ins.arg & 1:
                stack.append(_NULL)
            stack.append(self._load_global(ins.argval))
            return True
        if op in ("STORE_GLOBAL", "DELETE_GLOBAL"):
            if op == "STORE_GLOBAL":
                self._pop(stack)
            e.give_up("global rebinding")
            return True

        if op == "LOAD_ATTR":
            (v,) = self._pop(stack)
            if v is not None and v.has_obj and isinstance(v.obj, types.ModuleType):
                attr = getattr(v.obj, ins.argval, None)
                stack.append(
                    _V(obj=attr, has_obj=True) if attr is not None
                    else _untracked()
                )
                return True
            if v is not None and v.root is not None:
                e.read(v, held)
                stack.append(_V(root=v.root, through=False))
                return True
            stack.append(_untracked())
            return True
        if op == "LOAD_METHOD":
            (v,) = self._pop(stack)
            resolved = None
            if v is not None and v.has_obj and isinstance(v.obj, types.ModuleType):
                resolved = getattr(v.obj, ins.argval, None)
            stack.append(
                _V(meth=ins.argval, target=v, obj=resolved,
                   has_obj=resolved is not None)
            )
            stack.append(v)
            return True
        if op == "STORE_ATTR":
            objv, val = self._pop(stack, 2)
            e.escape(val, held)
            if objv is not None and objv.root is not None:
                if objv.direct:
                    e.write(
                        objv, Mutation("setattr", ins.argval, key=ins.argval),
                        held,
                    )
                else:
                    e.read(objv, held)
            return True
        if op == "DELETE_ATTR":
            (objv,) = self._pop(stack)
            if objv is not None and objv.root is not None and objv.direct:
                e.write(
                    objv, Mutation("setattr", ins.argval, key=ins.argval), held
                )
            return True

        if op == "BINARY_SUBSCR":
            key, cont = self._pop(stack, 2)
            e.read(cont, held)
            e.read(key, held)
            if cont is not None and cont.elems is not None and key is not None \
                    and key.has_obj and isinstance(key.obj, int) \
                    and -len(cont.elems) <= key.obj < len(cont.elems):
                stack.append(cont.elems[key.obj])
                return True
            if cont is not None and cont.root is not None \
                    and (cont.direct or cont.through):
                stack.append(
                    _V(root=cont.root, through=cont.arr, arr=cont.arr)
                )
            else:
                stack.append(_untracked())
            return True
        if op in ("STORE_SUBSCR", "DELETE_SUBSCR"):
            if op == "STORE_SUBSCR":
                key, cont, val = self._pop(stack, 3)
                e.escape(val, held)
            else:
                key, cont = self._pop(stack, 2)
            e.read(key, held)
            if cont is not None and cont.root is not None:
                if cont.direct or cont.through:
                    if key is not None and key.has_obj:
                        if isinstance(key.obj, slice):
                            mut = Mutation("setitem", "[:]", whole=True)
                        else:
                            mut = Mutation(
                                "setitem", repr(key.obj), key=key.obj
                            )
                    else:
                        mut = Mutation("setitem", "[?]", key=UNKNOWN)
                    e.write(cont, mut, held)
                else:
                    e.read(cont, held)
            return True
        if op == "BUILD_SLICE":
            parts = self._pop(stack, ins.arg)[::-1]
            if all(p is not None and p.has_obj for p in parts):
                try:
                    stack.append(
                        _V(obj=slice(*[p.obj for p in parts]), has_obj=True)
                    )
                    return True
                except TypeError:
                    pass
            stack.append(_untracked())
            return True

        if op == "BINARY_OP":
            rhs, lhs = self._pop(stack, 2)
            e.read(lhs, held)
            e.read(rhs, held)
            inplace = ins.argrepr.endswith("=")
            if inplace and lhs is not None and lhs.writes_root:
                e.write(lhs, Mutation("inplace", ins.argrepr, whole=True), held)
                stack.append(lhs)
            else:
                stack.append(_untracked())
            return True
        if op in ("COMPARE_OP", "IS_OP", "CONTAINS_OP"):
            a, b = self._pop(stack, 2)
            e.read(a, held)
            e.read(b, held)
            stack.append(_untracked())
            return True
        if op in (
            "UNARY_POSITIVE", "UNARY_NEGATIVE", "UNARY_NOT", "UNARY_INVERT",
        ):
            (v,) = self._pop(stack)
            e.read(v, held)
            stack.append(_untracked())
            return True

        if op in ("BUILD_TUPLE", "BUILD_LIST", "BUILD_SET"):
            vs = self._pop(stack, ins.arg)[::-1]
            if op == "BUILD_SET":
                for v in vs:
                    e.read(v, held)
                stack.append(_untracked())
            else:
                stack.append(_V(elems=tuple(vs)))
            return True
        if op == "BUILD_MAP":
            vs = self._pop(stack, 2 * ins.arg)
            for v in vs:
                e.escape(v, held)
            stack.append(_untracked())
            return True
        if op == "BUILD_CONST_KEY_MAP":
            vs = self._pop(stack, ins.arg + 1)
            for v in vs[:-1]:
                e.escape(v, held)
            stack.append(_untracked())
            return True
        if op == "BUILD_STRING":
            self._pop(stack, ins.arg)
            stack.append(_untracked())
            return True
        if op in ("LIST_EXTEND", "SET_UPDATE", "DICT_UPDATE", "DICT_MERGE"):
            (v,) = self._pop(stack)
            e.escape(v, held)
            return True
        if op in ("LIST_APPEND", "SET_ADD"):
            (v,) = self._pop(stack)
            e.escape(v, held)
            return True
        if op == "MAP_ADD":
            a, b = self._pop(stack, 2)
            e.escape(a, held)
            e.escape(b, held)
            return True
        if op == "LIST_TO_TUPLE":
            (v,) = self._pop(stack)
            stack.append(v)
            return True
        if op == "FORMAT_VALUE":
            if (ins.arg or 0) & 0x04:
                self._pop(stack)
            (v,) = self._pop(stack)
            e.read(v, held)
            stack.append(_untracked())
            return True

        if op == "GET_ITER":
            (v,) = self._pop(stack)
            e.read(v, held)
            if v is not None and v.has_obj and isinstance(v.obj, (set, frozenset)):
                e.nondet.append(
                    "unordered-iteration: iterating a "
                    f"{type(v.obj).__name__} yields a nondeterministic order"
                )
            if v is not None and v.root is not None \
                    and v.root.obj_type in ("set", "frozenset"):
                e.nondet.append(
                    "unordered-iteration: iterating captured "
                    f"{v.root.source} {v.root.name!r} "
                    f"({v.root.obj_type}) yields a nondeterministic order"
                )
            stack.append(
                _V(root=v.root, through=False)
                if v is not None and v.root is not None else _untracked()
            )
            return True
        if op == "FOR_ITER":
            it = stack[-1] if stack else _untracked()
            after = list(stack)
            if after:
                after.pop()  # the exhausted branch pops the iterator
            self._enqueue(work, visited, self._jump_idx(ins), after)
            stack.append(
                _V(root=it.root, through=False)
                if it is not None and it.root is not None else _untracked()
            )
            return True
        if op == "UNPACK_SEQUENCE":
            (v,) = self._pop(stack)
            e.read(v, held)
            n = ins.arg
            if v is not None and v.elems is not None and len(v.elems) == n:
                for item in reversed(v.elems):
                    stack.append(item)
            else:
                src = (
                    _V(root=v.root, through=False)
                    if v is not None and v.root is not None else None
                )
                for _ in range(n):
                    stack.append(src)
            return True

        if op == "MAKE_FUNCTION":
            flags = ins.arg or 0
            (codev,) = self._pop(stack)
            free: Dict[str, Optional[_V]] = {}
            if flags & 0x08:
                (closv,) = self._pop(stack)
                if closv is not None and closv.elems:
                    for cellv in closv.elems:
                        if cellv is not None and cellv.cellname:
                            name = cellv.cellname
                            if name in self.code.co_cellvars:
                                free[name] = self.derefs.get(name)
                            else:
                                free[name] = self._load_deref(name)
            for bit in (0x04, 0x02, 0x01):
                if flags & bit:
                    self._pop(stack)
            if codev is not None and codev.code is not None:
                stack.append(_V(code=codev.code, free=free))
            else:
                stack.append(_untracked())
            return True

        if op == "CALL":
            argc = ins.arg or 0
            args = self._pop(stack, argc)[::-1]
            pair = self._pop(stack, 2)  # [self_or_callable, callable_or_null]
            second, first = pair[0], pair[1]
            if first is _NULL:
                callee, callargs = second, args
            else:
                callee, callargs = first, [second] + args
            stack.append(self._call(callee, callargs))
            return True
        if op == "CALL_FUNCTION_EX":
            flags = ins.arg or 0
            if flags & 0x01:
                (kw,) = self._pop(stack)
                e.escape(kw, held)
            (av,) = self._pop(stack)
            e.escape(av, held)
            pair = self._pop(stack, 2)
            callee = pair[0] if pair[1] is _NULL else pair[1]
            if callee is not None and callee.has_obj:
                nd = _nondet_module(_callable_module(callee.obj))
                if nd:
                    e.nondet.append(
                        f"{nd}: call of "
                        f"{getattr(callee.obj, '__qualname__', '?')}"
                    )
            stack.append(_untracked())
            return True

        if op == "BEFORE_WITH":
            (mgr,) = self._pop(stack)
            if mgr is not None and mgr.has_obj and isinstance(mgr.obj, _LOCK_TYPES):
                self.guards.add(id(mgr.obj))
            elif mgr is not None:
                e.read(mgr, held)
            stack.append(_untracked())  # __exit__
            stack.append(_untracked())  # __enter__ result
            return True

        if op == "IMPORT_NAME":
            self._pop(stack, 2)
            mod = sys.modules.get(ins.argval)
            stack.append(_V(obj=mod, has_obj=True) if mod else _untracked())
            return True
        if op == "IMPORT_FROM":
            top = stack[-1] if stack else None
            if top is not None and top.has_obj and isinstance(top.obj, types.ModuleType):
                attr = getattr(top.obj, ins.argval, None)
                stack.append(
                    _V(obj=attr, has_obj=True) if attr is not None
                    else _untracked()
                )
            else:
                stack.append(_untracked())
            return True
        if op == "IMPORT_STAR":
            self._pop(stack)
            e.give_up("import *")
            return True

        if op in ("JUMP_FORWARD", "JUMP_BACKWARD"):
            self._enqueue(work, visited, self._jump_idx(ins), stack)
            return False
        if op in (
            "POP_JUMP_FORWARD_IF_FALSE", "POP_JUMP_FORWARD_IF_TRUE",
            "POP_JUMP_BACKWARD_IF_FALSE", "POP_JUMP_BACKWARD_IF_TRUE",
            "POP_JUMP_FORWARD_IF_NONE", "POP_JUMP_FORWARD_IF_NOT_NONE",
            "POP_JUMP_BACKWARD_IF_NONE", "POP_JUMP_BACKWARD_IF_NOT_NONE",
        ):
            (v,) = self._pop(stack)
            e.read(v, held)
            self._enqueue(work, visited, self._jump_idx(ins), stack)
            return True
        if op in ("JUMP_IF_TRUE_OR_POP", "JUMP_IF_FALSE_OR_POP"):
            self._enqueue(work, visited, self._jump_idx(ins), stack)
            self._pop(stack)
            return True

        if op == "RETURN_VALUE":
            (v,) = self._pop(stack)
            e.escape(v, held)
            return False
        if op == "RAISE_VARARGS":
            self._pop(stack, ins.arg or 0)
            return False
        if op == "RERAISE":
            return False
        if op == "LOAD_ASSERTION_ERROR":
            stack.append(_untracked())
            return True
        if op == "GET_LEN":
            top = stack[-1] if stack else None
            e.read(top, held)
            stack.append(_untracked())
            return True

        # anything else (generators, pattern matching, async, exception
        # plumbing reached linearly, future opcodes): stop guessing
        e.give_up(f"unhandled opcode {op}")
        return False


# -- public entry points ----------------------------------------------

def infer_callable_effects(fn, args: Optional[Tuple[Any, ...]] = None) -> CallableEffects:
    """Infer the memory effects of *fn*.

    With *args* (kernel binding), positional parameters are modeled as
    span roots when the matching argument is a
    :class:`~repro.core.task.PullTask`, and as the concrete value
    otherwise.  With no *args* (host callable), parameters fall back to
    their default objects, which are tracked as captured state.
    """
    from repro.core.task import PullTask

    plain = _analyzable(fn)
    if plain is None:
        out = CallableEffects(confident=False, opaque=True)
        return out

    engine = _Engine()
    code = plain.__code__
    if code.co_flags & 0x220:  # generator / coroutine callables
        engine.give_up("generator")
        return engine.finish()

    names = list(code.co_varnames[: code.co_argcount])
    offset = 1 if names and names[0] == "ctx" else 0
    init: Dict[str, Optional[_V]] = {}
    if args is None:
        # host callable: executor invokes with no arguments
        frame = _Frame(engine, code, plain, {}, {}, frozenset(), 0)
        init = frame._bind_params(code, plain, [])
        frame.locals.update(init)
    else:
        frame = _Frame(engine, code, plain, {}, {}, frozenset(), 0)
        bound: List[Optional[_V]] = []
        if offset:
            bound.append(_untracked())  # the KernelContext
        for i, a in enumerate(args):
            pidx = i + offset
            if isinstance(a, PullTask):
                name = names[pidx] if pidx < len(names) else f"*args[{i}]"
                v = engine.param_root(name, i, arr=True)
                if pidx >= len(names):
                    # forwarded through *args: position unprovable
                    v.root.confident = False
                    v.root.escapes = True
                bound.append(v)
            else:
                try:
                    bound.append(_V(obj=a, has_obj=True))
                except Exception:  # pragma: no cover - defensive
                    bound.append(_untracked())
        init = frame._bind_params(code, plain, bound)
        frame.locals.update(init)
    frame.run()
    return engine.finish()


def infer_task_effects(node: Node) -> Optional[TaskEffects]:
    """Infer effects for one graph node's callable, or None for
    pull/push/placeholder nodes (their effects are structural and
    already modeled by the span dataflow)."""
    if node.type is TaskType.HOST:
        if node.callable is None:
            return None
        return TaskEffects(node=node, effects=infer_callable_effects(node.callable))
    if node.type is TaskType.KERNEL:
        if node.kernel_fn is None:
            return None
        eff = infer_callable_effects(node.kernel_fn, args=node.kernel_args)
        span: Dict[Node, RootEffect] = {}
        from repro.core.task import PullTask

        for i, a in enumerate(node.kernel_args):
            if not isinstance(a, PullTask):
                continue
            pull = a.node
            for r in eff.params.values():
                if r.index == i:
                    prev = span.get(pull)
                    if prev is None:
                        span[pull] = r
                    else:
                        # same span bound to several parameters: merge
                        prev.reads = prev.reads or r.reads
                        prev.writes = prev.writes or r.writes
                        prev.escapes = prev.escapes or r.escapes
                        prev.confident = prev.confident and r.confident
                        prev.mutations.extend(r.mutations)
                    break
            else:
                if not eff.opaque and eff.confident:
                    # parameter never materialized (e.g. fewer params
                    # than args): treat the span as unprovable
                    missing = RootEffect(
                        name=f"arg{i}", source="param", index=i,
                        confident=False, escapes=True,
                    )
                    span[pull] = missing
        if eff.opaque or not eff.confident:
            for r in span.values():
                r.confident = False
        return TaskEffects(node=node, effects=eff, span=span)
    return None
