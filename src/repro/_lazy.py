"""Lazy package surfaces (PEP 562).

A package that re-exports names from its submodules lists them once,
in a ``name -> submodule`` table, and hands that table to
:func:`attach`.  Nothing is imported until a name is first looked up,
so ``import repro.gateway.worker`` loads what a worker runs and not the
whole package around it.  Code inside ``src/`` imports from the
defining submodule directly; the lazy surface is for users.

:data:`np` is the same idea for one third-party module: the runtime
modules that touch arrays (the executor's pull/push tasks, the GPU
model, spans) name numpy through it, so a process that never builds an
array — the gateway and a host-only worker — never imports numpy.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def attach(
    package: str, table: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    ``__getattr__`` imports ``table[name]`` on first use and caches the
    value in the package namespace, so later lookups are plain
    attribute reads; unknown names raise :class:`AttributeError`.
    """

    def __getattr__(name: str) -> object:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(submodule), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)


class LazyModule:
    """Stand-in for the module *name*, imported on first attribute
    access.  That access copies the module's namespace into this
    object, so every later lookup is a plain attribute read, as cheap
    as one on the module itself: no per-use import or check."""

    def __init__(self, name: str) -> None:
        self._lazy_module_name = name

    def __getattr__(self, attr: str) -> object:
        module = importlib.import_module(self._lazy_module_name)
        vars(self).update(vars(module))
        value = getattr(module, attr)  # a name the module loads lazily itself
        setattr(self, attr, value)
        return value


#: numpy, imported on first attribute access (``from repro._lazy import np``)
np = LazyModule("numpy")
