#!/usr/bin/env python3
"""Unused-import checker for ``src/``, stdlib ``ast`` only.

A name bound by an ``import`` statement must be read somewhere in its
module: as a name, as the root of an attribute chain, inside a string
annotation (``Optional["Node"]``, common under ``TYPE_CHECKING``), or
by being listed in the module's ``__all__`` (a re-export).  Anything
else is reported as ``path:line: unused import 'name'``.  A name that
is imported for its side effect or read in a way the checker cannot
see goes in :data:`ALLOWED`, with its reason.

Exit code 0 when clean, 1 with one line per finding otherwise.  Run as
``python tools/check_imports.py`` from the repo root (or pass files or
directories to check instead of ``src/``); ``tests/test_check_imports.py``
runs it in the test suite.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterable, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (path relative to the repo root, imported name) -> why it stays
ALLOWED = {
    ("src/repro/service/admission.py", "predicted_footprint_bytes"): (
        "re-exported: the service layer is its historical import site"
    ),
}


def iter_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isdir(path):
            for base, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                for fname in sorted(files):
                    if fname.endswith(".py"):
                        yield os.path.join(base, fname)
        else:
            yield path


def _imports(tree: ast.Module) -> List[Tuple[str, int]]:
    """(bound name, line) for every import statement in the module."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _annotation_names(node: ast.AST) -> Set[str]:
    """Names read inside the string parts of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _used(tree: ast.Module) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # a name listed in __all__ is re-exported, hence used
            for elt in getattr(node.value, "elts", ()):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    used.add(elt.value)
    return used


def check_source(source: str, rel: str) -> List[str]:
    """Findings for one module's *source*, reported under path *rel*."""
    tree = ast.parse(source, filename=rel)
    used = _used(tree)
    return [
        f"{rel}:{line}: unused import {name!r}"
        for name, line in _imports(tree)
        if name not in used and (rel, name) not in ALLOWED
    ]


def main(argv: List[str]) -> int:
    paths = argv or [os.path.join(ROOT, "src")]
    problems = []
    files = list(iter_files(paths))
    for path in files:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        problems.extend(check_source(source, os.path.relpath(path, ROOT)))
    for p in problems:
        print(p)
    print(f"check_imports: {len(problems)} unused import(s) in {len(files)} file(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
