"""Unused imports: ``python tools/check_imports.py`` must find none in
``src/``, and must find a planted one."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    path = os.path.join(ROOT, "tools", "check_imports.py")
    spec = importlib.util.spec_from_file_location("check_imports", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_src_has_no_unused_imports(capsys):
    checker = _load_checker()
    assert checker.main([]) == 0, capsys.readouterr().out


def test_planted_unused_import_is_reported():
    checker = _load_checker()
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "from collections import deque\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.node import Node\n"
        "__all__ = ['deque']\n"
        "def f(x: 'Optional[Node]') -> Dict[str, int]:\n"
        "    return {os.sep: 1}\n"
    )
    assert checker.check_source(source, "planted.py") == [
        "planted.py:3: unused import 'osp'",
        "planted.py:4: unused import 'List'",
    ]


def test_allowlist_entries_name_real_imports():
    """Each allowlisted name is still imported where it says (a stale
    entry would hide a future finding) and carries a reason."""
    checker = _load_checker()
    for (rel, name), reason in list(checker.ALLOWED.items()):
        assert reason
        with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
            source = fh.read()
        checker.ALLOWED.pop((rel, name))
        try:
            findings = checker.check_source(source, rel)
        finally:
            checker.ALLOWED[(rel, name)] = reason
        assert any(f.endswith(f"unused import {name!r}") for f in findings), rel
