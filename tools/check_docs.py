#!/usr/bin/env python3
"""Docs drift checker: broken links and stale API references.

Scans README.md and every ``docs/*.md`` page for

- **relative markdown links** (``[text](path)``) — the target file must
  exist relative to the page (external ``http(s)://`` and anchor-only
  links are skipped);
- **dotted API references** (inline code spans like
  ``repro.core.tracing.write_chrome_trace`` or
  ``repro.metrics.RunReport``) — the module must import and every
  trailing attribute must resolve, so a rename in ``src/`` that leaves
  a doc page behind fails CI instead of rotting silently.

Exit code 0 when clean, 1 with one line per finding otherwise.  Run as
``python tools/check_docs.py`` from the repo root (``src/`` is added
to ``sys.path`` automatically); ``tests/test_docs.py`` runs the same
checks in the test suite, and the CI docs job runs this script.
"""

from __future__ import annotations

import importlib
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: pages that must exist — deleting one fails CI instead of silently
#: shrinking the doc set (docs/index.md is the architecture map)
REQUIRED_PAGES = (
    "index.md",
    "programming_model.md",
    "runtime.md",
    "simulation.md",
    "analysis.md",
    "observability.md",
    "resilience.md",
    "testing.md",
    "gateway.md",
    "durability.md",
)

#: API symbols the docs *must* be able to name — the gray-failure
#: surface (docs/gateway.md, docs/observability.md) is load-bearing
#: for operators, so a rename breaks CI here even if every page that
#: mentioned the old name was edited in the same commit
REQUIRED_API = (
    "repro.gateway.health.WorkerHealth",
    "repro.gateway.health.HealthConfig",
    "repro.gateway.health.HEALTH_STATES",
    "repro.gateway.chaos.ChaosProfile",
    "repro.gateway.Gateway.health_snapshot",
    "repro.gateway.Gateway.inject_chaos",
    "repro.resilience.CircuitBreaker",
    "repro.resilience.RetryBudget",
    "repro.resilience.RetryDelay",
    # the durability surface (docs/durability.md): journal, fsck, the
    # recovery entry point, and the scenario engine behind the crash
    # suite (docs/testing.md)
    "repro.durability.Journal",
    "repro.durability.fsck",
    "repro.durability.FaultyOs",
    "repro.harness.run",
    "repro.harness.SUITES",
    "repro.gateway.Gateway.recover",
    "repro.gateway.RecoveryReport",
    # the gateway operator surface (docs/gateway.md) as the package
    # exports it
    "repro.gateway.Gateway",
    "repro.gateway.WorkerConfig",
    "repro.gateway.GeneratedSpec",
    "repro.gateway.BuiltinSpec",
    "repro.gateway.BurstSpec",
    "repro.gateway.Result",
    "repro.gateway.Submission",
    "repro.gateway.OUTCOMES",
    "repro.gateway.ChaosProfile",
    "repro.gateway.HealthConfig",
    "repro.gateway.WorkerHealth",
    "repro.gateway.HEALTH_STATES",
    "repro.durability.FsckReport",
    "repro.durability.encode_record",
    "repro.durability.scan_bytes",
    "repro.errors.JournalError",
    "repro.errors.JournalCorruptError",
    "repro.errors.JournalWriteError",
)

#: [text](target) — target captured up to the closing paren
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: `repro.something.more` inside an inline code span; a trailing call
#: spelling like `repro.x.y(...)` is matched without the parens
_API_RE = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\([^`]*\))?`")


def iter_pages():
    yield os.path.join(ROOT, "README.md")
    docs = os.path.join(ROOT, "docs")
    for fname in sorted(os.listdir(docs)):
        if fname.endswith(".md"):
            yield os.path.join(docs, fname)


def check_links(path: str, text: str) -> list:
    problems = []
    base = os.path.dirname(path)
    for m in _LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#")[0]
        if not rel:
            continue
        if not os.path.exists(os.path.join(base, rel)):
            problems.append(
                f"{os.path.relpath(path, ROOT)}: broken link -> {target}"
            )
    return problems


def check_api_refs(path: str, text: str) -> list:
    problems = []
    for m in _API_RE.finditer(text):
        dotted = m.group(1)
        if not _resolves(dotted):
            problems.append(
                f"{os.path.relpath(path, ROOT)}: stale API reference "
                f"`{dotted}`"
            )
    return problems


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    # longest importable module prefix, then attribute-walk the rest
    for cut in range(len(parts), 0, -1):
        modname = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(modname)
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    problems = []
    for required in REQUIRED_PAGES:
        if not os.path.exists(os.path.join(ROOT, "docs", required)):
            problems.append(f"docs/{required}: required page is missing")
    for dotted in REQUIRED_API:
        if not _resolves(dotted):
            problems.append(f"required API symbol missing: `{dotted}`")
    for page in iter_pages():
        with open(page) as fh:
            text = fh.read()
        problems.extend(check_links(page, text))
        problems.extend(check_api_refs(page, text))
    for p in problems:
        print(p)
    print(
        f"check_docs: {len(problems)} problem(s) across "
        f"{sum(1 for _ in iter_pages())} page(s)"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
