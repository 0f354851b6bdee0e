"""Reporters: render lint reports as text, JSON, or a DOT overlay.

The JSON schema (version 1, documented in ``docs/analysis.md``) is
stable public output — CI and editor tooling parse it — so its field
set and ordering are pinned by a golden test.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.analysis.diagnostics import LintReport, Severity
from repro.core.node import TaskType
from repro.utils.dot import DotWriter

#: bump only with a documented migration; consumers key off this.
#: v2: diagnostics carry ``nids`` (graph-local node indices, the
#: deterministic-ordering tiebreaker) and each graph report carries an
#: ``effects`` map with the per-task inferred memory effects
#: (docs/analysis.md, "Effect inference").
JSON_SCHEMA_VERSION = 2

_SEVERITY_FILL = {
    Severity.ERROR: "indianred1",
    Severity.WARNING: "orange",
    Severity.INFO: "khaki1",
}

_SHAPE = {
    TaskType.HOST: "ellipse",
    TaskType.PULL: "box",
    TaskType.PUSH: "box",
    TaskType.KERNEL: "box",
    TaskType.PLACEHOLDER: "ellipse",
}


def render_text(report: LintReport, *, verbose: bool = False) -> str:
    """Human-readable report, one finding per line."""
    lines: List[str] = []
    c = report.counts()
    lines.append(
        f"{report.graph_name}: {report.num_tasks} task(s), "
        f"{c['error']} error(s), {c['warning']} warning(s), "
        f"{c['info']} info(s)"
    )
    for d in report.diagnostics:
        lines.append(f"  {d}")
        if verbose and d.data:
            for k, v in sorted(d.data.items()):
                lines.append(f"      {k}: {v}")
    if not report.diagnostics:
        lines.append("  clean")
    return "\n".join(lines)


def render_json(reports: List[LintReport], *, indent: int = 2) -> str:
    """Stable JSON document over one or more graph reports."""
    doc = {
        "version": JSON_SCHEMA_VERSION,
        "ok": all(r.ok for r in reports),
        "clean": all(r.clean for r in reports),
        "graphs": [r.as_dict() for r in reports],
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def render_dot(report: LintReport, graph) -> str:
    """The graph's DOT dump with findings overlaid.

    Tasks named in a diagnostic are filled with their worst severity's
    colour and annotated with the rule codes that hit them; edges
    flagged HF013 are drawn dashed.  Clean tasks keep a neutral style,
    so the overlay highlights exactly what needs attention.
    """
    worst: Dict[str, Severity] = {}
    codes: Dict[str, List[str]] = {}
    for d in report.diagnostics:
        for name in d.tasks:
            if name not in worst or d.severity > worst[name]:
                worst[name] = d.severity
            if d.code not in codes.setdefault(name, []):
                codes[name].append(d.code)
    redundant = {
        tuple(d.tasks)
        for d in report.diagnostics
        if d.code == "HF013" and len(d.tasks) == 2
    }

    w = DotWriter(f"hflint:{graph.name}")
    for n in graph.nodes:
        label = n.name
        attrs = {"shape": _SHAPE[n.type], "style": "filled", "fillcolor": "white"}
        sev: Optional[Severity] = worst.get(n.name)
        if sev is not None:
            attrs["fillcolor"] = _SEVERITY_FILL[sev]
            # single-line: DotWriter escapes backslashes, so a DOT "\n"
            # would come out as a literal backslash in the label
            label = f"{n.name} [{','.join(codes[n.name])}]"
        w.add_node(id(n), label, **attrs)
    for n in graph.nodes:
        for s in n.successors:
            if (n.name, s.name) in redundant:
                w.add_edge(id(n), id(s), style="dashed", color="gray50")
            else:
                w.add_edge(id(n), id(s))
    return w.render()
