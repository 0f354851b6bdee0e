"""repro.analysis — "hflint", pre-execution static analysis.

A static analyzer that runs over a constructed
:class:`~repro.core.heteroflow.Heteroflow` *before* submission.  It
computes the reachability/happens-before closure of the DAG and a
span-dataflow model (which tasks read and write each pull task's
device span, derived from pull/push/kernel argument bindings and the
:meth:`~repro.core.task.KernelTask.reads` /
:meth:`~repro.core.task.KernelTask.writes` declarations), plus a
bytecode-level **effect inference** engine
(:mod:`repro.analysis.effects`) that proves what each host/kernel
callable reads, writes, and captures, then emits severity-tiered
diagnostics with stable ``HFnnn`` rule codes:

========  ========  ===============================================
code      severity  finding
========  ========  ===============================================
HF001     error     dependency cycle (with witness path)
HF002     warning   disconnected GPU task / never-consumed pull span
HF003     error     unbound placeholder or partially-bound task
HF010     error     span access with no path from its pull task
HF011     error     write-write / read-write race on a span
HF012     warning   push of a span no kernel ever writes
HF013     info      duplicate or transitively-implied edge
HF014     error     kernel provably writes a span declared read-only
HF015     error     unordered host tasks race on a captured object
HF016     warning   nondeterministic callable in a frozen topology
HF017     warning   reads()/writes() names a span the body never uses
HF020     error     placement group footprint exceeds any GPU pool
========  ========  ===============================================

Entry points: :func:`lint`, ``Heteroflow.lint()``, the
``Executor.run(..., lint=True)`` gate, and ``python -m repro lint``.
The dynamic half — the hfsan runtime sanitizer
(:mod:`repro.analysis.sanitize`) behind
``Executor.run(..., sanitize=True)`` and ``python -m repro sanitize``
— cross-checks the inference against observed accesses at run time.
The full rule catalog with examples and fixes is in
``docs/analysis.md``.

Every name loads on first use, so structural consumers such as service
admission can import :mod:`repro.analysis.model` without the effect
engine, the rules or the sanitizer.
"""

from repro._lazy import attach

# public name -> defining submodule; loaded on first use (PEP 562)
_EXPORTS = {
    "RULES": "repro.analysis.diagnostics",
    "Diagnostic": "repro.analysis.diagnostics",
    "LintReport": "repro.analysis.diagnostics",
    "Rule": "repro.analysis.diagnostics",
    "Severity": "repro.analysis.diagnostics",
    "CallableEffects": "repro.analysis.effects",
    "Mutation": "repro.analysis.effects",
    "RootEffect": "repro.analysis.effects",
    "TaskEffects": "repro.analysis.effects",
    "infer_callable_effects": "repro.analysis.effects",
    "infer_task_effects": "repro.analysis.effects",
    "lint": "repro.analysis.linter",
    "GraphModel": "repro.analysis.model",
    "PlacementGroup": "repro.analysis.model",
    "SpanAccess": "repro.analysis.model",
    "predicted_footprint_bytes": "repro.analysis.model",
    "JSON_SCHEMA_VERSION": "repro.analysis.report",
    "render_dot": "repro.analysis.report",
    "render_json": "repro.analysis.report",
    "render_text": "repro.analysis.report",
    "ALL_RULES": "repro.analysis.rules",
    "Divergence": "repro.analysis.sanitize",
    "RecordingArray": "repro.analysis.sanitize",
    "SanitizeReport": "repro.analysis.sanitize",
    "SanitizerSession": "repro.analysis.sanitize",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
