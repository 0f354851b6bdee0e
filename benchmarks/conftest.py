"""Benchmark harness plumbing.

Each bench module regenerates one paper artifact (table/figure series)
and registers a human-readable table via :func:`record_table`.  The
virtual-time tables are defined in :mod:`repro.figures`, whose
renderer every table shares.  A ``pytest_terminal_summary`` hook
prints every table after the benchmark run (so the series survive
pytest's output capture), and :func:`record_table` mirrors them into ``benchmarks/results/`` — twice per table: a
``<name>.txt`` rendering for humans and a structured
``BENCH_<name>.json`` record (schema ``repro.bench/1``) for scripts
and regression tooling.  The JSON record carries the same headers and
rows plus an optional ``meta`` payload (e.g. a
:class:`repro.metrics.RunReport` dict or executor counter snapshot);
see docs/observability.md for the record layout.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Sequence

from repro.figures import Table, format_table

#: schema identifier stamped into every BENCH_*.json record
BENCH_SCHEMA = "repro.bench/1"

_TABLES: List[str] = []
_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _jsonable(v):
    """Coerce table cells (numpy scalars included) to JSON types."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, float, str)):
        return v
    for cast in (int, float):
        try:
            coerced = cast(v)
        except (TypeError, ValueError):
            continue
        if coerced == v:
            return coerced
    return str(v)


def record_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    notes: str = "",
    meta: Optional[Dict] = None,
) -> str:
    """Format and register one paper-vs-measured table.

    Writes ``results/<name>.txt`` (the rendered table) and
    ``results/BENCH_<name>.json`` (the structured record).  *meta*, if
    given, is embedded verbatim in the JSON record — use it for
    machine-readable context the table itself elides (RunReport dicts,
    counter snapshots, config parameters).
    """
    text = format_table(Table(title, headers, rows, notes))
    _TABLES.append(text)
    os.makedirs(_RESULTS_DIR, exist_ok=True)
    fname = title.split(":")[0].strip().lower().replace(" ", "_").replace("/", "-")
    with open(os.path.join(_RESULTS_DIR, f"{fname}.txt"), "w") as fh:
        fh.write(text + "\n")
    record = {
        "schema": BENCH_SCHEMA,
        "name": fname,
        "title": title,
        "headers": [str(h) for h in headers],
        "rows": [[_jsonable(v) for v in r] for r in rows],
        "notes": notes,
        "meta": meta or {},
    }
    with open(os.path.join(_RESULTS_DIR, f"BENCH_{fname}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("#" * 72)
    terminalreporter.write_line("# Reproduction tables (paper vs measured)")
    terminalreporter.write_line("#" * 72)
    for t in _TABLES:
        terminalreporter.write_line("")
        for line in t.splitlines():
            terminalreporter.write_line(line)
