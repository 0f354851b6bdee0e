"""Import-graph gate: every process imports only what it runs.

Each check runs in a fresh interpreter (the test process has long since
imported everything), and each is a deterministic statement about
``sys.modules`` — no timings.  See docs/programming_model.md: the
``repro``, ``repro.core``, ``repro.gateway``, ``repro.analysis``,
``repro.metrics`` and ``repro.utils`` package surfaces load their names
on first use (PEP 562), and neither serving process imports numpy.  Concretely: a
host-only gateway worker loads no numpy, networkx, asyncio or gateway
front end; the gateway front end with its journal, ``import repro``
and ``python -m repro --help`` load no numpy; and each of the six lazy
surfaces resolves every exported name on first use.  The gate runs in
the tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.gateway", "repro.analysis", "repro.metrics", "repro.utils"
)

#: never needed by a host-only gateway worker process running an
#: executor (``WorkerConfig(gpus=0)``, which builds no array): the
#: scenario engine and every verification suite included
WORKER_FORBIDDEN = (
    "numpy",
    "networkx",
    "asyncio",
    "repro.gateway.gateway",
    "repro.harness",
    "repro.check.stress",
    "repro.check.replay",
    "repro.check.sanitize",
    "repro.resilience.chaos",
    "repro.service.soak",
    "repro.gateway.soak",
    "repro.durability.soak",
    "repro.analysis.effects",
    "repro.analysis.linter",
    "repro.analysis.rules",
    "repro.analysis.sanitize",
    "repro.core.algorithms",
    "repro.core.patterns",
    "repro.core.serialize",
    "repro.metrics.profiler",
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _run(code: str):
    """Run *code* in a fresh interpreter; it prints one JSON document."""
    proc = _python("-c", textwrap.dedent(code))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loaded_after(statement: str, names) -> list:
    return _run(
        f"""
        import json, sys
        {statement}
        print(json.dumps([m for m in {list(names)!r} if m in sys.modules]))
        """
    )


def _help_imports(*argv: str) -> set:
    """Modules ``python -m repro ARGV`` imports (it must print usage)."""
    proc = _python("-X", "importtime", "-m", "repro", *argv)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
    # -X importtime lines: "import time: self | cumulative | name"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }


class TestProcessImports:
    def test_worker_path_loads_only_what_a_worker_runs(self):
        loaded = _loaded_after(
            "import repro.gateway.worker, repro.core.executor", WORKER_FORBIDDEN
        )
        assert loaded == []

    def test_gateway_front_end_loads_no_numpy(self):
        loaded = _loaded_after(
            "from repro.gateway import Gateway; import repro.durability",
            ("numpy", "networkx"),
        )
        assert loaded == []

    def test_import_repro_loads_no_numpy_or_networkx(self):
        assert _loaded_after("import repro", ("numpy", "networkx")) == []

    def test_cli_help_loads_no_numpy_or_networkx(self):
        loaded = _help_imports("--help")
        assert "repro.cli" in loaded
        assert not {"numpy", "networkx"} & loaded

    def test_verify_help_loads_no_numpy_or_suite(self):
        loaded = _help_imports("verify", "--help")
        assert not {"numpy", "networkx"} & loaded
        # the SUITES table names its modules; none is imported for --help
        assert set(WORKER_FORBIDDEN) & loaded == {"repro.harness"}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazySurface:
    def test_names_resolve_on_first_use(self, package):
        doc = _run(
            f"""
            import importlib, json, sys
            pkg = importlib.import_module({package!r})
            eager = [n for n in pkg.__all__ if n in vars(pkg) and n != "__version__"]
            submodules = sorted(
                m for m in sys.modules
                if m.startswith({package!r} + ".") and m != "repro._lazy"
            )
            unresolved = []
            for name in pkg.__all__:
                try:
                    getattr(pkg, name)
                except Exception as exc:
                    unresolved.append(f"{{name}}: {{exc!r}}")
            listing = dir(pkg)
            try:
                getattr(pkg, "no_such_name")
                unknown = "resolved"
            except AttributeError as exc:
                unknown = str(exc)
            print(json.dumps({{
                "all": list(pkg.__all__),
                "eager": eager,
                "submodules": submodules,
                "unresolved": unresolved,
                "missing_from_dir": [n for n in pkg.__all__ if n not in listing],
                "cached": [n for n in pkg.__all__ if n not in vars(pkg)],
                "unknown": unknown,
            }}))
            """
        )
        assert doc["all"] and len(doc["all"]) == len(set(doc["all"]))
        # a bare import binds none of the names and loads no submodule
        assert doc["eager"] == []
        assert doc["submodules"] == []
        assert doc["unresolved"] == []
        assert doc["missing_from_dir"] == []
        assert doc["cached"] == []
        assert "no_such_name" in doc["unknown"]
