"""The lint-clean regression corpus: every shipped flow, buildable.

``python -m repro lint`` (and the CI lint job) run hflint over each
graph this module can construct: the Listing-1 saxpy graph, the three
application flows, and — when an ``examples/`` directory is reachable —
every example script that exposes a module-level ``build()`` function.
These graphs are maintained lint-clean (no warning-or-worse findings);
a regression here means either a real graph bug or an analyzer false
positive, and both are bugs.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.heteroflow import Heteroflow


def build_saxpy():
    """The paper's Listing-1 saxpy graph (also used by the CLI).

    Returns ``(graph, x, y, n)`` — the host containers are part of the
    return so runners can check the arithmetic.
    """
    from repro.core.heteroflow import Heteroflow

    n = 65536
    x: List[int] = []
    y: List[int] = []

    def saxpy(ctx, n, a, xv, yv):
        i = ctx.flat_indices()
        i = i[i < n]
        yv[i] = a * xv[i] + yv[i]

    hf = Heteroflow("saxpy")
    host_x = hf.host(lambda: x.extend([1] * n), name="host_x")
    host_y = hf.host(lambda: y.extend([2] * n), name="host_y")
    pull_x = hf.pull(x, name="pull_x")
    pull_y = hf.pull(y, name="pull_y")
    kernel = (
        hf.kernel(saxpy, n, 2, pull_x, pull_y, name="saxpy")
        .block_x(256)
        .grid_x((n + 255) // 256)
    )
    # y is read-modify-write; declaring both modes keeps the effect
    # rules (HF014/HF017) in agreement with the inferred body effects
    kernel.reads(pull_y).writes(pull_y)
    push_x = hf.push(pull_x, x, name="push_x")
    push_y = hf.push(pull_y, y, name="push_y")
    host_x.precede(pull_x)
    host_y.precede(pull_y)
    kernel.succeed(pull_x, pull_y).precede(push_x, push_y)
    return hf, x, y, n


def _saxpy_graph() -> Heteroflow:
    return build_saxpy()[0]


def _timing_graph() -> Heteroflow:
    from repro.apps.timing import build_timing_flow

    return build_timing_flow(num_views=4, num_gates=60, paths_per_view=8).graph


def _placement_graph() -> Heteroflow:
    from repro.apps.placement import build_placement_flow

    return build_placement_flow(num_cells=40, iterations=3).graph


def _sparsenn_graph() -> Heteroflow:
    from repro.apps.sparsenn import build_inference_flow

    return build_inference_flow(
        width=16, num_layers=3, batch_size=8, num_blocks=4, num_shards=2
    ).graph


#: name -> zero-arg builder returning a representative small instance
#: of each shipped flow (small keeps ``repro lint`` and CI fast; the
#: graph *shape* — and therefore every lint property — matches the
#: full-scale builds).
BUILTIN_CORPUS: Dict[str, Callable[[], Heteroflow]] = {
    "saxpy": _saxpy_graph,
    "timing": _timing_graph,
    "placement": _placement_graph,
    "sparsenn": _sparsenn_graph,
}


def iter_builtin(names=None) -> Iterator[Tuple[str, Heteroflow]]:
    """Yield ``(name, graph)`` for the requested builtin workloads."""
    for name in names or BUILTIN_CORPUS:
        if name not in BUILTIN_CORPUS:
            raise KeyError(
                f"unknown workload {name!r}; "
                f"available: {', '.join(BUILTIN_CORPUS)}"
            )
        yield name, BUILTIN_CORPUS[name]()


def _extract_graphs(obj) -> List[Heteroflow]:
    """Pull Heteroflow graphs out of whatever an example build() returns."""
    if isinstance(obj, Heteroflow):
        return [obj]
    graph = getattr(obj, "graph", None)
    if isinstance(graph, Heteroflow):
        return [graph]
    if isinstance(obj, (tuple, list)):
        out: List[Heteroflow] = []
        for item in obj:
            out.extend(_extract_graphs(item))
        return out
    return []


def iter_example_graphs(directory: str) -> Iterator[Tuple[str, Heteroflow]]:
    """Yield ``(name, graph)`` from every example exposing ``build()``.

    Each ``*.py`` file in *directory* is imported in isolation; modules
    without a ``build`` callable are skipped (they have no graph to
    lint without running).  ``build()`` may return a graph, a flow
    object with a ``.graph``, or any nesting of those in tuples/lists.
    """
    for fname in sorted(os.listdir(directory)):
        if not fname.endswith(".py") or fname.startswith("_"):
            continue
        path = os.path.join(directory, fname)
        modname = f"_hflint_example_{fname[:-3]}"
        spec = importlib.util.spec_from_file_location(modname, path)
        if spec is None or spec.loader is None:  # pragma: no cover
            continue
        module = importlib.util.module_from_spec(spec)
        sys.modules[modname] = module
        try:
            spec.loader.exec_module(module)
            build = getattr(module, "build", None)
            if not callable(build):
                continue
            graphs = _extract_graphs(build())
        finally:
            sys.modules.pop(modname, None)
        for i, graph in enumerate(graphs):
            suffix = "" if len(graphs) == 1 else f"#{i}"
            yield f"{fname[:-3]}{suffix}", graph


def find_examples_dir(start: str = ".") -> str:
    """Locate an ``examples/`` directory near *start* (cwd by default).

    Returns the empty string when none exists — callers then lint only
    the builtin corpus.
    """
    probe = os.path.abspath(start)
    for _ in range(4):
        cand = os.path.join(probe, "examples")
        if os.path.isdir(cand):
            return cand
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    return ""
