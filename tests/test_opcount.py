"""Bytecode budgets of the slot loop, counted with ``tools/opcount.py``.

Each count is an exact marginal number of CPython bytecodes on one
worker (the difference between a short and a long chain), so it does
not drift with the machine: a change that adds a layer to the
dispatcher's per-kernel path or to the host slot loop fails here, and
one that removes bytecodes should lower the budget with it.  Bytecode
differs between CPython minor versions, so budgets are kept per version.
"""

import importlib.util
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (major, minor) -> (dispatcher bytecodes per continued kernel,
#: inline-loop bytecodes per host slot)
BUDGETS = {(3, 11): (527, 137)}


def _opcount():
    path = os.path.join(ROOT, "tools", "opcount.py")
    spec = importlib.util.spec_from_file_location("opcount", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def budget():
    got = BUDGETS.get(sys.version_info[:2])
    if got is None:
        pytest.skip(f"no bytecode budget recorded for Python {sys.version_info[:2]}")
    return got


def test_dispatcher_bytecodes_per_continued_kernel(budget):
    """A healthy GPU chain on one worker and one GPU: what a stream
    dispatcher runs per kernel it completes and continues (op body,
    completion step and the next launch)."""
    assert _opcount().dispatcher_per_kernel() <= budget[0]


def test_inline_loop_bytecodes_per_host_slot(budget):
    """A chain of empty host tasks on one worker: what the slot loop
    runs per slot, the join and the task body included."""
    assert _opcount().inline_per_slot() <= budget[1]
