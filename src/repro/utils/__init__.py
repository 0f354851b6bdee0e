"""Shared utilities: union-find, spans, DOT serialization, RNG helpers.

A lazy PEP 562 surface (``repro._lazy``): importing one utility, such
as :func:`~repro.utils.rng.derive_seed` in the gateway, loads that
submodule alone and not :mod:`~repro.utils.span`'s array code.
"""

from repro._lazy import attach

# public name -> defining submodule; loaded on first use (PEP 562)
_EXPORTS = {
    "UnionFind": "repro.utils.union_find",
    "Span": "repro.utils.span",
    "make_span": "repro.utils.span",
    "DotWriter": "repro.utils.dot",
    "seeded_rng": "repro.utils.rng",
    "derive_seed": "repro.utils.rng",
}

__getattr__, __dir__, __all__ = attach(__name__, _EXPORTS)
