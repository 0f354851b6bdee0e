"""Deterministic RNG plumbing.

Workload generators (netlists, placement databases, regression data)
must be reproducible run to run so that benchmark series are comparable;
every generator takes a seed and derives child seeds through
:func:`derive_seed` instead of sharing one global generator.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", None]


def seeded_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy Generator for *seed* (pass-through if already one)."""
    # imported here: derive_seed is used by processes that run no arrays
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: int, *labels: Union[str, int]) -> int:
    """Derive a stable 63-bit child seed from *seed* and label path.

    Hash-based so that adding a new consumer never perturbs the streams
    of existing consumers (unlike ``seed + i`` schemes).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest(), "little") & (2**63 - 1)
