"""The type-A_n Cartan matrix: 2 on the diagonal, -1 next to it, 0 elsewhere."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["cartan_matrix"]


@lru_cache(maxsize=None)
def cartan_matrix(n: int) -> np.ndarray:
    """A for SU(n+1) as a read-only float array, built once per n; raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"invalid Cartan dimension n={n}")
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    a.flags.writeable = False
    return a
