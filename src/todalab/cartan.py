"""The type-A_n Cartan matrix A (2 on the diagonal, -1 next to it) as a tridiagonal operator."""

from __future__ import annotations

import numpy as np

__all__ = ["cartan_apply"]


def cartan_apply(x, out=None) -> np.ndarray:
    """A x along axis 0, n = len(x): (A x)_i = (2 x_i - x_{i-1}) - x_{i+1}, by ufuncs alone.

    `out` may be x itself, and then at most two saved rows, the old x_{i-1} and x_i, are
    alive at once; any other `out` must not overlap x.  Raises ValueError for n < 1.
    """
    x = np.asarray(x, dtype=float)
    n, in_place = len(x), out is x
    if n < 1:
        raise ValueError(f"invalid Cartan dimension n={n}")
    out = np.empty_like(x) if out is None else out
    rows = [x[i : i + 1] for i in range(n)]  # slices, so a vector's rows are arrays too
    for i, row in enumerate(rows):
        old = row.copy() if in_place and i + 1 < n else row  # the old x_i, for row i + 1
        acc = np.multiply(row, 2.0, out=out[i : i + 1])
        if i:
            acc -= prev
        if i + 1 < n:
            acc -= rows[i + 1]
        prev = old
    return out
