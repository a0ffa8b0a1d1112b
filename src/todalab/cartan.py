"""Exact rational algebra for the type-A_n Cartan matrix and its inverse.

The matrix A is tridiagonal with 2 on the diagonal and -1 off it; the
inverse has the closed form A^{-1}[i][j] = j(n+1-i)/(n+1) for i >= j
(1-based), extended by symmetry.  Everything here is exact Fraction
arithmetic; floats appear only at the boundary (a_float).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = ["CartanData", "cartan_matrix"]


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix A and its exact inverse for SU(n+1)."""

    n: int
    a: tuple[tuple[Fraction, ...], ...]
    a_inv: tuple[tuple[Fraction, ...], ...]

    def a_float(self) -> np.ndarray:
        return np.array(self.a, dtype=float)


@lru_cache(maxsize=None)
def cartan_matrix(n: int) -> CartanData:
    """Build A and A^{-1} exactly; raises ValueError for n < 1."""
    if n < 1:
        raise ValueError(f"invalid Cartan dimension n={n}")
    a = tuple(
        tuple(Fraction(2 if i == j else (-1 if abs(i - j) == 1 else 0)) for j in range(n))
        for i in range(n)
    )

    def inv_entry(i: int, j: int) -> Fraction:
        # 1-based closed form, i >= j; symmetric otherwise.
        if i < j:
            i, j = j, i
        return Fraction(j * (n + 1 - i), n + 1)

    a_inv = tuple(
        tuple(inv_entry(i + 1, j + 1) for j in range(n)) for i in range(n)
    )
    # A * A^{-1} must be the identity exactly.
    for i in range(n):
        for j in range(n):
            s = sum(a[i][k] * a_inv[k][j] for k in range(n))
            if s != (1 if i == j else 0):
                raise AssertionError(f"A*A^-1 != I at ({i},{j}): {s}")
    return CartanData(n=n, a=a, a_inv=a_inv)
