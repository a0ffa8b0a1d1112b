"""Dense complex polynomials with exact differentiation.

Degrees stay small (at most the system size n), so a dense coefficient
tuple is the whole representation.  Evaluation is vectorized over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPoly",
    "derivative",
    "eval_poly",
]


@dataclass(frozen=True)
class ComplexPoly:
    """coeffs[k] is the coefficient of z^k; highest index nonzero unless zero poly."""

    coeffs: tuple[complex, ...]

    @staticmethod
    def from_coeffs(seq) -> "ComplexPoly":
        c = [complex(x) for x in seq]
        while c and c[-1] == 0:
            c.pop()
        return ComplexPoly(tuple(c))

    @property
    def degree(self) -> int:
        """Highest nonzero index; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ComplexPoly") -> "ComplexPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, v in enumerate(b):
            out[k] += v
        return ComplexPoly.from_coeffs(out)

    def __mul__(self, other: "ComplexPoly") -> "ComplexPoly":
        if self.is_zero() or other.is_zero():
            return ComplexPoly(())
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return ComplexPoly.from_coeffs(out)

    def scale(self, s: complex) -> "ComplexPoly":
        return ComplexPoly.from_coeffs(s * c for c in self.coeffs)


def derivative(p: ComplexPoly, order: int = 1) -> ComplexPoly:
    """Exact order-th derivative; order past the degree gives the zero polynomial."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = p.coeffs
    for _ in range(order):
        if len(coeffs) <= 1:
            return ComplexPoly(())
        coeffs = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
    return ComplexPoly.from_coeffs(coeffs)


def eval_poly(p: ComplexPoly, z, out=None):
    """Horner evaluation; z may be a scalar or ndarray.

    The loop updates one array in place: `out` when given (a complex array
    of z's shape), else a new one.  Its first step c_d z is one multiply,
    scalar first, which rounds as fill-then-*= does on two or more points.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.empty(z.shape, dtype=complex) if out is None else out
    *lower, top = p.coeffs or (0j,)
    if lower and z.size > 1:
        np.multiply(np.complex128(top), z, out=acc)
        acc += lower.pop()
    else:
        acc.fill(top)
    for c in reversed(lower):
        acc *= z
        acc += c
    return acc if acc.shape else complex(acc)
