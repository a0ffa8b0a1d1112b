"""Dense complex polynomials and their Horner evaluation.

Degrees stay small (at most the system size n), so a dense coefficient
tuple is the whole representation.  Evaluation is vectorized over numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ComplexPoly",
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

    def scale(self, s: complex) -> "ComplexPoly":
        return ComplexPoly.from_coeffs(s * c for c in self.coeffs)


def eval_poly(p: ComplexPoly, z, out=None, scale=None):
    """Horner evaluation; z may be a scalar or ndarray.

    The loop updates one array in place: `out` when given (a complex array
    of z's shape), else a new one.  Its first step c_d z is one multiply,
    scalar first, which rounds as fill-then-*= does on two or more points.
    With `scale` (floats, at least one per coefficient) the pass evaluates
    the coefficients c_j * scale[j] in place of c_j.
    """
    z = np.asarray(z, dtype=complex)
    acc = np.empty(z.shape, dtype=complex) if out is None else out
    coeffs = p.coeffs if scale is None else [c * s for c, s in zip(p.coeffs, scale)]
    *lower, top = coeffs or (0j,)
    if lower and z.size > 1:
        np.multiply(np.complex128(top), z, out=acc)
        acc += lower.pop()
    else:
        acc.fill(top)
    for c in reversed(lower):
        acc *= z
        acc += c
    return acc if acc.shape else complex(acc)
