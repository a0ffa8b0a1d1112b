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


def eval_poly(p: ComplexPoly, z: np.ndarray, out: np.ndarray, scale) -> np.ndarray:
    """Horner evaluation of sum_j c_j scale[j] z^j into `out`, a complex array of z's shape.

    `scale` holds at least one float per coefficient.  The first step c_d z is
    one multiply, scalar first, which rounds as fill-then-*= does on two or
    more points.
    """
    *lower, top = [c * s for c, s in zip(p.coeffs, scale)] or (0j,)
    if lower and z.size > 1:
        np.multiply(np.complex128(top), z, out=out)
        out += lower.pop()
    else:
        out.fill(top)
    for c in reversed(lower):
        out *= z
        out += c
    return out
